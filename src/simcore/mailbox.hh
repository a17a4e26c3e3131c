/**
 * @file
 * Single-consumer mailbox: a pooled FIFO plus one parked consumer.
 *
 * The receive queue of both transports' RX paths — the TCP softirq
 * loop and the kernel-bypass poll loop each drain one per NIC queue.
 * The NIC hands a batch over as its event's last action, so push()
 * wakes a parked consumer through EventQueue::tailPost and the
 * wakeup usually runs inline.  Against a `Channel` this saves a
 * recv() coroutine frame per item and a posted Event::pulse per
 * wakeup, with the same order and the same executedEvents().
 */

#ifndef IOAT_SIMCORE_MAILBOX_HH
#define IOAT_SIMCORE_MAILBOX_HH

#include <coroutine>
#include <cstddef>
#include <utility>

#include "simcore/assert.hh"
#include "simcore/event_queue.hh"
#include "simcore/pool.hh"

namespace ioat::sim {

/**
 * FIFO of T with at most one consumer coroutine.
 *
 * The node pool belongs to the caller, which may share it among many
 * mailboxes and must declare it before them.  A mailbox may be moved
 * only while no consumer is parked on it.
 */
template <typename T>
class Mailbox
{
  public:
    using Fifo = PooledFifo<T, 16>;
    using NodePool = typename Fifo::NodePool;

    Mailbox(EventQueue &q, NodePool &pool) : q_(q), items_(pool) {}

    Mailbox(Mailbox &&o) noexcept : q_(o.q_), items_(std::move(o.items_))
    {
        simAssert(!o.parked_, "Mailbox moved with a parked consumer");
    }

    Mailbox(const Mailbox &) = delete;
    Mailbox &operator=(const Mailbox &) = delete;

    bool empty() const { return items_.empty(); }

    /**
     * Append @p item and wake the consumer if it is parked.
     *
     * Must be the calling event's last action: the wakeup is a
     * tailPost, which may resume the consumer before push() returns.
     */
    void
    push(T item)
    {
        items_.push_back(std::move(item));
        if (parked_)
            q_.tailPost([h = std::exchange(parked_, nullptr)] { h.resume(); });
    }

    /**
     * Awaitable for the oldest item: ready while the FIFO is
     * non-empty, otherwise it parks the consumer until the next push.
     */
    auto
    recv()
    {
        struct Awaiter
        {
            Mailbox &mb;

            bool await_ready() const noexcept { return !mb.items_.empty(); }

            void
            await_suspend(std::coroutine_handle<> h) noexcept
            {
                simAssert(!mb.parked_, "Mailbox has a single consumer");
                mb.parked_ = h;
            }

            T
            await_resume()
            {
                T v = std::move(mb.items_.front());
                mb.items_.pop_front();
                return v;
            }
        };
        return Awaiter{*this};
    }

  private:
    EventQueue &q_;
    Fifo items_;
    std::coroutine_handle<> parked_ = nullptr;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_MAILBOX_HH
