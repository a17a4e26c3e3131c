/**
 * @file
 * Bounded FIFO channel for message passing between simulated tasks.
 *
 * Semantics follow Go channels: send suspends while the channel is
 * full, recv suspends while it is empty, close() wakes all receivers
 * which then observe std::nullopt once the buffer drains.
 */

#ifndef IOAT_SIMCORE_CHANNEL_HH
#define IOAT_SIMCORE_CHANNEL_HH

#include <cstddef>
#include <optional>
#include <utility>

#include "simcore/assert.hh"
#include "simcore/coro.hh"
#include "simcore/pool.hh"
#include "simcore/sim.hh"
#include "simcore/sync.hh"

namespace ioat::sim {

/**
 * A bounded multi-producer multi-consumer channel.
 *
 * @tparam T element type (moved through the channel)
 */
template <typename T>
class Channel
{
  public:
    /**
     * @param sim owning simulation
     * @param capacity maximum buffered elements (0 means unbounded)
     */
    Channel(Simulation &sim, std::size_t capacity = 0)
        : sim_(sim), capacity_(capacity)
    {}

    Channel(const Channel &) = delete;
    Channel &operator=(const Channel &) = delete;

    std::size_t size() const { return items_.size(); }
    bool closed() const { return closed_; }

    /**
     * Send a value, suspending while the channel is full.
     * Sending on a closed channel is a simulator bug.
     */
    Coro<void>
    send(T value)
    {
        while (capacity_ != 0 && items_.size() >= capacity_ && !closed_) {
            notFull_.reset();
            co_await notFull_.wait();
        }
        simAssert(!closed_, "send on closed Channel");
        items_.push_back(std::move(value));
        notEmpty_.pulse();
    }

    /**
     * Push a value without waiting for space (for non-coroutine
     * producers such as device callbacks).  Capacity is not enforced.
     */
    void
    push(T value)
    {
        simAssert(!closed_, "push on closed Channel");
        items_.push_back(std::move(value));
        notEmpty_.pulse();
    }

    /**
     * Receive the next value, suspending while the channel is empty.
     * @return the value, or std::nullopt once closed and drained.
     */
    Coro<std::optional<T>>
    recv()
    {
        while (items_.empty() && !closed_)
            co_await notEmpty_.wait();
        if (items_.empty())
            co_return std::optional<T>{};
        T v = std::move(items_.front());
        items_.pop_front();
        notFull_.pulse();
        co_return std::optional<T>(std::move(v));
    }

    /** Non-blocking receive. */
    std::optional<T>
    tryRecv()
    {
        if (items_.empty())
            return std::nullopt;
        T v = std::move(items_.front());
        items_.pop_front();
        notFull_.pulse();
        return v;
    }

    /** Close the channel: receivers drain the buffer then see nullopt. */
    void
    close()
    {
        closed_ = true;
        notEmpty_.pulse();
        notFull_.pulse();
    }

  private:
    Simulation &sim_;
    std::size_t capacity_;
    bool closed_ = false;
    /** Buffer nodes are recycled, so steady traffic allocates nothing
     *  (a std::deque frees and reallocates a chunk every few items). */
    typename PooledFifo<T, 16>::NodePool pool_;
    PooledFifo<T, 16> items_{pool_};
    Event notEmpty_{sim_};
    Event notFull_{sim_};
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_CHANNEL_HH
