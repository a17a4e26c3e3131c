/**
 * @file
 * Free-list arenas for simulator hot-path bookkeeping.
 *
 * Three building blocks, all single-threaded like the simulator:
 *  - `Pool<T>`: chunked bump/free-list allocator for fixed-size nodes
 *    (event-queue entries, retransmission-queue links).  Chunks are
 *    never returned to the OS until the pool dies, so steady-state
 *    scheduling performs no heap traffic at all.
 *  - `PooledFifo<T>`: a FIFO queue over `Pool` nodes, replacing
 *    `std::deque` where only push_back/pop_front/front are needed
 *    (retransmission queues, channel buffers, softirq mailboxes).
 *  - `VectorPool<T>`: recycles `std::vector<T>` buffers (NIC receive
 *    batches) so per-interrupt vectors keep their capacity instead of
 *    being reallocated each time.
 */

#ifndef IOAT_SIMCORE_POOL_HH
#define IOAT_SIMCORE_POOL_HH

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "simcore/assert.hh"

namespace ioat::sim {

/**
 * Chunked free-list allocator for raw (uninitialized) T-sized slots.
 *
 * allocate() returns uninitialized storage; callers placement-new
 * into it and call the destructor themselves before deallocate().
 */
template <typename T, std::size_t ChunkSlots = 256>
class Pool
{
  public:
    Pool() = default;
    Pool(const Pool &) = delete;
    Pool &operator=(const Pool &) = delete;

    ~Pool()
    {
        for (Slot *chunk : chunks_)
            ::operator delete[](chunk, std::align_val_t{alignof(Slot)});
    }

    /** Uninitialized storage for one T. */
    T *
    allocate()
    {
        if (free_ == nullptr)
            grow();
        Slot *s = free_;
        free_ = s->next;
        ++live_;
        return reinterpret_cast<T *>(s);
    }

    /** Return storage (T already destroyed) to the free list. */
    void
    deallocate(T *p)
    {
        auto *s = reinterpret_cast<Slot *>(p);
        s->next = free_;
        free_ = s;
        simAssert(live_ > 0, "Pool::deallocate without allocate");
        --live_;
    }

    /** Slots currently handed out. */
    std::size_t liveCount() const { return live_; }

    /** Total slots ever reserved from the OS. */
    std::size_t capacity() const { return chunks_.size() * ChunkSlots; }

  private:
    union Slot
    {
        Slot *next;
        alignas(T) std::byte storage[sizeof(T)];
    };

    void
    grow()
    {
        Slot *chunk = static_cast<Slot *>(::operator new[](
            sizeof(Slot) * ChunkSlots, std::align_val_t{alignof(Slot)}));
        chunks_.push_back(chunk);
        for (std::size_t i = ChunkSlots; i-- > 0;) {
            chunk[i].next = free_;
            free_ = &chunk[i];
        }
    }

    std::vector<Slot *> chunks_;
    Slot *free_ = nullptr;
    std::size_t live_ = 0;
};

/**
 * FIFO queue of T backed by a `Pool`.
 *
 * Drop-in for the std::deque subset that retransmission queues,
 * channel buffers and softirq mailboxes use: push_back / emplace_back /
 * front / pop_front / empty / size.  The
 * pool may be shared by many queues (one per connection or core).
 * Owners whose queues are usually short pick a small @p ChunkSlots,
 * so the pool's first chunk stays small too.
 */
template <typename T, std::size_t ChunkSlots = 256>
class PooledFifo
{
  public:
    struct Node
    {
        T value;
        Node *next;
    };

    using NodePool = Pool<Node, ChunkSlots>;

    explicit PooledFifo(NodePool &pool) : pool_(pool) {}

    /** Takes over @p o's nodes (same pool) and leaves @p o empty. */
    PooledFifo(PooledFifo &&o) noexcept
        : pool_(o.pool_), head_(o.head_), tail_(o.tail_), size_(o.size_)
    {
        o.head_ = o.tail_ = nullptr;
        o.size_ = 0;
    }

    PooledFifo(const PooledFifo &) = delete;
    PooledFifo &operator=(const PooledFifo &) = delete;

    ~PooledFifo() { clear(); }

    bool empty() const { return head_ == nullptr; }
    std::size_t size() const { return size_; }

    T &
    front()
    {
        simAssert(head_ != nullptr, "PooledFifo::front on empty queue");
        return head_->value;
    }

    const T &
    front() const
    {
        simAssert(head_ != nullptr, "PooledFifo::front on empty queue");
        return head_->value;
    }

    void push_back(T value) { emplace_back(std::move(value)); }

    /** Construct the new back element in its node, from @p args. */
    template <typename... Args>
    void
    emplace_back(Args &&...args)
    {
        Node *n = pool_.allocate();
        ::new (static_cast<void *>(n))
            Node{T{std::forward<Args>(args)...}, nullptr};
        if (tail_ != nullptr)
            tail_->next = n;
        else
            head_ = n;
        tail_ = n;
        ++size_;
    }

    void
    pop_front()
    {
        simAssert(head_ != nullptr, "PooledFifo::pop_front on empty queue");
        Node *n = head_;
        head_ = n->next;
        if (head_ == nullptr)
            tail_ = nullptr;
        n->~Node();
        pool_.deallocate(n);
        --size_;
    }

    void
    clear()
    {
        while (head_ != nullptr)
            pop_front();
    }

  private:
    NodePool &pool_;
    Node *head_ = nullptr;
    Node *tail_ = nullptr;
    std::size_t size_ = 0;
};

/**
 * Recycler for `std::vector<T>` buffers.
 *
 * acquire() hands back a previously-released vector with its capacity
 * intact (cleared), so steady-state producers reuse the same handful
 * of allocations instead of growing a fresh vector per batch.
 */
template <typename T>
class VectorPool
{
  public:
    VectorPool() = default;
    VectorPool(const VectorPool &) = delete;
    VectorPool &operator=(const VectorPool &) = delete;

    std::vector<T>
    acquire()
    {
        if (spare_.empty())
            return {};
        std::vector<T> v = std::move(spare_.back());
        spare_.pop_back();
        return v;
    }

    void
    release(std::vector<T> &&v)
    {
        if (spare_.size() >= kMaxSpare)
            return; // let it free; keeps the pool bounded
        v.clear();
        spare_.push_back(std::move(v));
    }

    std::size_t spareCount() const { return spare_.size(); }

  private:
    static constexpr std::size_t kMaxSpare = 64;

    std::vector<std::vector<T>> spare_;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_POOL_HH
