/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are arbitrary callables scheduled at an absolute Tick.  Ties
 * are broken by a (lane, sequence) key so simulations are fully
 * deterministic *and* partition-invariant: a lane is a node-confined
 * scheduling stream (lane = NodeId + 1; lane 0 is the driver/default),
 * each lane has its own monotonic sequence counter, and an event's
 * key is fixed at schedule time.  Because a lane's sequence draws all
 * happen inside that one node's deterministic execution, the key an
 * event gets does not depend on how nodes are partitioned across
 * shards — which is what lets the sharded engine (simcore/shard.hh)
 * merge cross-shard events at horizon barriers in an order identical
 * to the single-queue run.  With everything on lane 0 (the default),
 * keys reduce to plain insertion order, the historical contract.
 * The queue itself is strictly single-threaded; parallelism happens
 * one queue per shard, above this layer.
 *
 * Internally this is a three-level calendar / timer-wheel hybrid with
 * a far-horizon overflow heap, replacing the original binary heap:
 *
 *  - L0: 2^12 one-tick buckets covering the 4096 ns around `now` —
 *    O(1) schedule and pop for the NIC/TCP traffic that dominates
 *    event counts, located through a two-level occupancy bitmap.
 *  - L1: 256 buckets of 4096 ticks (≈1 ms span) for segment wire
 *    times, coalescing timers and softirq latencies.
 *  - L2: 256 buckets of 2^20 ticks (≈268 ms span) for RTO/watchdog
 *    timers and bench measurement windows.
 *  - Overflow heap, keyed (when, lane, seq), for anything further out.
 *
 * Buckets hold intrusive doubly-linked key-sorted lists of
 * pool-allocated nodes, so steady-state scheduling performs no heap
 * allocation and same-tick (lane, seq) order (the determinism
 * contract) is structural.
 * Events cascade level-by-level as `now` approaches them; each event
 * cascades at most three times, so scheduling stays amortized O(1).
 *
 * Every schedule returns a TimerHandle that can cancel the event in
 * O(1) before it fires (lazily for heap residents), which is what the
 * timeout/RTO machinery in simcore/timeout.hh is built on.
 */

#ifndef IOAT_SIMCORE_EVENT_QUEUE_HH
#define IOAT_SIMCORE_EVENT_QUEUE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "simcore/assert.hh"
#include "simcore/smallfn.hh"
#include "simcore/types.hh"

namespace ioat::sim {

/**
 * A time-ordered queue of callbacks.
 *
 * `now()` only moves forward; scheduling in the past is a simulator
 * bug and panics.
 */
class EventQueue
{
    struct Node;

  public:
    /**
     * Names a scheduled event so it can be cancelled.  Generation
     * counted: a handle to an event that already fired (or whose node
     * was recycled) cancels as a harmless no-op.
     */
    class TimerHandle
    {
      public:
        TimerHandle() = default;

        /** True if the handle was ever armed (not: still pending). */
        explicit operator bool() const { return node_ != nullptr; }

      private:
        friend class EventQueue;

        TimerHandle(Node *node, std::uint32_t gen)
            : node_(node), gen_(gen)
        {}

        Node *node_ = nullptr;
        std::uint32_t gen_ = 0;
    };

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    ~EventQueue()
    {
        clear();
        for (Node *chunk : chunks_)
            // simlint: allow(raw-new) node-arena chunk teardown
            delete[] chunk;
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /**
     * Lane of the event currently executing (0 between events).
     * Events scheduled while another event runs inherit this, so a
     * node's activity stays on that node's lane without plumbing.
     */
    std::uint32_t currentLane() const { return currentLane_; }

    /**
     * Draw the next sequence number on @p lane.  Public so the shard
     * engine can fix a cross-shard event's key on the *source* shard
     * (where the draw is deterministic) before mailing it.
     */
    std::uint64_t
    drawSeq(std::uint32_t lane)
    {
        if (lane >= laneSeq_.size())
            laneSeq_.resize(lane + 1, 0);
        return laneSeq_[lane]++;
    }

    /** Schedule @p fn to run at absolute time @p when. */
    template <typename F>
    TimerHandle
    schedule(Tick when, F &&fn)
    {
        return injectKeyed(when, currentLane_, drawSeq(currentLane_),
                           currentLane_, std::forward<F>(fn));
    }

    /**
     * Schedule with an explicit lane (priority and execution): the
     * entry point for node-affine work (Node::spawn) where the caller
     * is the lane-0 driver but the activity belongs to a node.
     */
    template <typename F>
    TimerHandle
    scheduleLane(Tick when, std::uint32_t lane, F &&fn)
    {
        return injectKeyed(when, lane, drawSeq(lane), lane,
                           std::forward<F>(fn));
    }

    /**
     * Schedule across a node boundary: the key is drawn on the sender
     * lane @p prioLane (so it is fixed by the sender's deterministic
     * stream) while the callback executes under @p execLane (the
     * receiver).  The switch uses this for every forwarded burst.
     */
    template <typename F>
    TimerHandle
    scheduleCross(Tick when, std::uint32_t prioLane,
                  std::uint32_t execLane, F &&fn)
    {
        return injectKeyed(when, prioLane, drawSeq(prioLane), execLane,
                           std::forward<F>(fn));
    }

    /**
     * Insert an event whose full key (when, lane, seq) was already
     * drawn elsewhere — on another shard's queue, for cross-shard
     * mailbox delivery at a horizon barrier.  Injection *order* is
     * irrelevant: the key alone decides execution order.
     */
    template <typename F>
    TimerHandle
    injectKeyed(Tick when, std::uint32_t lane, std::uint64_t seq,
                std::uint32_t execLane, F &&fn)
    {
        simAssert(when >= now_, "event scheduled in the past");
        Node *n = allocNode();
        n->when = when;
        n->seq = seq;
        n->lane = lane;
        n->execLane = execLane;
        n->fn.emplace(std::forward<F>(fn));
        place(n);
        ++size_;
        return TimerHandle(n, n->gen);
    }

    /** Schedule @p fn to run @p delay ticks from now. */
    template <typename F>
    TimerHandle
    scheduleIn(Tick delay, F &&fn)
    {
        return schedule(now_ + delay, std::forward<F>(fn));
    }

    /** Schedule @p fn at the current time (after already-queued ties). */
    template <typename F>
    TimerHandle
    post(F &&fn)
    {
        return schedule(now_, std::forward<F>(fn));
    }

    /**
     * Run @p fn at the current time, as the caller's last action.
     *
     * Same order as post(fn), but @p fn runs inline when nothing
     * pending would run between the current event and the post: the
     * bucket of `now` is empty, or its head is on a higher lane than
     * currentLane() (a same-lane event already queued at `now` drew a
     * lower sequence and must run first).  Otherwise, outside an event
     * callback, or too deeply nested, it falls back to post().
     *
     * The caller must do nothing after tailPost: work it did after an
     * inline run would come after @p fn's, where a post would have put
     * it before.  An inline run counts in executedEvents() exactly as
     * the posted event would have.
     */
    template <typename F>
    void
    tailPost(F &&fn)
    {
        const Node *head = l0_[now_.count() & kL0Mask].head;
        if (depth_ != 0 && depth_ < kMaxTailDepth &&
            (head == nullptr || head->lane > currentLane_)) {
            ++executed_;
            ++depth_;
            fn();
            --depth_;
            return;
        }
        post(std::forward<F>(fn));
    }

    /**
     * Cancel a pending event.
     * @return true if the event was still pending and is now dropped;
     *         false if it already fired, was already cancelled, or the
     *         handle was never armed.
     */
    bool
    cancel(TimerHandle &h)
    {
        Node *n = h.node_;
        if (n == nullptr || n->gen != h.gen_) {
            h = TimerHandle();
            return false;
        }
        h = TimerHandle();
        const std::uint64_t w = n->when.count();
        switch (n->where) {
          case Where::L0:
            listRemove(l0_[w & kL0Mask], n);
            if (l0_[w & kL0Mask].head == nullptr)
                l0Clear(static_cast<unsigned>(w & kL0Mask));
            --l0Count_;
            break;
          case Where::L1:
            listRemove(l1_[(w >> kL0Bits) & kLvlMask], n);
            if (l1_[(w >> kL0Bits) & kLvlMask].head == nullptr)
                bmClear(l1Bits_, (w >> kL0Bits) & kLvlMask);
            --l1Count_;
            break;
          case Where::L2:
            listRemove(l2_[(w >> kL1Shift) & kLvlMask], n);
            if (l2_[(w >> kL1Shift) & kLvlMask].head == nullptr)
                bmClear(l2Bits_, (w >> kL1Shift) & kLvlMask);
            --l2Count_;
            break;
          case Where::Heap:
            // The heap vector holds a raw pointer we cannot cheaply
            // remove; drop the payload now, free the node on pop.
            n->fn.reset();
            ++n->gen; // invalidate any other copies of the handle
            n->where = Where::HeapDead;
            --heapLive_;
            --size_;
            return true;
          default:
            return false; // not reachable with a gen-valid handle
        }
        freeNode(n);
        --size_;
        return true;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Time of the earliest pending event; kTickMax when empty. */
    Tick
    nextEventTick() const
    {
        if (l0Count_ > 0)
            return Tick{(now_.count() & ~kL0Mask) | l0First()};
        if (l1Count_ > 0)
            return listMinWhen(l1_[bmFirst(l1Bits_)]);
        if (l2Count_ > 0)
            return listMinWhen(l2_[bmFirst(l2Bits_)]);
        purgeDeadHeapTops();
        if (!heap_.empty())
            return heap_.top()->when;
        return kTickMax;
    }

    /**
     * Run the single earliest event.
     * @return true if an event ran, false if the queue was empty.
     */
    bool
    runOne()
    {
        Node *n = takeEarliest();
        if (n == nullptr)
            return false;
        now_ = n->when;
        ++executed_;
        --size_;
        dispatch(n);
        return true;
    }

    /**
     * Run events until the queue drains or @p limit events have run.
     * @return number of events executed.
     */
    std::uint64_t
    run(std::uint64_t limit = ~std::uint64_t{0})
    {
        std::uint64_t n = 0;
        while (n < limit && runOne())
            ++n;
        return n;
    }

    /**
     * Run all events with time <= @p until, then advance now() to
     * @p until even if the queue drained earlier.
     */
    void
    runUntil(Tick until)
    {
        for (;;) {
            // Fast path: earliest event is in L0 (the common case in
            // steady state).  Its tick is computable straight from the
            // occupancy bitmap, skipping the generic peek-then-pop.
            if (l0Count_ > 0) {
                const unsigned idx = l0First();
                const Tick when{(now_.count() & ~kL0Mask) | idx};
                if (when > until)
                    break;
                Node *n = l0_[idx].head;
                listRemove(l0_[idx], n);
                if (l0_[idx].head == nullptr)
                    l0Clear(idx);
                --l0Count_;
                now_ = when;
                ++executed_;
                --size_;
                dispatch(n);
                continue;
            }
            if (nextEventTick() > until)
                break;
            runOne();
        }
        if (until > now_) {
            now_ = until;
            // `now` may have crossed wheel-window boundaries without
            // running an event; pull newly-near events inward so the
            // placement invariants keep holding for future schedules.
            syncWheels();
        }
    }

    /** Run for @p duration ticks past the current time. */
    void runFor(Tick duration) { runUntil(now_ + duration); }

    /** Drop all pending events without running them. */
    void
    clear()
    {
        for (auto &bucket : l0_)
            freeList(bucket);
        for (auto &bucket : l1_)
            freeList(bucket);
        for (auto &bucket : l2_)
            freeList(bucket);
        for (auto &word : l0Words_)
            word = 0;
        l0Summary_ = 0;
        l1Bits_[0] = l1Bits_[1] = l1Bits_[2] = l1Bits_[3] = 0;
        l2Bits_[0] = l2Bits_[1] = l2Bits_[2] = l2Bits_[3] = 0;
        l0Count_ = l1Count_ = l2Count_ = 0;
        while (!heap_.empty()) {
            Node *n = heap_.top();
            heap_.pop();
            if (n->where == Where::Heap)
                n->fn.reset();
            freeNode(n);
        }
        heapLive_ = 0;
        size_ = 0;
    }

    /** Total number of events executed since construction. */
    std::uint64_t executedEvents() const { return executed_; }

    /** @name Wheel-occupancy introspection
     * Pending-event counts per calendar level, for the engine
     * telemetry snapshots (telemetry/snapshot.hh).  Read-only: which
     * level an event sits on is a cascading detail, so these are
     * wall-clock-ish engine facts, not model state.
     *  @{ */
    std::size_t l0Depth() const { return l0Count_; }
    std::size_t l1Depth() const { return l1Count_; }
    std::size_t l2Depth() const { return l2Count_; }
    std::size_t heapDepth() const { return heapLive_; }
    /** @} */

  private:
    /** @name Geometry
     *  @{ */
    static constexpr unsigned kL0Bits = 12; ///< 4096 one-tick buckets
    static constexpr std::uint64_t kL0Mask =
        (std::uint64_t{1} << kL0Bits) - 1;
    static constexpr unsigned kLvlBits = 8; ///< 256 buckets per level
    static constexpr unsigned kLvlMask = (1u << kLvlBits) - 1;
    static constexpr unsigned kL1Shift = kL0Bits + kLvlBits;  ///< 20
    static constexpr unsigned kL2Shift = kL1Shift + kLvlBits; ///< 28
    /** @} */

    enum class Where : std::uint8_t {
        Free = 0,
        L0,
        L1,
        L2,
        Heap,
        HeapDead, ///< cancelled while heap-resident; freed on pop
    };

    struct Node
    {
        Tick when{};
        std::uint64_t seq = 0;
        Node *prev = nullptr;
        Node *next = nullptr;
        std::uint32_t gen = 0;
        Where where = Where::Free;
        /** Priority lane: same-tick ties order by (lane, seq). */
        std::uint32_t lane = 0;
        /** Lane exposed as currentLane() while the callback runs. */
        std::uint32_t execLane = 0;
        SmallFn fn;
    };

    struct List
    {
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    /** The total order: (when, lane, seq). */
    static bool
    keyLess(const Node *a, const Node *b)
    {
        if (a->when != b->when)
            return a->when < b->when;
        if (a->lane != b->lane)
            return a->lane < b->lane;
        return a->seq < b->seq;
    }

    struct HeapCmp
    {
        bool
        operator()(const Node *a, const Node *b) const
        {
            return keyLess(b, a);
        }
    };

    // ---- node arena -------------------------------------------------

    Node *
    allocNode()
    {
        if (freeHead_ == nullptr) {
            // simlint: allow(raw-new) this IS the node arena
            Node *chunk = new Node[kChunkNodes];
            chunks_.push_back(chunk);
            for (std::size_t i = kChunkNodes; i-- > 0;) {
                chunk[i].next = freeHead_;
                freeHead_ = &chunk[i];
            }
        }
        Node *n = freeHead_;
        freeHead_ = n->next;
        n->prev = n->next = nullptr;
        return n;
    }

    /**
     * Run an unlinked node's callback where it lies, then recycle the
     * node.  The generation moves first, so a handle to the running
     * event cancels as a no-op; the node joins the free list only once
     * the callback returns, so nothing it schedules can reuse the slot
     * (or the storage of the callable being run).
     */
    void
    dispatch(Node *n)
    {
        ++n->gen;
        currentLane_ = n->execLane;
        ++depth_;
        n->fn();
        --depth_;
        currentLane_ = 0;
        freeNode(n);
    }

    /** Return a node (fn already empty or reset here) to the arena. */
    void
    freeNode(Node *n) const
    {
        n->fn.reset();
        ++n->gen; // invalidates all outstanding handles to this slot
        n->where = Where::Free;
        n->prev = nullptr;
        n->next = freeHead_;
        freeHead_ = n;
    }

    // ---- intrusive bucket lists ------------------------------------

    /**
     * Insert in key order.  Local schedules draw ascending seqs, so
     * the scan from the tail is O(1) in steady state; only barrier
     * injection of foreign-lane keys ever walks further.
     */
    static void
    listInsert(List &l, Node *n)
    {
        Node *cur = l.tail;
        while (cur != nullptr && keyLess(n, cur))
            cur = cur->prev;
        n->prev = cur;
        if (cur != nullptr) {
            n->next = cur->next;
            cur->next = n;
        } else {
            n->next = l.head;
            l.head = n;
        }
        if (n->next != nullptr)
            n->next->prev = n;
        else
            l.tail = n;
    }

    static void
    listRemove(List &l, Node *n)
    {
        if (n->prev != nullptr)
            n->prev->next = n->next;
        else
            l.head = n->next;
        if (n->next != nullptr)
            n->next->prev = n->prev;
        else
            l.tail = n->prev;
    }

    /** Earliest `when` in an (unsorted across ticks) bucket list. */
    static Tick
    listMinWhen(const List &l)
    {
        Tick min = kTickMax;
        for (const Node *n = l.head; n != nullptr; n = n->next)
            if (n->when < min)
                min = n->when;
        return min;
    }

    void
    freeList(List &l)
    {
        Node *n = l.head;
        while (n != nullptr) {
            Node *next = n->next;
            freeNode(n);
            n = next;
        }
        l.head = l.tail = nullptr;
    }

    // ---- occupancy bitmaps -----------------------------------------

    void
    l0Set(unsigned idx)
    {
        l0Words_[idx >> 6] |= std::uint64_t{1} << (idx & 63);
        l0Summary_ |= std::uint64_t{1} << (idx >> 6);
    }

    void
    l0Clear(unsigned idx)
    {
        const unsigned w = idx >> 6;
        l0Words_[w] &= ~(std::uint64_t{1} << (idx & 63));
        if (l0Words_[w] == 0)
            l0Summary_ &= ~(std::uint64_t{1} << w);
    }

    /** Index of the first occupied L0 bucket (l0Count_ > 0). */
    unsigned
    l0First() const
    {
        const unsigned w =
            static_cast<unsigned>(__builtin_ctzll(l0Summary_));
        return (w << 6) +
               static_cast<unsigned>(__builtin_ctzll(l0Words_[w]));
    }

    static void
    bmSet(std::uint64_t *bits, std::uint64_t idx)
    {
        bits[idx >> 6] |= std::uint64_t{1} << (idx & 63);
    }

    static void
    bmClear(std::uint64_t *bits, std::uint64_t idx)
    {
        bits[idx >> 6] &= ~(std::uint64_t{1} << (idx & 63));
    }

    /** First set bit in a 256-bit map (caller knows one is set). */
    static unsigned
    bmFirst(const std::uint64_t *bits)
    {
        for (unsigned w = 0;; ++w)
            if (bits[w] != 0)
                return (w << 6) + static_cast<unsigned>(
                                      __builtin_ctzll(bits[w]));
    }

    // ---- placement and cascading -----------------------------------

    /**
     * File a node by distance from `now`.  The level windows are the
     * aligned ranges containing `now`, so membership is a shift
     * compare, and every pending event in a nearer level sorts before
     * every event in a farther one.
     */
    void
    place(Node *n)
    {
        const std::uint64_t when = n->when.count();
        const std::uint64_t nw = now_.count();
        if ((when >> kL0Bits) == (nw >> kL0Bits)) {
            n->where = Where::L0;
            const auto idx = static_cast<unsigned>(when & kL0Mask);
            listInsert(l0_[idx], n);
            l0Set(idx);
            ++l0Count_;
        } else if ((when >> kL1Shift) == (nw >> kL1Shift)) {
            n->where = Where::L1;
            const auto idx =
                static_cast<unsigned>((when >> kL0Bits) & kLvlMask);
            listInsert(l1_[idx], n);
            bmSet(l1Bits_, idx);
            ++l1Count_;
        } else if ((when >> kL2Shift) == (nw >> kL2Shift)) {
            n->where = Where::L2;
            const auto idx =
                static_cast<unsigned>((when >> kL1Shift) & kLvlMask);
            listInsert(l2_[idx], n);
            bmSet(l2Bits_, idx);
            ++l2Count_;
        } else {
            n->where = Where::Heap;
            heap_.push(n);
            ++heapLive_;
        }
    }

    /** Move one L1 bucket down into L0 (order-preserving). */
    void
    cascadeL1(unsigned idx)
    {
        Node *n = l1_[idx].head;
        l1_[idx].head = l1_[idx].tail = nullptr;
        bmClear(l1Bits_, idx);
        while (n != nullptr) {
            Node *next = n->next;
            n->where = Where::L0;
            const auto slot =
                static_cast<unsigned>(n->when.count() & kL0Mask);
            listInsert(l0_[slot], n);
            l0Set(slot);
            --l1Count_;
            ++l0Count_;
            n = next;
        }
    }

    /** Move one L2 bucket down into L1 (order-preserving). */
    void
    cascadeL2(unsigned idx)
    {
        Node *n = l2_[idx].head;
        l2_[idx].head = l2_[idx].tail = nullptr;
        bmClear(l2Bits_, idx);
        while (n != nullptr) {
            Node *next = n->next;
            n->where = Where::L1;
            const auto slot = static_cast<unsigned>(
                (n->when.count() >> kL0Bits) & kLvlMask);
            listInsert(l1_[slot], n);
            bmSet(l1Bits_, slot);
            --l2Count_;
            ++l1Count_;
            n = next;
        }
    }

    void
    purgeDeadHeapTops() const
    {
        while (!heap_.empty() && heap_.top()->where == Where::HeapDead) {
            Node *n = heap_.top();
            heap_.pop();
            freeNode(n);
        }
    }

    /**
     * Move the heap's next 2^28-tick round into the L2/L1/L0 wheels.
     * Pops arrive in (when, lane, seq) order, so the sorted inserts
     * below are O(1) appends.
     */
    void
    refillFromHeap()
    {
        purgeDeadHeapTops();
        if (heap_.empty())
            return;
        const std::uint64_t round = heap_.top()->when.count() >> kL2Shift;
        while (!heap_.empty()) {
            Node *n = heap_.top();
            if (n->where == Where::HeapDead) {
                heap_.pop();
                freeNode(n);
                continue;
            }
            if ((n->when.count() >> kL2Shift) != round)
                break;
            heap_.pop();
            --heapLive_;
            n->where = Where::L2;
            const auto slot = static_cast<unsigned>(
                (n->when.count() >> kL1Shift) & kLvlMask);
            listInsert(l2_[slot], n);
            bmSet(l2Bits_, slot);
            ++l2Count_;
        }
    }

    /** Unlink and return the earliest pending node (or nullptr). */
    Node *
    takeEarliest()
    {
        for (;;) {
            if (l0Count_ > 0) {
                const unsigned idx = l0First();
                Node *n = l0_[idx].head;
                listRemove(l0_[idx], n);
                if (l0_[idx].head == nullptr)
                    l0Clear(idx);
                --l0Count_;
                return n;
            }
            if (l1Count_ > 0) {
                cascadeL1(bmFirst(l1Bits_));
                continue;
            }
            if (l2Count_ > 0) {
                cascadeL2(bmFirst(l2Bits_));
                continue;
            }
            if (heapLive_ > 0) {
                refillFromHeap();
                continue;
            }
            return nullptr;
        }
    }

    /**
     * After `now` jumps forward without running an event (runUntil on
     * a drained window), cascade any buckets whose window `now` just
     * entered, restoring the placement invariants.  Each affected
     * level is provably either empty or already current, so no
     * cross-round mixing can occur.
     */
    void
    syncWheels()
    {
        if (heapLive_ > 0) {
            purgeDeadHeapTops();
            if (!heap_.empty() &&
                (heap_.top()->when.count() >> kL2Shift) ==
                    (now_.count() >> kL2Shift))
                refillFromHeap();
        }
        const auto c = static_cast<unsigned>(
            (now_.count() >> kL1Shift) & kLvlMask);
        if (l2_[c].head != nullptr)
            cascadeL2(c);
        const auto b = static_cast<unsigned>(
            (now_.count() >> kL0Bits) & kLvlMask);
        if (l1_[b].head != nullptr)
            cascadeL1(b);
    }

    static constexpr std::size_t kChunkNodes = 256;

    std::array<List, std::size_t{1} << kL0Bits> l0_{};
    std::array<List, std::size_t{1} << kLvlBits> l1_{};
    std::array<List, std::size_t{1} << kLvlBits> l2_{};
    std::uint64_t l0Words_[(1u << kL0Bits) / 64] = {};
    std::uint64_t l0Summary_ = 0;
    std::uint64_t l1Bits_[4] = {};
    std::uint64_t l2Bits_[4] = {};
    std::size_t l0Count_ = 0;
    std::size_t l1Count_ = 0;
    std::size_t l2Count_ = 0;

    /** Far-horizon overflow; lazily purged of cancelled nodes. */
    mutable std::priority_queue<Node *, std::vector<Node *>, HeapCmp>
        heap_;
    std::size_t heapLive_ = 0;

    std::vector<Node *> chunks_;
    mutable Node *freeHead_ = nullptr;

    Tick now_{};
    /** Per-lane sequence counters (index = lane). */
    std::vector<std::uint64_t> laneSeq_;
    std::uint32_t currentLane_ = 0;
    /** Callbacks on the stack: dispatched events plus inline folds. */
    unsigned depth_ = 0;
    /** Bounds the stack a chain of folds can build. */
    static constexpr unsigned kMaxTailDepth = 16;
    std::uint64_t executed_ = 0;
    std::size_t size_ = 0;
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_EVENT_QUEUE_HH
