/**
 * @file
 * Property tests for the calendar/timer-wheel event queue.
 *
 * Randomized schedule / cancel / pop sequences are cross-checked
 * against a reference model (a `std::multimap`, whose equal-key
 * insertion order is the same-tick FIFO contract).  Delay
 * distributions are chosen to hit every residence class: same-tick
 * posts, the L0 one-tick buckets, the L1/L2 coarse wheels, and the
 * far-horizon overflow heap.
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <random>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "simcore/event_queue.hh"
#include "simcore/types.hh"

using ioat::sim::EventQueue;
using ioat::sim::Tick;

namespace {

/** Reference model: multimap keeps FIFO order within a tick. */
class ModelQueue
{
  public:
    void
    schedule(Tick when, int id)
    {
        auto it = events_.emplace(when, id);
        byId_.emplace(id, it);
    }

    bool
    cancel(int id)
    {
        auto it = byId_.find(id);
        if (it == byId_.end())
            return false;
        events_.erase(it->second);
        byId_.erase(it);
        return true;
    }

    /** Pop the earliest event (FIFO among ties); -1 when empty. */
    int
    pop()
    {
        if (events_.empty())
            return -1;
        auto it = events_.begin();
        const int id = it->second;
        byId_.erase(id);
        events_.erase(it);
        return id;
    }

    Tick
    nextWhen() const
    {
        return events_.empty() ? ioat::sim::kTickMax
                               : events_.begin()->first;
    }

    std::size_t size() const { return events_.size(); }

  private:
    std::multimap<Tick, int> events_;
    std::unordered_map<int, std::multimap<Tick, int>::iterator> byId_;
};

/** Random delay spanning all residence classes of the queue. */
Tick
randomDelay(std::mt19937_64 &rng)
{
    switch (rng() % 5) {
      case 0:
        return Tick{0}; // same-tick post
      case 1:
        return Tick{rng() % 4096}; // L0 window
      case 2:
        return Tick{4096 + rng() % ((std::uint64_t{1} << 20) - 4096)}; // L1
      case 3:
        return Tick{(std::uint64_t{1} << 20) +
                    rng() % ((std::uint64_t{1} << 28) -
                             (std::uint64_t{1} << 20))}; // L2
      default:
        return Tick{(std::uint64_t{1} << 28) +
                    rng() % (std::uint64_t{1} << 34)}; // heap
    }
}

TEST(EventQueueProperty, RandomizedScheduleCancelPopMatchesModel)
{
    for (std::uint64_t seed : {1ull, 7ull, 42ull, 1234567ull}) {
        std::mt19937_64 rng(seed);
        EventQueue q;
        ModelQueue model;
        std::vector<int> fired;
        std::vector<std::pair<int, EventQueue::TimerHandle>> handles;
        int nextId = 0;

        for (int round = 0; round < 200; ++round) {
            // Schedule a burst of events with mixed horizons.
            const int burst = 1 + static_cast<int>(rng() % 16);
            for (int i = 0; i < burst; ++i) {
                const Tick when = q.now() + randomDelay(rng);
                const int id = nextId++;
                handles.emplace_back(
                    id, q.schedule(when, [&fired, id] {
                        fired.push_back(id);
                    }));
                model.schedule(when, id);
            }

            // Cancel a few arbitrary handles (fired, pending, or
            // already-cancelled — the queue must agree with the model
            // on which was which).
            for (int i = 0; i < 3 && !handles.empty(); ++i) {
                const std::size_t pick = rng() % handles.size();
                const int id = handles[pick].first;
                const bool queueSaysLive = q.cancel(handles[pick].second);
                const bool modelSaysLive = model.cancel(id);
                ASSERT_EQ(modelSaysLive, queueSaysLive)
                    << "cancel disagreement on id " << id << " (seed "
                    << seed << ")";
            }

            // Pop a random number of events and check order.
            const int pops = static_cast<int>(rng() % 24);
            for (int i = 0; i < pops; ++i) {
                const Tick expectNext = model.nextWhen();
                if (model.size() == 0) {
                    ASSERT_FALSE(q.runOne());
                    break;
                }
                ASSERT_EQ(expectNext, q.nextEventTick());
                const std::size_t firedBefore = fired.size();
                ASSERT_TRUE(q.runOne());
                ASSERT_EQ(firedBefore + 1, fired.size());
                ASSERT_EQ(model.pop(), fired.back())
                    << "pop order diverged (seed " << seed << ")";
            }
        }

        // Drain: every remaining event must come out in model order.
        while (model.size() > 0) {
            ASSERT_TRUE(q.runOne());
            ASSERT_EQ(model.pop(), fired.back());
        }
        ASSERT_TRUE(q.empty());
        ASSERT_FALSE(q.runOne());
    }
}

TEST(EventQueueProperty, SameTickFifoAcrossAllLevels)
{
    // Many events on few distinct ticks, each tick far enough out to
    // start life in a different level; FIFO must hold per tick even
    // after cascading.
    EventQueue q;
    const Tick base = q.now();
    const std::vector<Tick> ticks = {
        base,                      // immediate
        base + Tick{100},          // L0
        base + Tick{5000},         // L1
        base + Tick{std::uint64_t{1} << 21}, // L2
        base + Tick{std::uint64_t{1} << 29}, // overflow heap
    };
    std::vector<std::pair<Tick, int>> expected;
    std::vector<std::pair<Tick, int>> got;
    std::mt19937_64 rng(99);
    for (int i = 0; i < 500; ++i) {
        const Tick when = ticks[rng() % ticks.size()];
        expected.emplace_back(when, i);
        q.schedule(when, [&got, when, i] { got.emplace_back(when, i); });
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    q.run();
    ASSERT_EQ(expected, got);
}

TEST(EventQueueProperty, ReentrantSchedulingKeepsOrder)
{
    // Callbacks scheduling follow-ups is the simulator's steady state;
    // the model is updated inside the same callback, so both sides
    // assign the same arrival order.
    EventQueue q;
    ModelQueue model;
    std::vector<int> fired;
    std::mt19937_64 rng(7);
    int nextId = 0;

    // Seed events; each fires a chain of up to 3 follow-ups.
    std::function<void(int, int)> fire = [&](int id, int depth) {
        fired.push_back(id);
        if (depth < 3) {
            const Tick when = q.now() + Tick{rng() % 3000};
            const int child = nextId++;
            q.schedule(when,
                       [&fire, child, depth] { fire(child, depth + 1); });
            model.schedule(when, child);
        }
    };
    for (int i = 0; i < 50; ++i) {
        const Tick when = q.now() + Tick{rng() % 2000};
        const int id = nextId++;
        q.schedule(when, [&fire, id] { fire(id, 0); });
        model.schedule(when, id);
    }

    while (model.size() > 0) {
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(model.pop(), fired.back());
    }
    ASSERT_TRUE(q.empty());
}

TEST(EventQueueProperty, CancelledHandleIsInertAfterFire)
{
    EventQueue q;
    int calls = 0;
    auto h = q.scheduleIn(ioat::sim::Tick{10}, [&calls] { ++calls; });
    q.run();
    ASSERT_EQ(1, calls);
    // The event fired; cancelling its stale handle must be a no-op
    // even though the node slot may have been recycled since.
    EXPECT_FALSE(q.cancel(h));
    auto h2 = q.scheduleIn(ioat::sim::Tick{5}, [&calls] { ++calls; });
    EXPECT_FALSE(q.cancel(h));  // doubly stale
    EXPECT_TRUE(q.cancel(h2));  // fresh handle still works
    EXPECT_FALSE(q.cancel(h2)); // but only once
    q.run();
    ASSERT_EQ(1, calls);
}

TEST(EventQueueProperty, OverflowSpillPreservesOrderAcrossRounds)
{
    // Events in several distinct 2^28-tick heap "rounds", scheduled
    // shuffled; the heap must spill them into the wheels round by
    // round without mixing or reordering ties.
    EventQueue q;
    ModelQueue model;
    std::vector<int> fired;
    std::mt19937_64 rng(1717);
    for (int i = 0; i < 300; ++i) {
        const std::uint64_t round = 1 + rng() % 5;
        const Tick when = q.now() +
                          round * Tick{std::uint64_t{1} << 28} +
                          Tick{rng() % 1000};
        q.schedule(when, [&fired, i] { fired.push_back(i); });
        model.schedule(when, i);
    }
    while (model.size() > 0) {
        ASSERT_TRUE(q.runOne());
        ASSERT_EQ(model.pop(), fired.back());
    }
}

TEST(EventQueueProperty, RunUntilAcrossEmptyWindowsThenSchedule)
{
    // runUntil may advance `now` across wheel-window boundaries
    // without popping anything; events scheduled after the jump must
    // still interleave correctly with ones parked before it.
    EventQueue q;
    std::vector<int> fired;
    // Parked while far away: lives in L1/L2 at schedule time.
    q.schedule(q.now() + Tick{6000}, [&fired] { fired.push_back(1); });
    q.schedule(q.now() + Tick{std::uint64_t{1} << 22},
               [&fired] { fired.push_back(2); });
    // Jump to just before the first event, crossing the L0 window.
    q.runUntil(q.now() + Tick{5990});
    ASSERT_TRUE(fired.empty());
    // Now schedule something *earlier* than the parked event.
    q.schedule(q.now() + Tick{5}, [&fired] { fired.push_back(0); });
    q.run();
    ASSERT_EQ((std::vector<int>{0, 1, 2}), fired);
    ASSERT_TRUE(q.empty());
}

// ---- in-place invocation --------------------------------------------
//
// Callbacks run inside their own event node; the node is recycled only
// after the callback returns.  These pin what a running callback may
// do to the queue (and to itself) under that contract.

TEST(EventQueueInPlace, CallbackCancellingItsOwnHandleGetsFalse)
{
    EventQueue q;
    EventQueue::TimerHandle self;
    int calls = 0;
    bool cancelled = true;
    self = q.scheduleIn(Tick{3}, [&] {
        ++calls;
        cancelled = q.cancel(self);
    });
    q.run();
    EXPECT_EQ(1, calls);
    EXPECT_FALSE(cancelled);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueInPlace, PostAtNowRunsAfterTheRunningCallback)
{
    EventQueue q;
    std::vector<int> order;
    q.scheduleIn(Tick{5}, [&] {
        order.push_back(1);
        q.post([&] { order.push_back(3); });
        order.push_back(2);
    });
    q.scheduleIn(Tick{5}, [&] { order.push_back(4); });
    q.run();
    // The post joins tick 5 behind the already-queued tie.
    EXPECT_EQ((std::vector<int>{1, 2, 4, 3}), order);
    EXPECT_EQ(Tick{5}, q.now());
}

TEST(EventQueueInPlace, CallbackOutlivesArenaGrowthItTriggers)
{
    // Scheduling from inside a callback may grow the node arena; the
    // running callable's own captures must stay intact meanwhile.
    EventQueue q;
    std::array<std::uint64_t, 12> payload{};
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = 0x9e3779b97f4a7c15ull * (i + 1);
    std::uint64_t seen = 0;
    int children = 0;
    q.schedule(Tick{1}, [&q, &seen, &children, payload] {
        for (int i = 0; i < 2000; ++i)
            q.scheduleIn(Tick{static_cast<std::uint64_t>(i % 50)},
                         [&children] { ++children; });
        for (const std::uint64_t v : payload)
            seen ^= v;
    });
    q.run();
    std::uint64_t want = 0;
    for (const std::uint64_t v : payload)
        want ^= v;
    EXPECT_EQ(want, seen);
    EXPECT_EQ(2000, children);
}

TEST(EventQueueInPlace, CallbackCallingClearIsSafe)
{
    EventQueue q;
    std::vector<int> fired;
    const std::vector<int> tail{7, 8, 9};
    q.scheduleIn(Tick{1}, [&q, &fired, tail] {
        fired.push_back(1);
        q.clear(); // drops 2 and 3, not the running event
        // The running callable (and its captures) survive the clear.
        fired.insert(fired.end(), tail.begin(), tail.end());
        q.post([&fired] { fired.push_back(4); });
    });
    q.scheduleIn(Tick{1}, [&fired] { fired.push_back(2); });
    q.scheduleIn(Tick{50000}, [&fired] { fired.push_back(3); });
    q.run();
    EXPECT_EQ((std::vector<int>{1, 7, 8, 9, 4}), fired);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueueInPlace, StaleHandleStaysStaleAfterNodeReuse)
{
    EventQueue q;
    int firstCalls = 0;
    int secondCalls = 0;
    EventQueue::TimerHandle first =
        q.scheduleIn(Tick{1}, [&firstCalls] { ++firstCalls; });
    q.run();
    ASSERT_EQ(1, firstCalls);
    // The arena's free list is LIFO, so this reuses the fired node.
    EventQueue::TimerHandle second =
        q.scheduleIn(Tick{1}, [&secondCalls] { ++secondCalls; });
    EXPECT_FALSE(q.cancel(first));
    EXPECT_EQ(1u, q.size());
    q.run();
    EXPECT_EQ(1, secondCalls);
    EXPECT_FALSE(q.cancel(second));
}

// tailPost runs a same-tick continuation inline exactly when a post()
// of it would be the next event to run anyway.

TEST(EventQueueTailPost, BlockedByPendingSameLaneEventAtNow)
{
    EventQueue q;
    std::vector<int> order;
    bool inline_run = false;
    q.scheduleIn(Tick{5}, [&] {
        order.push_back(1);
        q.post([&] { order.push_back(2); });
        q.tailPost([&] { order.push_back(3); });
        inline_run = order.back() == 3;
    });
    q.run();
    EXPECT_FALSE(inline_run);
    EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
    EXPECT_EQ(3u, q.executedEvents());
    EXPECT_EQ(Tick{5}, q.now());
}

TEST(EventQueueTailPost, BlockedByLowerLaneEventAtNow)
{
    EventQueue q;
    std::vector<int> order;
    bool inline_run = false;
    q.scheduleLane(Tick{5}, 3, [&] {
        order.push_back(1);
        q.scheduleLane(q.now(), 1, [&] { order.push_back(2); });
        q.tailPost([&] { order.push_back(3); });
        inline_run = order.back() == 3;
    });
    q.run();
    EXPECT_FALSE(inline_run);
    EXPECT_EQ((std::vector<int>{1, 2, 3}), order);
    EXPECT_EQ(3u, q.executedEvents());
}

TEST(EventQueueTailPost, RunsInlineWhenOnlyHigherLanesArePending)
{
    EventQueue q;
    std::vector<int> order;
    bool inline_run = false;
    std::uint32_t lane_seen = 0;
    q.scheduleLane(Tick{5}, 4, [&] { order.push_back(4); });
    q.scheduleLane(Tick{6}, 0, [&] { order.push_back(5); });
    q.scheduleLane(Tick{5}, 2, [&] {
        order.push_back(1);
        q.tailPost([&] {
            order.push_back(2);
            lane_seen = q.currentLane();
        });
        inline_run = order.back() == 2;
    });
    q.run();
    EXPECT_TRUE(inline_run);
    EXPECT_EQ(2u, lane_seen);
    EXPECT_EQ((std::vector<int>{1, 2, 4, 5}), order);
    // The inline run still counts as the event a post would have been.
    EXPECT_EQ(4u, q.executedEvents());
    EXPECT_EQ(0u, q.size());
}

TEST(EventQueueTailPost, OutsideAnEventItPosts)
{
    EventQueue q;
    int runs = 0;
    q.tailPost([&runs] { ++runs; });
    EXPECT_EQ(0, runs);
    EXPECT_EQ(1u, q.size());
    q.run();
    EXPECT_EQ(1, runs);
    EXPECT_EQ(1u, q.executedEvents());
}

namespace tailpost_diff {

/** One executed event: (id, tick, lane). */
using Trace = std::vector<std::array<std::uint64_t, 3>>;

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return x;
}

/**
 * Random multi-lane workload whose every decision hangs off the event
 * id, so a reordering shows up in the trace instead of being masked.
 * Each event schedules a few children (same tick, near, or far; its
 * own lane or another), then usually ends with a same-tick
 * continuation — through tailPost() or post() depending on @p tail.
 */
struct Run
{
    EventQueue q;
    bool tail;
    Trace trace;
    std::uint64_t folds = 0;
    std::uint64_t posts = 0;
    bool pending = false; ///< set around the tailPost call

    explicit Run(bool t) : tail(t) {}

    void
    event(std::uint64_t id, unsigned depth)
    {
        if (tail && pending) {
            ++folds;
            pending = false;
        }
        trace.push_back({id, q.now().count(), q.currentLane()});
        if (depth >= 24)
            return;
        const std::uint64_t h = mix(id);
        // Few generations of children, but continuation chains long
        // enough to reach tailPost's nesting cap.
        const unsigned kids = depth < 6 ? static_cast<unsigned>(h % 3) : 0;
        for (unsigned k = 0; k < kids; ++k) {
            const std::uint64_t kh = mix(h + k + 1);
            const std::uint64_t child = id * 8 + k;
            Tick when = q.now();
            if (kh % 4 == 1)
                when += Tick{1 + kh % 7};
            else if (kh % 4 == 2)
                when += Tick{5000 + kh % 3000};
            auto fn = [this, child, depth] { event(child, depth + 1); };
            if ((kh >> 8) % 2 == 0)
                q.schedule(when, fn);
            else
                q.scheduleLane(when,
                               static_cast<std::uint32_t>((kh >> 9) % 4),
                               fn);
        }
        if ((h >> 16) % 8 == 0)
            return;
        const std::uint64_t cont = id * 8 + 7;
        auto fn = [this, cont, depth] { event(cont, depth + 1); };
        if (tail) {
            pending = true;
            q.tailPost(fn);
            if (pending) {
                ++posts;
                pending = false;
            }
        } else {
            q.post(fn);
        }
    }
};

} // namespace tailpost_diff

TEST(EventQueueTailPost, SameTraceAsPostOnRandomSchedules)
{
    std::uint64_t folds = 0;
    std::uint64_t posts = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        tailpost_diff::Run a(false);
        tailpost_diff::Run b(true);
        for (tailpost_diff::Run *r : {&a, &b}) {
            for (std::uint64_t i = 0; i < 12; ++i) {
                const std::uint64_t h = tailpost_diff::mix(seed * 131 + i);
                const std::uint64_t id = seed * 1000 + i;
                r->q.scheduleLane(Tick{h % 4}, static_cast<std::uint32_t>(
                                                   (h >> 8) % 4),
                                  [r, id] { r->event(id, 0); });
            }
            r->q.run();
        }
        ASSERT_EQ(a.trace, b.trace) << "seed " << seed;
        ASSERT_EQ(a.q.executedEvents(), b.q.executedEvents());
        ASSERT_EQ(a.trace.size(), b.q.executedEvents());
        folds += b.folds;
        posts += b.posts;
    }
    // Both branches of tailPost were exercised.
    EXPECT_GT(folds, 100u);
    EXPECT_GT(posts, 100u);
}

} // namespace
