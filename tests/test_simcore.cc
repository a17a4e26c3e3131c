/**
 * @file
 * Unit tests for the simulation core: event queue ordering, coroutine
 * semantics, synchronization primitives, channels, RNG/Zipf, stats.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "simcore/simcore.hh"

namespace {

using namespace ioat::sim;

// --------------------------------------------------------------------
// EventQueue
// --------------------------------------------------------------------

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(ioat::sim::Tick{30}, [&] { order.push_back(3); });
    eq.schedule(ioat::sim::Tick{10}, [&] { order.push_back(1); });
    eq.schedule(ioat::sim::Tick{20}, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), ioat::sim::Tick{30});
}

TEST(EventQueue, TiesBreakByInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(ioat::sim::Tick{5}, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsMayScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ioat::sim::Tick{1}, [&] {
        ++fired;
        eq.scheduleIn(ioat::sim::Tick{1}, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), ioat::sim::Tick{2});
}

TEST(EventQueue, RunUntilAdvancesTimeEvenWhenEmpty)
{
    EventQueue eq;
    eq.runUntil(ioat::sim::Tick{1000});
    EXPECT_EQ(eq.now(), ioat::sim::Tick{1000});
}

TEST(EventQueue, RunUntilStopsAtBoundary)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(ioat::sim::Tick{10}, [&] { ++fired; });
    eq.schedule(ioat::sim::Tick{20}, [&] { ++fired; });
    eq.runUntil(ioat::sim::Tick{15});
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), ioat::sim::Tick{15});
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueueDeathTest, SchedulingInThePastPanics)
{
    EventQueue eq;
    eq.schedule(ioat::sim::Tick{10}, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(ioat::sim::Tick{5}, [] {}), "past");
}

// --------------------------------------------------------------------
// Coroutines
// --------------------------------------------------------------------

TEST(Coro, SpawnedTaskRunsAndCompletes)
{
    Simulation sim;
    bool ran = false;
    sim.spawn([](Simulation &s, bool &flag) -> Coro<void> {
        co_await s.delay(ioat::sim::Tick{100});
        flag = true;
    }(sim, ran));
    EXPECT_FALSE(ran);
    sim.run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{100});
    EXPECT_EQ(sim.liveRootTasks(), 0u);
}

TEST(Coro, NestedAwaitPropagatesValues)
{
    Simulation sim;
    int result = 0;

    struct Helper
    {
        static Coro<int>
        inner(Simulation &s)
        {
            co_await s.delay(ioat::sim::Tick{5});
            co_return 21;
        }

        static Coro<void>
        outer(Simulation &s, int &out)
        {
            int a = co_await inner(s);
            int b = co_await inner(s);
            out = a + b;
        }
    };

    sim.spawn(Helper::outer(sim, result));
    sim.run();
    EXPECT_EQ(result, 42);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{10});
}

TEST(Coro, ExceptionsPropagateThroughAwait)
{
    Simulation sim;
    bool caught = false;

    struct Helper
    {
        static Coro<int>
        thrower(Simulation &s)
        {
            co_await s.delay(ioat::sim::Tick{1});
            throw std::runtime_error("boom");
        }

        static Coro<void>
        catcher(Simulation &s, bool &flag)
        {
            try {
                (void)co_await thrower(s);
            } catch (const std::runtime_error &) {
                flag = true;
            }
        }
    };

    sim.spawn(Helper::catcher(sim, caught));
    sim.run();
    EXPECT_TRUE(caught);
}

TEST(Coro, ManyConcurrentTasksInterleaveDeterministically)
{
    Simulation sim;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        sim.spawn([](Simulation &s, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await s.delay(static_cast<Tick>(100 - id));
            ord.push_back(id);
        }(sim, order, i));
    }
    sim.run();
    ASSERT_EQ(order.size(), 10u);
    // Task 9 had the shortest delay, so it finishes first.
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], 9 - i);
}

TEST(Coro, TeardownReleasesSuspendedTasks)
{
    // A task suspended forever must be destroyed with the Simulation
    // (this test is most valuable under ASan).
    auto sim = std::make_unique<Simulation>();
    sim->spawn([](Simulation &s) -> Coro<void> {
        co_await s.delay(seconds(999));
    }(*sim));
    sim->run(1); // start the task, leave it suspended
    EXPECT_EQ(sim->liveRootTasks(), 1u);
    sim.reset(); // must not leak or crash
}

// --------------------------------------------------------------------
// Synchronization
// --------------------------------------------------------------------

TEST(Sync, EventWakesAllWaiters)
{
    Simulation sim;
    Event ev(sim);
    int woke = 0;
    for (int i = 0; i < 3; ++i) {
        sim.spawn([](Event &e, int &n) -> Coro<void> {
            co_await e.wait();
            ++n;
        }(ev, woke));
    }
    sim.run();
    EXPECT_EQ(woke, 0);
    ev.trigger();
    sim.run();
    EXPECT_EQ(woke, 3);
}

TEST(Sync, TriggeredEventDoesNotBlockLateWaiters)
{
    Simulation sim;
    Event ev(sim);
    ev.trigger();
    bool done = false;
    sim.spawn([](Event &e, bool &f) -> Coro<void> {
        co_await e.wait();
        f = true;
    }(ev, done));
    sim.run();
    EXPECT_TRUE(done);
}

TEST(Sync, SemaphoreLimitsConcurrency)
{
    Simulation sim;
    Semaphore sem(sim, 2);
    int active = 0, max_active = 0, completed = 0;

    for (int i = 0; i < 6; ++i) {
        sim.spawn([](Simulation &s, Semaphore &sm, int &act, int &mx,
                     int &done) -> Coro<void> {
            co_await sm.acquire();
            ++act;
            mx = std::max(mx, act);
            co_await s.delay(ioat::sim::Tick{10});
            --act;
            ++done;
            sm.release();
        }(sim, sem, active, max_active, completed));
    }
    sim.run();
    EXPECT_EQ(completed, 6);
    EXPECT_EQ(max_active, 2);
    // 6 tasks, 2 at a time, 10 ticks each -> 30 ticks total.
    EXPECT_EQ(sim.now(), ioat::sim::Tick{30});
    EXPECT_EQ(sem.available(), 2u);
}

TEST(Sync, SemaphoreIsFifo)
{
    Simulation sim;
    Semaphore sem(sim, 0);
    std::vector<int> order;
    for (int i = 0; i < 4; ++i) {
        sim.spawn([](Semaphore &sm, std::vector<int> &ord,
                     int id) -> Coro<void> {
            co_await sm.acquire();
            ord.push_back(id);
            sm.release();
        }(sem, order, i));
    }
    sim.run();
    EXPECT_TRUE(order.empty());
    sem.release();
    sim.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Sync, SemaphoreTryAcquire)
{
    Simulation sim;
    Semaphore sem(sim, 1);
    EXPECT_TRUE(sem.tryAcquire());
    EXPECT_FALSE(sem.tryAcquire());
    sem.release();
    EXPECT_TRUE(sem.tryAcquire());
}

TEST(Sync, WaitGroupJoinsDynamicTasks)
{
    Simulation sim;
    WaitGroup wg(sim);
    int finished = 0;
    bool joined = false;

    for (int i = 1; i <= 5; ++i) {
        wg.add();
        sim.spawn([](Simulation &s, WaitGroup &w, int &n,
                     Tick d) -> Coro<void> {
            co_await s.delay(d);
            ++n;
            w.done();
        }(sim, wg, finished, static_cast<Tick>(i * 10)));
    }
    sim.spawn([](WaitGroup &w, bool &f, int &n) -> Coro<void> {
        co_await w.wait();
        EXPECT_EQ(n, 5);
        f = true;
    }(wg, joined, finished));

    sim.run();
    EXPECT_TRUE(joined);
    EXPECT_EQ(sim.now(), ioat::sim::Tick{50});
}

TEST(Sync, WaitGroupWithNoTasksReturnsImmediately)
{
    Simulation sim;
    WaitGroup wg(sim);
    bool joined = false;
    sim.spawn([](WaitGroup &w, bool &f) -> Coro<void> {
        co_await w.wait();
        f = true;
    }(wg, joined));
    sim.run();
    EXPECT_TRUE(joined);
}

// --------------------------------------------------------------------
// Channel
// --------------------------------------------------------------------

TEST(Channel, ValuesArriveInOrder)
{
    Simulation sim;
    Channel<int> ch(sim, 4);
    std::vector<int> got;

    sim.spawn([](Channel<int> &c) -> Coro<void> {
        for (int i = 0; i < 10; ++i)
            co_await c.send(i);
        c.close();
    }(ch));
    sim.spawn([](Channel<int> &c, std::vector<int> &out) -> Coro<void> {
        while (auto v = co_await c.recv())
            out.push_back(*v);
    }(ch, got));

    sim.run();
    ASSERT_EQ(got.size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(got[i], i);
}

TEST(Channel, BoundedSenderBlocksUntilDrained)
{
    Simulation sim;
    Channel<int> ch(sim, 1);
    int sent = 0;

    sim.spawn([](Channel<int> &c, int &n) -> Coro<void> {
        for (int i = 0; i < 3; ++i) {
            co_await c.send(i);
            ++n;
        }
    }(ch, sent));

    sim.run();
    // Capacity 1: first send succeeds, second waits.
    EXPECT_EQ(sent, 1);
    EXPECT_EQ(ch.tryRecv().value(), 0);
    sim.run();
    EXPECT_EQ(sent, 2);
}

TEST(Channel, CloseWakesBlockedReceiver)
{
    Simulation sim;
    Channel<int> ch(sim);
    bool got_nullopt = false;
    sim.spawn([](Channel<int> &c, bool &f) -> Coro<void> {
        auto v = co_await c.recv();
        f = !v.has_value();
    }(ch, got_nullopt));
    sim.run();
    EXPECT_FALSE(got_nullopt);
    ch.close();
    sim.run();
    EXPECT_TRUE(got_nullopt);
}

TEST(Channel, PushDeliversToWaitingReceiver)
{
    Simulation sim;
    Channel<std::string> ch(sim);
    std::string got;
    sim.spawn([](Channel<std::string> &c, std::string &out) -> Coro<void> {
        auto v = co_await c.recv();
        out = v.value_or("missing");
    }(ch, got));
    sim.run();
    ch.push("hello");
    sim.run();
    EXPECT_EQ(got, "hello");
}

// --------------------------------------------------------------------
// Mailbox
// --------------------------------------------------------------------

/** Consumer that records (tick, item) and stays busy @p busy ticks
 *  after each item. */
Coro<void>
mailboxConsumer(Simulation &sim, Mailbox<int> &mb, Tick busy,
                std::vector<std::pair<Tick, int>> &out)
{
    for (;;) {
        const int v = co_await mb.recv();
        out.emplace_back(sim.now(), v);
        if (busy > Tick{0})
            co_await sim.delay(busy);
    }
}

TEST(Mailbox, FifoOrderAcrossParks)
{
    Simulation sim;
    Mailbox<int>::NodePool pool;
    Mailbox<int> mb(sim.queue(), pool);
    std::vector<std::pair<Tick, int>> got;
    sim.spawn(mailboxConsumer(sim, mb, Tick{10}, got));
    // Bursts of pushes while the consumer is busy, then idle gaps in
    // which it parks again.
    int next = 0;
    for (Tick t : {Tick{5}, Tick{6}, Tick{7}, Tick{50}, Tick{51}, Tick{200}})
        sim.queue().schedule(t, [&mb, &next] { mb.push(next++); });
    sim.run();

    const std::vector<std::pair<Tick, int>> want = {
        {Tick{5}, 0},  {Tick{15}, 1},  {Tick{25}, 2},
        {Tick{50}, 3}, {Tick{60}, 4}, {Tick{200}, 5}};
    EXPECT_EQ(want, got);
    EXPECT_TRUE(mb.empty());
}

TEST(Mailbox, PushWhileBusyDoesNotWakeTwice)
{
    Simulation sim;
    Mailbox<int>::NodePool pool;
    Mailbox<int> mb(sim.queue(), pool);
    std::vector<std::pair<Tick, int>> got;
    sim.spawn(mailboxConsumer(sim, mb, Tick{10}, got));
    std::size_t pendingAfterBusyPush = 0;
    sim.queue().schedule(Tick{5}, [&] { mb.push(1); });
    sim.queue().schedule(Tick{8}, [&] {
        const std::size_t pending = sim.queue().size();
        mb.push(2);
        pendingAfterBusyPush = sim.queue().size() - pending;
    });
    sim.run();

    // The busy consumer picks the item up itself after its delay: the
    // push queued no wakeup, and no event ran twice.
    EXPECT_EQ(0u, pendingAfterBusyPush);
    const std::vector<std::pair<Tick, int>> want = {{Tick{5}, 1},
                                                    {Tick{15}, 2}};
    EXPECT_EQ(want, got);
    // spawn, two pushes, one folded wakeup, two delay timers.
    EXPECT_EQ(6u, sim.executedEvents());
}

TEST(Mailbox, PushFromLoneEventResumesConsumerInline)
{
    Simulation sim;
    Mailbox<int>::NodePool pool;
    Mailbox<int> mb(sim.queue(), pool);
    std::vector<std::pair<Tick, int>> got;
    sim.spawn(mailboxConsumer(sim, mb, Tick{0}, got));
    bool ranInline = false;
    std::size_t pendingAfterPush = 1;
    sim.queue().schedule(Tick{5}, [&] {
        mb.push(7);
        ranInline = got.size() == 1;
        pendingAfterPush = sim.queue().size();
    });
    sim.run();

    EXPECT_TRUE(ranInline);
    EXPECT_EQ(0u, pendingAfterPush);
    EXPECT_EQ((std::vector<std::pair<Tick, int>>{{Tick{5}, 7}}), got);
    // The inline wakeup still counts as the event a post would be.
    EXPECT_EQ(3u, sim.executedEvents());
}

namespace mailbox_diff {

std::uint64_t
mix(std::uint64_t x)
{
    x ^= x >> 31;
    x *= 0x9e3779b97f4a7c15ull;
    x ^= x >> 29;
    return x;
}

using Trace = std::vector<std::pair<Tick, int>>;

/** Same-tick noise and pushes on several lanes, and a consumer whose
 *  busy time varies per item; everything derives from @p seed.  Box
 *  is Mailbox<int> or Channel<int>. */
template <typename Box>
struct Run
{
    Simulation sim;
    Mailbox<int>::NodePool pool;
    Box box;
    Trace trace;
    std::uint64_t folds = 0; ///< wakeups that ran inside push()
    std::uint64_t posts = 0; ///< wakeups that push() queued
    std::uint64_t seed;

    explicit Run(std::uint64_t s) : box(makeBox()), seed(s) {}

    Box
    makeBox()
    {
        if constexpr (std::is_same_v<Box, Mailbox<int>>)
            return Box(sim.queue(), pool);
        else
            return Box(sim);
    }

    static Coro<void>
    consume(Run &r)
    {
        for (;;) {
            int v = 0;
            if constexpr (std::is_same_v<Box, Mailbox<int>>) {
                v = co_await r.box.recv();
            } else {
                auto got = co_await r.box.recv();
                v = *got;
            }
            r.trace.emplace_back(r.sim.now(), v);
            const std::uint64_t h = mix(r.seed * 7919 + v);
            if (h % 3 != 0)
                co_await r.sim.delay(Tick{h % 3 == 1 ? 0 : 1 + (h >> 8) % 20});
        }
    }

    void
    play()
    {
        sim.spawn(consume(*this));
        for (int i = 0; i < 200; ++i) {
            const std::uint64_t h = mix(seed * 1000003 + i);
            const Tick when{1 + (h >> 4) % 2000};
            const auto lane = static_cast<std::uint32_t>((h >> 20) % 3);
            sim.queue().scheduleLane(when, lane, [this, i] {
                const std::size_t seen = trace.size();
                const std::size_t pending = sim.queue().size();
                box.push(i);
                if (trace.size() != seen)
                    ++folds;
                else if (sim.queue().size() != pending)
                    ++posts;
            });
            // Half the pushes share their tick with an event on a
            // random lane, queued after them: a same-lane one is still
            // pending at the push and blocks the inline wakeup.
            if ((h >> 30) % 2 == 0)
                sim.queue().scheduleLane(
                    when, static_cast<std::uint32_t>((h >> 32) % 3), [] {});
        }
        sim.run();
    }
};

} // namespace mailbox_diff

TEST(Mailbox, SameTraceAsChannelOnRandomSchedules)
{
    std::uint64_t folds = 0;
    std::uint64_t posts = 0;
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        mailbox_diff::Run<Channel<int>> ch(seed);
        mailbox_diff::Run<Mailbox<int>> mb(seed);
        ch.play();
        mb.play();
        ASSERT_EQ(ch.trace, mb.trace) << "seed " << seed;
        ASSERT_EQ(ch.sim.executedEvents(), mb.sim.executedEvents())
            << "seed " << seed;
        ASSERT_EQ(0u, ch.folds); // Channel wakeups are always posted
        ASSERT_EQ(ch.posts, mb.folds + mb.posts) << "seed " << seed;
        folds += mb.folds;
        posts += mb.posts;
    }
    // Both the inline and the posted wakeup were exercised.
    EXPECT_GT(folds, 100u) << posts;
    EXPECT_GT(posts, 100u) << folds;
}

// --------------------------------------------------------------------
// Rng / Zipf
// --------------------------------------------------------------------

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(12345), b(12345);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, UniformBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformIntWithinRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        auto v = rng.uniformInt(10, 20);
        EXPECT_GE(v, 10u);
        EXPECT_LE(v, 20u);
    }
}

TEST(Rng, ExponentialMeanRoughlyCorrect)
{
    Rng rng(99);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(50.0);
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Zipf, PmfSumsToOne)
{
    ZipfDistribution z(100, 0.9);
    double sum = 0;
    for (std::size_t i = 0; i < z.size(); ++i)
        sum += z.pmf(i);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, RankZeroIsMostPopular)
{
    ZipfDistribution z(1000, 0.95);
    EXPECT_GT(z.pmf(0), z.pmf(1));
    EXPECT_GT(z.pmf(1), z.pmf(10));
    EXPECT_GT(z.pmf(10), z.pmf(999));
}

TEST(Zipf, EmpiricalFrequenciesMatchPmf)
{
    ZipfDistribution z(50, 0.9);
    Rng rng(4242);
    std::vector<int> counts(50, 0);
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        ++counts[z.sample(rng)];
    // Check the head of the distribution within a few percent.
    for (std::size_t r = 0; r < 5; ++r) {
        double expected = z.pmf(r) * n;
        EXPECT_NEAR(counts[r], expected, expected * 0.05 + 30);
    }
}

TEST(Zipf, HigherAlphaIsMoreSkewed)
{
    ZipfDistribution lo(100, 0.5), hi(100, 0.95);
    EXPECT_GT(hi.pmf(0), lo.pmf(0));
}

// --------------------------------------------------------------------
// Stats
// --------------------------------------------------------------------

TEST(Stats, AccumulatorBasics)
{
    stats::Accumulator a;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        a.sample(v);
    EXPECT_EQ(a.count(), 4u);
    EXPECT_DOUBLE_EQ(a.mean(), 2.5);
    EXPECT_DOUBLE_EQ(a.min(), 1.0);
    EXPECT_DOUBLE_EQ(a.max(), 4.0);
    EXPECT_NEAR(a.stddev(), 1.2909944, 1e-6);
}

TEST(Stats, TimeWeightedAverage)
{
    stats::TimeWeighted tw(0.0);
    tw.update(ioat::sim::Tick{10}, 1.0); // 0 for [0,10)
    tw.update(ioat::sim::Tick{30}, 0.0); // 1 for [10,30)
    // average over [0,40): (0*10 + 1*20 + 0*10)/40 = 0.5
    EXPECT_DOUBLE_EQ(tw.average(ioat::sim::Tick{40}), 0.5);
}

TEST(Stats, TimeWeightedWindowReset)
{
    stats::TimeWeighted tw(2.0);
    tw.update(ioat::sim::Tick{10}, 4.0);
    tw.resetWindow(ioat::sim::Tick{10});
    // After reset, only post-reset signal counts: 4.0 everywhere.
    EXPECT_DOUBLE_EQ(tw.average(ioat::sim::Tick{20}), 4.0);
}

TEST(Stats, Log2HistogramBuckets)
{
    stats::Log2Histogram h;
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(1024);
    EXPECT_EQ(h.count(), 4u);
    EXPECT_EQ(h.bucket(0), 1u);  // value 1
    EXPECT_EQ(h.bucket(1), 2u);  // values 2,3
    EXPECT_EQ(h.bucket(10), 1u); // value 1024
}

// --------------------------------------------------------------------
// Types / units
// --------------------------------------------------------------------

TEST(Types, UnitConstructors)
{
    EXPECT_EQ(microseconds(1).count(), 1000u);
    EXPECT_EQ(milliseconds(1).count(), 1000000u);
    EXPECT_EQ(seconds(1).count(), 1000000000u);
    EXPECT_EQ(kib(4), 4096u);
    EXPECT_EQ(mib(2), 2u * 1024 * 1024);
}

TEST(Types, RateTransferTime)
{
    // 1 Gbps = 0.125 B/ns -> 1500 bytes = 12000 ns.
    auto r = Rate::gbps(1.0);
    EXPECT_EQ(r.transferTime(1500).count(), 12000u);
    // 1 GB/s -> 1 byte per ns.
    auto r2 = Rate::bytesPerSec(1e9);
    EXPECT_EQ(r2.transferTime(4096).count(), 4096u);
}

TEST(Types, ThroughputHelpers)
{
    // 125 MB in 1 s = 1000 Mbps = 125 MB/s.
    EXPECT_NEAR(throughputMbps(125000000, seconds(1)), 1000.0, 1e-9);
    EXPECT_NEAR(throughputMBps(125000000, seconds(1)), 125.0, 1e-9);
}

TEST(Table, PrintsAlignedColumns)
{
    Table t({"a", "bb"});
    t.addRow({"1", "2"});
    std::ostringstream os;
    t.print(os);
    EXPECT_NE(os.str().find("a"), std::string::npos);
    EXPECT_NE(os.str().find("---"), std::string::npos);
}

} // namespace
