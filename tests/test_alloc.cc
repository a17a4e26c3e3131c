/**
 * @file
 * Allocation regression tests: steady-state event dispatch must not
 * touch the heap.
 *
 * This binary replaces the global operator new/delete with counting
 * versions, which is why it is a binary of its own (`ctest -L alloc`)
 * rather than part of another suite.  Each test warms a scenario up
 * until its arenas, pools and buffers have grown, then counts
 * allocations over a further window and relates them to the bursts,
 * work items or events executed in that window.
 */

#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/node.hh"
#include "cpu/cpu.hh"
#include "net/burst.hh"
#include "net/switch.hh"
#include "simcore/simcore.hh"

namespace {

/** operator new calls so far (the tests run on one thread). */
std::uint64_t gNews = 0;

void *
countedAlloc(std::size_t n, std::size_t align)
{
    ++gNews;
    if (n == 0)
        n = 1;
    void *p = align <= alignof(std::max_align_t)
                  ? std::malloc(n)
                  : std::aligned_alloc(align, (n + align - 1) & ~(align - 1));
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

// The array and nothrow forms forward to these by default.  The
// sized deletes are replaced too so none reaches the library's pair.
void *
operator new(std::size_t n)
{
    return countedAlloc(n, alignof(std::max_align_t));
}

void *
operator new(std::size_t n, std::align_val_t al)
{
    return countedAlloc(n, static_cast<std::size_t>(al));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;
using sim::Tick;

Coro<void>
sinkLoop(Node &node, std::uint16_t port, std::size_t chunk)
{
    sock::Listener listener(node.transport(), port);
    sock::Socket c = co_await listener.accept();
    while (co_await c.recvAll(chunk) > 0) {
    }
}

Coro<void>
senderLoop(Node &node, net::NodeId dst, std::uint16_t port,
           std::size_t chunk)
{
    sock::Socket c = co_await node.transport().connect(dst, port);
    for (;;)
        co_await c.sendAll(chunk);
}

TEST(Alloc, BurstCaptureStaysInline)
{
    // The switch schedules a pointer-plus-Burst capture once per
    // burst (twice with an injector); it must live in the event node,
    // not box.
    sim::EventQueue q;
    std::uint64_t sum = 0;
    net::Burst b;
    auto schedule = [&](std::uint64_t i) {
        b.arg = i;
        q.scheduleIn(Tick{i % 7}, [&sum, b] { sum += b.arg; });
    };
    for (std::uint64_t i = 0; i < 1000; ++i) // grow the node arena
        schedule(i);
    q.run();

    const std::uint64_t before = gNews;
    for (std::uint64_t i = 0; i < 1000; ++i)
        schedule(i);
    q.run();
    EXPECT_EQ(0u, gNews - before);
    EXPECT_EQ(999u * 1000u, sum); // 0..999, twice
}

/** The three transports: kernel TCP without and with I/OAT, and the
 *  kernel-bypass library. */
std::vector<std::pair<const char *, NodeConfig>>
transports()
{
    NodeConfig bypass = NodeConfig::server(IoatConfig::disabled(), 1);
    bypass.transport = core::TransportKind::bypass;
    return {{"tcp", NodeConfig::server(IoatConfig::disabled(), 1)},
            {"ioat", NodeConfig::server(IoatConfig::enabled(), 1)},
            {"bypass", bypass}};
}

TEST(Alloc, TcpStreamSteadyStateAllocatesNothingPerBurst)
{
    // Over every transport: once warm, the receive path (NIC batches,
    // RX mailboxes, per-segment work) allocates nothing.
    for (const auto &[label, cfg] : transports()) {
        Simulation sim;
        net::Switch fabric(sim, sim::nanoseconds(2000));
        Node sink(sim, fabric, cfg);
        Node sender(sim, fabric, cfg);
        const std::size_t chunk = 64 * 1024;
        sim.spawn(sinkLoop(sink, 5001, chunk));
        sim.spawn(senderLoop(sender, sink.id(), 5001, chunk));
        // Connect, open the window and let every pool reach its peak
        // (the last one-off growth lands near 220 ms).
        sim.runFor(sim::milliseconds(400));

        const std::uint64_t news = gNews;
        const std::uint64_t events = sim.queue().executedEvents();
        const std::uint64_t bursts =
            sink.nic().rxBursts() + sender.nic().rxBursts();
        sim.runFor(sim::milliseconds(300));
        const std::uint64_t allocs = gNews - news;
        const std::uint64_t ranEvents =
            sim.queue().executedEvents() - events;
        const std::uint64_t ranBursts =
            sink.nic().rxBursts() + sender.nic().rxBursts() - bursts;

        ASSERT_GT(ranBursts, 1000u) << label;
        EXPECT_EQ(0u, allocs) << label << ": " << allocs
                              << " allocations over " << ranBursts
                              << " bursts and " << ranEvents << " events";
    }
}

Coro<void>
echoServer(Node &node, std::uint16_t port)
{
    sock::Listener listener(node.transport(), port);
    sock::Socket c = co_await listener.accept();
    while (auto msg = co_await c.recvMessageAndPayload())
        co_await c.sendMessage(*msg);
}

Coro<void>
echoClient(Node &node, net::NodeId dst, std::uint16_t port,
           std::uint64_t &trips)
{
    sock::Socket c = co_await node.transport().connect(dst, port);
    for (std::uint64_t i = 0;; ++i) {
        sock::Message req;
        req.tag = 1;
        req.a = i;
        req.payloadBytes = 8 * 1024;
        co_await c.sendMessage(req);
        auto rsp = co_await c.recvMessageAndPayload();
        if (!rsp || rsp->a != i)
            co_return;
        ++trips;
    }
}

TEST(Alloc, MessageRoundTripAllocatesNothing)
{
    // Request/response framing: every message queues a delivered
    // header (MsgMeta) at the receiver, which must come from a pool.
    for (const auto &[label, cfg] : transports()) {
        Simulation sim;
        net::Switch fabric(sim, sim::nanoseconds(2000));
        Node server(sim, fabric, cfg);
        Node client(sim, fabric, cfg);
        std::uint64_t trips = 0;
        sim.spawn(echoServer(server, 5001));
        sim.spawn(echoClient(client, server.id(), 5001, trips));
        sim.runFor(sim::milliseconds(100));

        const std::uint64_t news = gNews;
        const std::uint64_t before = trips;
        sim.runFor(sim::milliseconds(100));
        const std::uint64_t allocs = gNews - news;
        const std::uint64_t ran = trips - before;

        ASSERT_GT(ran, 100u) << label;
        EXPECT_EQ(0u, allocs) << label << ": " << allocs
                              << " allocations over " << ran
                              << " round trips";
    }
}

/**
 * Keeps a CpuSet loaded: every completion resubmits its slot, and
 * there are more slots than cores, so all four run queues (global and
 * pinned, normal and high priority) stay non-empty.
 */
struct CpuLoad
{
    cpu::CpuSet &cpu;

    void
    submit(unsigned slot)
    {
        const int core = slot % 3 == 0
                             ? cpu::CpuSet::kAnyCore
                             : static_cast<int>(slot % cpu.coreCount());
        cpu.submit(Tick{100 + slot % 5 * 10}, core, slot % 2 == 0,
                   [this, slot] { submit(slot); });
    }
};

TEST(Alloc, QueuedCpuWorkAllocatesNothingPerItem)
{
    Simulation sim;
    cpu::CpuSet cpu(sim, {.cores = 4});
    CpuLoad load{cpu};
    for (unsigned slot = 0; slot < 48; ++slot)
        load.submit(slot);
    sim.runFor(sim::microseconds(100)); // grow the run-queue pool
    ASSERT_GT(cpu.queuedWork(), 30u);

    const std::uint64_t news = gNews;
    const std::uint64_t items = cpu.completedItems();
    sim.runFor(sim::milliseconds(2));
    const std::uint64_t allocs = gNews - news;
    const std::uint64_t ran = cpu.completedItems() - items;

    ASSERT_GT(ran, 10000u);
    EXPECT_GT(cpu.queuedWork(), 30u);
    EXPECT_EQ(0u, allocs) << allocs << " allocations over " << ran
                          << " work items";
}

} // namespace
