/**
 * @file
 * Tests for PVFS extensions: strided (noncontiguous) I/O and
 * multi-node deployments.
 */

#include <gtest/gtest.h>

#include <map>

#include "core/testbed.hh"
#include "pvfs/deployment.hh"
#include "simcore/simcore.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using sim::Coro;
using sim::Simulation;

// --------------------------------------------------------------------
// splitStrided math
// --------------------------------------------------------------------

TEST(StridedLayout, ContiguousDegenerateCaseMatchesSplit)
{
    pvfs::StripeLayout layout(4, 65536);
    // stride == block: equivalent to one contiguous region.
    auto strided = layout.splitStrided(0, 65536, 65536, 8);
    std::size_t total = 0;
    for (const auto &c : strided)
        total += c.bytes;
    EXPECT_EQ(total, 8u * 65536);
    EXPECT_EQ(strided.size(), 4u); // 8 blocks round-robin over 4
}

TEST(StridedLayout, BytesConservedForAnyPattern)
{
    pvfs::StripeLayout layout(6, 65536);
    for (std::size_t block : {std::size_t{4096}, std::size_t{100000}}) {
        for (std::size_t stride_mult : {std::size_t{1}, std::size_t{3}}) {
            auto chunks = layout.splitStrided(
                1234, block, block * stride_mult + 512, 17);
            std::size_t total = 0;
            for (const auto &c : chunks) {
                EXPECT_GT(c.extents, 0u);
                total += c.bytes;
            }
            EXPECT_EQ(total, block * 17);
        }
    }
}

TEST(StridedLayout, SmallBlocksLandOnSingleServers)
{
    pvfs::StripeLayout layout(4, 65536);
    // 4K blocks spaced one stripe apart: block k lives entirely on
    // server k % 4.
    auto chunks = layout.splitStrided(0, 4096, 65536, 8);
    ASSERT_EQ(chunks.size(), 4u);
    for (const auto &c : chunks) {
        EXPECT_EQ(c.bytes, 2u * 4096); // 2 blocks per server
        EXPECT_EQ(c.extents, 2u);
    }
}

TEST(StridedLayout, WideBlocksSpanServers)
{
    pvfs::StripeLayout layout(4, 65536);
    // One 256K block covers one stripe on each of the 4 servers.
    auto chunks = layout.splitStrided(0, 4 * 65536, 8 * 65536, 1);
    ASSERT_EQ(chunks.size(), 4u);
    for (const auto &c : chunks)
        EXPECT_EQ(c.bytes, 65536u);
}

// --------------------------------------------------------------------
// Strided I/O end-to-end
// --------------------------------------------------------------------

struct Rig
{
    Simulation sim;
    core::Testbed tb;
    pvfs::PvfsConfig cfg;
    std::unique_ptr<pvfs::Deployment> fsd;

    explicit Rig(unsigned server_nodes = 1, unsigned iods = 6)
        : tb(sim,
             core::TestbedConfig{
                 .serverCount = server_nodes + 1, // + compute node
                 .serverConfig = core::NodeConfig::server(
                     IoatConfig::disabled()),
             })
    {
        cfg.iodCount = iods;
        std::vector<core::Node *> iod_nodes;
        for (unsigned i = 0; i < server_nodes; ++i)
            iod_nodes.push_back(&tb.server(i));
        fsd = std::make_unique<pvfs::Deployment>(cfg, tb.server(0),
                                                 iod_nodes);
        fsd->start();
    }

    core::Node &computeNode() { return tb.server(tb.serverCount() - 1); }
};

TEST(PvfsStrided, ReadStridedTransfersEveryBlock)
{
    Rig rig;
    auto client = rig.fsd->makeClient(rig.computeNode());
    const auto h = rig.fsd->presizeFile("f", 64 * 1024 * 1024);
    bool done = false;
    rig.sim.spawn([](pvfs::PvfsClient &c, pvfs::FileHandle fh,
                     bool &f) -> Coro<void> {
        co_await c.connect();
        const std::size_t got =
            co_await c.readStrided(fh, 0, 16384, 262144, 32);
        EXPECT_EQ(got, 32u * 16384);
        f = true;
    }(*client, h, done));
    rig.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(client->bytesRead(), 32u * 16384);
    EXPECT_EQ(rig.fsd->totalBytesRead(), 32u * 16384);
}

TEST(PvfsStrided, WriteStridedExtendsMetadataToLastByte)
{
    Rig rig;
    auto client = rig.fsd->makeClient(rig.computeNode());
    bool done = false;
    rig.sim.spawn([](Rig &r, pvfs::PvfsClient &c, bool &f) -> Coro<void> {
        co_await c.connect();
        auto h = co_await c.create(9);
        co_await c.writeStrided(h, 1000, 4096, 65536, 10);
        const auto size = co_await c.fileSize(h);
        // Last block ends at 1000 + 9*65536 + 4096.
        EXPECT_EQ(size, 1000u + 9u * 65536 + 4096);
        (void)r;
        f = true;
    }(rig, *client, done));
    rig.sim.run();
    EXPECT_TRUE(done);
    EXPECT_EQ(rig.fsd->totalBytesWritten(), 10u * 4096);
}

TEST(PvfsStrided, StridedCostsMoreCpuThanContiguous)
{
    // Same bytes, scattered vs contiguous: the gather/scatter extents
    // cost extra CPU on both sides.
    auto run = [](bool strided) {
        Rig rig;
        auto client = rig.fsd->makeClient(rig.computeNode());
        const auto h = rig.fsd->presizeFile("f", 64 * 1024 * 1024);
        rig.sim.spawn([](pvfs::PvfsClient &c, pvfs::FileHandle fh,
                         bool s) -> Coro<void> {
            co_await c.connect();
            if (s)
                co_await c.readStrided(fh, 0, 8192, 131072, 128);
            else
                co_await c.read(fh, 0, 128 * 8192);
        }(*client, h, strided));
        rig.sim.run();
        return rig.tb.server(0).cpu().totalBusyTicks();
    };
    EXPECT_GT(run(true), run(false));
}

// --------------------------------------------------------------------
// Multi-node deployments
// --------------------------------------------------------------------

TEST(PvfsDeployment, IodsSpreadRoundRobinOverNodes)
{
    Rig rig(/*server_nodes=*/3, /*iods=*/6);
    // iods 0..5 over nodes 0,1,2: two per node.
    std::map<net::NodeId, int> per_node;
    for (const auto &addr : rig.fsd->iodAddrs())
        ++per_node[addr.node];
    EXPECT_EQ(per_node.size(), 3u);
    for (const auto &[node, n] : per_node)
        EXPECT_EQ(n, 2);
}

TEST(PvfsDeployment, MultiNodeReadsPullFromEveryNode)
{
    Rig rig(3, 6);
    auto client = rig.fsd->makeClient(rig.computeNode());
    const std::size_t bytes = 12 * 1024 * 1024;
    const auto h = rig.fsd->presizeFile("f", bytes);
    bool done = false;
    rig.sim.spawn([](pvfs::PvfsClient &c, pvfs::FileHandle fh,
                     std::size_t n, bool &f) -> Coro<void> {
        co_await c.connect();
        co_await c.read(fh, 0, n);
        f = true;
    }(*client, h, bytes, done));
    rig.sim.run();
    EXPECT_TRUE(done);
    // Every iod node transmitted roughly a third of the data.
    for (unsigned n = 0; n < 3; ++n)
        EXPECT_GT(rig.tb.server(n).stack().txPayloadBytes(),
                  bytes / 3 - 1024);
}

TEST(PvfsDeployment, MoreIodNodesIncreaseAggregateBandwidth)
{
    auto run = [](unsigned nodes) {
        Rig rig(nodes, 6);
        // Saturate: 4 concurrent compute clients.
        std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
        for (int c = 0; c < 4; ++c) {
            clients.push_back(rig.fsd->makeClient(rig.computeNode()));
            const auto h = rig.fsd->presizeFile(
                pvfs::fileName(static_cast<std::uint64_t>(c)),
                12 * 1024 * 1024);
            rig.sim.spawn([](pvfs::PvfsClient &cl, pvfs::FileHandle fh)
                              -> Coro<void> {
                co_await cl.connect();
                for (;;)
                    co_await cl.read(fh, 0, 12 * 1024 * 1024);
            }(*clients.back(), h));
        }
        rig.sim.runFor(sim::milliseconds(300));
        std::uint64_t rx = 0;
        for (auto &c : clients)
            rx += c->bytesRead();
        return rx;
    };
    // The compute node's NIC is the shared bottleneck, but server-side
    // port contention still relaxes with more nodes.
    EXPECT_GE(run(3), run(1));
}

TEST(PvfsDeployment, PresizeAndAggregateCounters)
{
    Rig rig;
    EXPECT_EQ(rig.fsd->iodCount(), 6u);
    const auto h = rig.fsd->presizeFile("big", 1 << 30);
    EXPECT_EQ(rig.fsd->fs().size(h), 1u << 30);
    EXPECT_EQ(rig.fsd->totalBytesRead(), 0u);
    EXPECT_EQ(rig.fsd->totalBytesWritten(), 0u);
}

} // namespace
