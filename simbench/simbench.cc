/**
 * @file
 * Host-time benchmark of the simulator: one repetition of one
 * workload per process.
 *
 *   simbench --workload <name> --seed <n> --traced <0|1>
 *
 * builds, starts, runs and tears down the named workload once, in one
 * OS thread on one shard, then prints one JSON line holding the host
 * time of each call this program made into the model and the simulated
 * per-layer counters read through the layers' public accessors.  With
 * `--traced 1` the run has request tracing and a profiler attached.
 * A fixed reference kernel is timed just before and just after the
 * repetition, and its times are printed with the repetition's peak
 * resident memory.  simbench/run.py starts one process per
 * repetition, then checks and aggregates their lines.
 *
 * Events are read with Runner::executedEvents() after every run; the
 * program never relies on a bench harness to record them.
 */

#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/app_memory.hh"
#include "core/testbed.hh"
#include "datacenter/client.hh"
#include "datacenter/proxy.hh"
#include "datacenter/web_server.hh"
#include "datacenter/workload.hh"
#include "pvfs/deployment.hh"
#include "simcore/profile.hh"
#include "simcore/telemetry/registry.hh"
#include "sock/socket.hh"

namespace {

using namespace ioat;
using core::IoatConfig;
using core::Node;
using core::NodeConfig;
using sim::Coro;
using sim::Simulation;
using sim::Tick;
using Clock = std::chrono::steady_clock;

/** Named simulated values of one repetition (sorted: stable output). */
using Metrics = std::map<std::string, double>;

double
num(std::uint64_t v)
{
    return static_cast<double>(v);
}

/** Everything one repetition reports. */
struct Rep
{
    /** @name Host seconds of each call this program made into the model
     *  @{ */
    double buildS = 0; ///< Simulation + Testbed construction
    double startS = 0; ///< services, pre-created files, clients
    double runS = 0;   ///< every runFor, drain included
    double teardownS = 0;
    /** @} */
    Metrics sim;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Profiler totals per cost category (traced runs only). */
    sim::Profiler::CatTicks traceTicks{};
};

class Stopwatch
{
  public:
    double
    lap()
    {
        const auto now = Clock::now();
        const double s = std::chrono::duration<double>(now - last_).count();
        last_ = now;
        return s;
    }

  private:
    Clock::time_point last_ = Clock::now();
};

/** Nearest-rank percentile of @p v (sorted in place); 0 when empty. */
double
percentile(std::vector<double> &v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    auto rank = static_cast<std::size_t>(p * static_cast<double>(v.size()));
    if (static_cast<double>(rank) < p * static_cast<double>(v.size()))
        ++rank;
    return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

/**
 * Run until @p done holds, in 1 ms steps, for at most 1 s simulated.
 * Returns whether it holds.
 */
template <typename Pred>
bool
drain(Simulation &sim, Pred done)
{
    for (int i = 0; i < 1000 && !done(); ++i)
        sim.runFor(sim::milliseconds(1));
    return done();
}

/**
 * Owns the request tracer's profiler and the Simulation; a traced rig
 * turns tracing on before any service starts.  Derived rigs declare
 * their model objects after this base, so they are destroyed first —
 * the same order the figure benches use.
 */
struct RigBase
{
    sim::Profiler profiler; ///< outlives the tracer that points at it
    Simulation sim;

    explicit RigBase(bool traced)
    {
        if (traced)
            sim.enableRequestTracing().attachProfiler(&profiler);
    }
};

std::vector<Node *>
allNodes(core::Testbed &tb)
{
    std::vector<Node *> out;
    for (std::size_t i = 0; i < tb.serverCount(); ++i)
        out.push_back(&tb.server(i));
    for (std::size_t i = 0; i < tb.clientCount(); ++i)
        out.push_back(&tb.client(i));
    return out;
}

void
resetServerWindows(core::Testbed &tb)
{
    for (std::size_t i = 0; i < tb.serverCount(); ++i)
        tb.server(i).cpu().resetUtilizationWindow();
}

double
busiestServer(core::Testbed &tb)
{
    double busiest = 0.0;
    for (std::size_t i = 0; i < tb.serverCount(); ++i)
        busiest = std::max(busiest, tb.server(i).cpu().utilization());
    return busiest;
}

/** Connections the kernel stack created (published only as telemetry). */
double
tcpConnections(Node &node)
{
    sim::telemetry::Registry reg;
    node.stack().instrument(reg);
    for (const auto &s : reg.scalars())
        if (s.name == "connections")
            return s.read();
    return 0.0;
}

/** Per-layer counters summed over every node of the testbed. */
void
collectLayers(core::Testbed &tb, Metrics &m)
{
    std::uint64_t cpuItems = 0, busBytes = 0;
    std::uint64_t dmaTransfers = 0, dmaBytes = 0, dmaStalls = 0;
    double dmaBusy = 0.0;
    std::uint64_t nicBursts = 0, nicIrqs = 0, nicDrops = 0, wire = 0;
    std::uint64_t tcpSegs = 0, tcpRetx = 0, dmaCopies = 0, cpuCopies = 0;
    double tcpConns = 0.0;
    std::uint64_t xPolls = 0, xBursts = 0, xStalls = 0, xRetx = 0;
    for (Node *n : allNodes(tb)) {
        cpuItems += n->cpu().completedItems();
        busBytes += n->bus().totalBytes();
        if (dma::DmaEngine *d = n->dma()) {
            dmaTransfers += d->completedTransfers();
            dmaBytes += d->bytesCopied();
            dmaStalls += d->dmaStalls();
            dmaBusy += d->averageBusyChannels();
        }
        nicBursts += n->nic().rxBursts();
        nicIrqs += n->nic().interrupts();
        nicDrops += n->nic().rxOverflowDrops() + n->nic().rxFaultDrops();
        wire += n->nic().txWireBytes();
        tcpSegs += n->stack().rxSegments();
        tcpRetx += n->stack().retransmits();
        dmaCopies += n->stack().dmaOffloadedCopies();
        cpuCopies += n->stack().cpuCopies();
        tcpConns += tcpConnections(*n);
        if (xpt::BypassStack *x = n->bypassStack()) {
            xPolls += x->pollPasses();
            xBursts += x->rxBursts();
            xStalls += x->creditStalls();
            xRetx += x->retransmits();
        }
    }
    m["cpu.items"] = num(cpuItems);
    m["mem.bus_bytes"] = num(busBytes);
    m["dma.transfers"] = num(dmaTransfers);
    m["dma.bytes"] = num(dmaBytes);
    m["dma.stalls"] = num(dmaStalls);
    m["dma.busy_channels"] = dmaBusy;
    m["nic.rx_bursts"] = num(nicBursts);
    m["nic.interrupts"] = num(nicIrqs);
    m["nic.rx_drops"] = num(nicDrops);
    m["net.wire_bytes"] = num(wire);
    m["net.dead_letters"] = num(tb.fabric().deadLetters());
    m["tcp.rx_segments"] = num(tcpSegs);
    m["tcp.retransmits"] = num(tcpRetx);
    m["tcp.connections"] = tcpConns;
    m["tcp.dma_copy_frac"] =
        dmaCopies + cpuCopies ? num(dmaCopies) / num(dmaCopies + cpuCopies) : 0.0;
    m["xpt.poll_passes"] = num(xPolls);
    m["xpt.rx_bursts"] = num(xBursts);
    m["xpt.credit_stalls"] = num(xStalls);
    m["xpt.retransmits"] = num(xRetx);
}

/** Engine-level facts every workload reports, read after the run. */
void
collectEngine(Simulation &sim, Metrics &m)
{
    m["simcore.events"] = static_cast<double>(sim.executedEvents());
    m["simcore.sim_s"] = sim::toSeconds(sim.now());
}

// ---------------------------------------------------------------------
// dc_zipf: the Fig. 8b two-tier data center.

constexpr unsigned kDcClientNodes = 8;
constexpr unsigned kDcThreads = 64;
constexpr std::size_t kDcCacheBytes = 16 * 1024 * 1024;
constexpr std::size_t kDcFileBytes = 8192;
constexpr Tick kDcWarmup = sim::milliseconds(300);
constexpr Tick kDcWindow = sim::milliseconds(700);

struct DcZipf : RigBase
{
    dc::DcConfig cfg;
    std::optional<core::Testbed> tb;
    std::optional<dc::ZipfWorkload> files;
    std::optional<dc::WebServer> server;
    std::optional<dc::Proxy> proxy;
    std::optional<dc::ClientFleet> fleet;

    explicit DcZipf(bool traced) : RigBase(traced)
    {
        tb.emplace(sim, core::TestbedConfig{
                            .serverCount = 2,
                            .serverConfig =
                                NodeConfig::server(IoatConfig::enabled()),
                            .clientCount = kDcClientNodes,
                            .clientConfig = NodeConfig::client(),
                        });
        cfg.proxyCacheBytes = kDcCacheBytes;
        cfg.proxyCachingEnabled = true;
    }

    void
    start(std::uint64_t seed)
    {
        files.emplace(0.75, 20000, kDcFileBytes);
        server.emplace(tb->server(1), cfg, *files);
        proxy.emplace(tb->server(0), cfg, tb->server(1).id());
        server->start();
        proxy->start();
        std::vector<Node *> clients;
        for (unsigned i = 0; i < kDcClientNodes; ++i)
            clients.push_back(&tb->client(i));
        dc::ClientFleet::Options opts;
        opts.target = tb->server(0).id();
        opts.port = cfg.proxyPort;
        opts.threads = kDcThreads;
        // Thread t draws from rngSeed + t: spacing seeds 2^16 apart
        // keeps two workload seeds from sharing thread streams.
        opts.rngSeed = seed << 16;
        fleet.emplace(clients, *files, opts);
        fleet->start();
    }

    void
    run(Rep &rep)
    {
        sim.runFor(kDcWarmup);
        rep.sim["chk.dc.warm_misses"] =
            static_cast<double>(proxy->cacheMisses());
        resetServerWindows(*tb);
        const std::uint64_t done0 = fleet->completed();
        sim.runFor(kDcWindow);
        const std::uint64_t done1 = fleet->completed();
        rep.sim["cpu.busy.server"] = busiestServer(*tb);

        fleet->stop();
        const bool drained =
            drain(sim, [this] { return fleet->activeThreads() == 0; });

        Metrics &m = rep.sim;
        collectEngine(sim, m);
        collectLayers(*tb, m);
        m["dc.tps"] = num(done1 - done0) / sim::toSeconds(kDcWindow);
        m["dc.latency_us.mean"] = fleet->latencyUs().mean();
        m["dc.latency_us.max"] = fleet->latencyUs().max();
        m["dc.failures"] = num(fleet->failures());
        m["dc.rejected"] = num(fleet->rejected());
        m["dc.proxy_hit_frac"] =
            proxy->requestsServed()
                ? num(proxy->cacheHits()) / num(proxy->requestsServed())
                : 0.0;
        m["chk.dc.issued"] = num(fleet->issued());
        m["chk.dc.completed"] = num(fleet->completed());
        m["chk.dc.drained"] = drained ? 1.0 : 0.0;
        m["chk.dc.cache_objects"] = num(kDcCacheBytes / kDcFileBytes);
        rep.attempted = fleet->issued();
        rep.failed = fleet->failures() + fleet->rejected();
    }
};

// ---------------------------------------------------------------------
// stream_ioat / stream_bypass: Fig. 3b bidirectional ttcp at 6 ports.

constexpr unsigned kStreamPorts = 6;
constexpr std::size_t kStreamChunk = 64 * 1024;
constexpr std::uint16_t kStreamPort = 5001;
constexpr Tick kStreamWarmup = sim::milliseconds(100);
constexpr Tick kStreamWindow = sim::milliseconds(1900);

/** What the benchmark's own senders in one direction observed. */
struct StreamSide
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t bytesSent = 0;
    /** sendAll spans (us) of sends begun in the measured window. */
    std::vector<double> waitUs;
};

Coro<void>
streamSink(Node &node, core::AppMemory &mem)
{
    sock::Listener listener(node.transport(), kStreamPort);
    for (;;) {
        sock::Socket conn = co_await listener.accept();
        node.spawn([](sock::Socket c, core::AppMemory &m) -> Coro<void> {
            m.reserve(kStreamChunk);
            for (;;) {
                const std::size_t got = co_await c.recvAll(kStreamChunk);
                if (got == 0)
                    co_return;
                m.noteBuffer(got);
            }
        }(conn, mem));
    }
}

/**
 * ttcp sender; one traced request per sendAll when tracing is on.
 * @p start_delay staggers the senders by a seed-drawn offset.
 */
Coro<void>
streamSender(Node &node, net::NodeId dst, Tick start_delay,
             StreamSide &side)
{
    Simulation &sim = node.simulation();
    co_await sim.delay(start_delay);
    sock::Socket conn = co_await node.transport().connect(dst, kStreamPort);
    if (!conn.usable()) {
        ++side.attempted;
        ++side.failed;
        co_return;
    }
    sim::RequestTracer *rt = sim.requestTracer();
    for (;;) {
        sock::SendOptions opts;
        if (rt)
            opts.trace =
                rt->beginRequest("stream.send", static_cast<int>(node.id()));
        const Tick t0 = sim.now();
        co_await conn.sendAll(kStreamChunk, opts);
        if (rt)
            rt->endRequest(opts.trace);
        ++side.attempted;
        if (!conn.usable()) {
            ++side.failed;
            co_return;
        }
        side.bytesSent += kStreamChunk;
        if (t0 >= kStreamWarmup)
            side.waitUs.push_back(sim::toMicroseconds(sim.now() - t0));
    }
}

struct Stream : RigBase
{
    std::optional<core::Testbed> tb;
    std::optional<core::AppMemory> memA;
    std::optional<core::AppMemory> memB;
    StreamSide ab; ///< server(0) -> server(1)
    StreamSide ba;

    Stream(bool traced, bool bypass) : RigBase(traced)
    {
        NodeConfig cfg = NodeConfig::server(
            bypass ? IoatConfig::disabled() : IoatConfig::enabled(),
            kStreamPorts);
        if (bypass)
            cfg.transport = core::TransportKind::bypass;
        tb.emplace(sim, core::TestbedConfig{.serverCount = 2,
                                            .serverConfig = cfg});
    }

    void
    start(std::uint64_t seed)
    {
        Node &a = tb->server(0);
        Node &b = tb->server(1);
        memA.emplace(a.host(), "sinkA");
        memB.emplace(b.host(), "sinkB");
        a.spawn(streamSink(a, *memA));
        b.spawn(streamSink(b, *memB));
        sim::Rng rng(seed);
        const auto stagger = [&rng] {
            return sim::nanoseconds(rng.uniformInt(0, 20000));
        };
        for (unsigned i = 0; i < kStreamPorts; ++i) {
            a.spawn(streamSender(a, b.id(), stagger(), ab));
            b.spawn(streamSender(b, a.id(), stagger(), ba));
        }
    }

    void
    run(Rep &rep)
    {
        sim.runFor(kStreamWarmup);
        resetServerWindows(*tb);
        sim.runFor(kStreamWindow);
        rep.sim["cpu.busy.server"] = busiestServer(*tb);

        Metrics &m = rep.sim;
        collectEngine(sim, m);
        collectLayers(*tb, m);
        Node &a = tb->server(0);
        Node &b = tb->server(1);
        std::vector<double> waits = ab.waitUs;
        waits.insert(waits.end(), ba.waitUs.begin(), ba.waitUs.end());
        m["sock.send_wait_us.p50"] = percentile(waits, 0.50);
        m["sock.send_wait_us.p99"] = percentile(waits, 0.99);
        m["chk.stream.tx_a"] = num(a.transport().txPayloadBytes());
        m["chk.stream.tx_b"] = num(b.transport().txPayloadBytes());
        m["chk.stream.rx_a"] = num(a.transport().rxPayloadBytes());
        m["chk.stream.rx_b"] = num(b.transport().rxPayloadBytes());
        m["chk.stream.sent_a"] = num(ab.bytesSent);
        m["chk.stream.sent_b"] = num(ba.bytesSent);
        // One direction's line capacity over the whole run.
        m["chk.stream.capacity_bytes"] =
            kStreamPorts * a.config().nic.portRate.bytesPerSecond() *
            sim::toSeconds(sim.now());
        rep.attempted = ab.attempted + ba.attempted;
        rep.failed = ab.failed + ba.failed;
    }
};

// ---------------------------------------------------------------------
// pvfs_rw: the Sec. 6 PVFS deployment, write then read back.

constexpr unsigned kPvfsIods = 6;
constexpr unsigned kPvfsProcs = 4;
constexpr std::size_t kPvfsStripe = 64 * 1024;
/** A full stripe row: one chunk on every iod. */
constexpr std::size_t kPvfsRowBytes = kPvfsStripe * kPvfsIods;
constexpr unsigned kPvfsBlocks = 16; ///< op slots per process region
constexpr Tick kPvfsWarmup = sim::milliseconds(200);
constexpr Tick kPvfsWindow = sim::milliseconds(1800);

struct PvfsStats
{
    bool stopping = false;
    unsigned active = 0;
    std::uint64_t attempted = 0;
    std::uint64_t badOps = 0; ///< not Ok, or short
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    std::vector<double> readUs;  ///< ops begun in the window
    std::vector<double> writeUs;
};

/** One compute process: write a block, read it back, repeat. */
Coro<void>
computeProcess(Simulation &sim, pvfs::PvfsClient &cl, pvfs::FileHandle fh,
               std::uint64_t seed, PvfsStats &st)
{
    ++st.active;
    if (co_await cl.connect() != pvfs::PvfsErrc::Ok) {
        ++st.attempted;
        ++st.badOps;
        --st.active;
        co_return;
    }
    sim::Rng rng(seed);
    while (!st.stopping) {
        // Seed-drawn slot, 4 KiB misalignment and length (2/3 to 4/3
        // of a stripe row), so the seed changes how each op splits
        // over the iods while the mean op stays one row.
        const std::uint64_t off =
            rng.uniformInt(0, kPvfsBlocks - 1) * 2 * kPvfsRowBytes +
            rng.uniformInt(0, kPvfsStripe / 4096 - 1) * 4096;
        const std::size_t len =
            rng.uniformInt(kPvfsRowBytes / 6144, kPvfsRowBytes / 3072) *
            4096;

        Tick t0 = sim.now();
        const auto w = co_await cl.write(fh, off, len);
        ++st.attempted;
        st.writeBytes += w.value;
        if (!w.ok() || w.value != len)
            ++st.badOps;
        if (t0 >= kPvfsWarmup)
            st.writeUs.push_back(sim::toMicroseconds(sim.now() - t0));

        t0 = sim.now();
        const auto r = co_await cl.read(fh, off, len);
        ++st.attempted;
        st.readBytes += r.value;
        if (!r.ok() || r.value != len)
            ++st.badOps;
        if (t0 >= kPvfsWarmup)
            st.readUs.push_back(sim::toMicroseconds(sim.now() - t0));
    }
    --st.active;
}

struct PvfsRw : RigBase
{
    std::optional<core::Testbed> tb;
    std::optional<pvfs::Deployment> fs;
    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    PvfsStats st;

    explicit PvfsRw(bool traced) : RigBase(traced)
    {
        core::TestbedConfig cfg;
        cfg.serverCount = 2;
        cfg.serverConfig = NodeConfig::server(IoatConfig::enabled(), 6);
        // Default socket options, as in the paper's PVFS runs: 64 KiB
        // buffers leave each stream window-bound.
        cfg.serverConfig.tcp.sockBuf = 64 * 1024;
        tb.emplace(sim, cfg);
    }

    Node &serverNode() { return tb->server(0); }
    Node &computeNode() { return tb->server(1); }

    void
    start(std::uint64_t seed)
    {
        pvfs::PvfsConfig cfg;
        cfg.stripeSize = kPvfsStripe;
        cfg.iodCount = kPvfsIods;
        fs.emplace(cfg, serverNode(), std::vector<Node *>{&serverNode()});
        fs->start();
        for (unsigned c = 0; c < kPvfsProcs; ++c) {
            clients.push_back(fs->makeClient(computeNode()));
            const pvfs::FileHandle fh = fs->presizeFile(
                "rank" + std::to_string(c), kPvfsBlocks * 2 * kPvfsRowBytes);
            computeNode().spawn(computeProcess(sim, *clients.back(), fh,
                                               seed * 16 + c, st));
        }
    }

    void
    run(Rep &rep)
    {
        sim.runFor(kPvfsWarmup);
        resetServerWindows(*tb);
        const auto [r0, w0] = clientBytes();
        sim.runFor(kPvfsWindow);
        const auto [r1, w1] = clientBytes();
        rep.sim["cpu.busy.server"] = busiestServer(*tb);

        st.stopping = true;
        const bool drained = drain(sim, [this] { return st.active == 0; });

        Metrics &m = rep.sim;
        collectEngine(sim, m);
        collectLayers(*tb, m);
        m["pvfs.read_mbps"] =
            sim::throughputMBps(r1 - r0, kPvfsWindow);
        m["pvfs.write_mbps"] =
            sim::throughputMBps(w1 - w0, kPvfsWindow);
        std::uint64_t retries = 0, failures = 0;
        for (const auto &c : clients) {
            retries += c->rpcRetries();
            failures += c->rpcFailures();
        }
        m["pvfs.rpc_retries"] = num(retries);
        m["pvfs.rpc_failures"] = num(failures);
        m["pvfs.read_us.p50"] = percentile(st.readUs, 0.50);
        m["pvfs.read_us.p99"] = percentile(st.readUs, 0.99);
        m["pvfs.write_us.p50"] = percentile(st.writeUs, 0.50);
        m["pvfs.write_us.p99"] = percentile(st.writeUs, 0.99);
        const auto [rEnd, wEnd] = clientBytes();
        m["chk.pvfs.client_read_bytes"] = num(rEnd);
        m["chk.pvfs.client_write_bytes"] = num(wEnd);
        m["chk.pvfs.bench_read_bytes"] = num(st.readBytes);
        m["chk.pvfs.bench_write_bytes"] = num(st.writeBytes);
        m["chk.pvfs.bad_ops"] = num(st.badOps);
        m["chk.pvfs.drained"] = drained ? 1.0 : 0.0;
        rep.attempted = st.attempted;
        rep.failed = st.badOps;
    }

    std::pair<std::uint64_t, std::uint64_t>
    clientBytes() const
    {
        std::uint64_t r = 0, w = 0;
        for (const auto &c : clients) {
            r += c->bytesRead();
            w += c->bytesWritten();
        }
        return {r, w};
    }
};

// ---------------------------------------------------------------------
// Reference kernel: a yardstick of the host's current speed.

/** The reference kernel's whole state, mapped apart from the heap. */
struct RefArena
{
    static constexpr std::uint32_t kEntities = 1u << 15;
    static constexpr std::size_t kPending = 8192;
    static constexpr std::size_t kFrames = 4096;

    struct Ev
    {
        std::uint64_t t;
        std::uint32_t entity;
        bool operator>(const Ev &o) const { return t > o.t; }
    };

    std::uint64_t ents[kEntities][16];   ///< 4 MiB of entity state
    std::uint64_t frames[kFrames][12];
    Ev heap[kPending];
};

/**
 * Host seconds of a fixed toy discrete-event loop: a binary heap of
 * 8192 pending events over 4 MiB of entity state, 150 000 events.
 * Like the simulator, it is bound by cache and memory latency, so
 * neighbours contending for the shared cache slow both.  It uses no
 * model code, and its memory is mapped and unmapped outside malloc, so
 * neither the simulator nor its heap can change it.  simbench/run.py
 * uses it to take the host's speed out of the host-time metrics.
 */
double
referenceSeconds()
{
    void *mem = mmap(nullptr, sizeof(RefArena), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (mem == MAP_FAILED) {
        std::perror("simbench: mmap");
        std::exit(1);
    }
    auto &a = *static_cast<RefArena *>(mem); // zero-filled
    std::uint64_t x = 88172645463325252ull; // xorshift64
    auto rnd = [&x] {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        return x;
    };
    const std::greater<> later;
    for (auto &ev : a.heap)
        ev = {rnd() % 1000, static_cast<std::uint32_t>(rnd() % a.kEntities)};
    std::make_heap(std::begin(a.heap), std::end(a.heap), later);
    for (auto &ent : a.ents)
        ent[0] = rnd(); // fault every page in before timing
    for (auto &frame : a.frames)
        frame[0] = 0;

    Stopwatch sw;
    std::uint64_t sum = 0;
    for (std::size_t n = 0; n < 150000; ++n) {
        std::pop_heap(std::begin(a.heap), std::end(a.heap), later);
        RefArena::Ev &ev = a.heap[a.kPending - 1];
        std::uint64_t *ent = a.ents[ev.entity];
        ent[ev.t & 15] += ev.t;
        std::uint64_t *frame = a.frames[n % a.kFrames];
        frame[ev.t % 12] = ent[(ev.t >> 4) & 15];
        sum += frame[0];
        ev = {ev.t + 1 + rnd() % 1000,
              static_cast<std::uint32_t>((ev.entity + rnd()) % a.kEntities)};
        std::push_heap(std::begin(a.heap), std::end(a.heap), later);
    }
    const double seconds = sw.lap();
    munmap(mem, sizeof(RefArena));
    // Keep the loop's result alive.
    return sum == 1 ? seconds + 1e-12 : seconds;
}

/**
 * Peak resident KiB since the last resetPeakRss() (VmHWM), or since
 * the process started where the kernel lacks the reset.
 */
long
peakRssKib()
{
    if (std::FILE *f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        long kib = -1;
        while (kib < 0 && std::fgets(line, sizeof line, f))
            std::sscanf(line, "VmHWM: %ld kB", &kib);
        std::fclose(f);
        if (kib >= 0)
            return kib;
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return ru.ru_maxrss;
}

/** Restart the peak resident set at the current one. */
void
resetPeakRss()
{
    if (std::FILE *f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

// ---------------------------------------------------------------------
// Command line.

/** Build, start, run and tear down one rig, timing each call. */
template <typename Rig, typename... Extra>
Rep
timedRep(std::uint64_t seed, bool traced, Extra... extra)
{
    Rep rep;
    Stopwatch sw;
    auto rig = std::make_unique<Rig>(traced, extra...);
    rep.buildS = sw.lap();
    rig->start(seed);
    rep.startS = sw.lap();
    rig->run(rep);
    if (traced)
        rep.traceTicks = rig->profiler.totals();
    rep.runS = sw.lap();
    rig.reset();
    rep.teardownS = sw.lap();
    return rep;
}

std::optional<Rep>
runWorkload(const std::string &name, std::uint64_t seed, bool traced)
{
    if (name == "dc_zipf")
        return timedRep<DcZipf>(seed, traced);
    if (name == "stream_ioat")
        return timedRep<Stream>(seed, traced, false);
    if (name == "stream_bypass")
        return timedRep<Stream>(seed, traced, true);
    if (name == "pvfs_rw")
        return timedRep<PvfsRw>(seed, traced);
    return std::nullopt;
}

void
printRep(const Rep &rep, bool traced)
{
    std::printf("{\"kind\": \"rep\", \"traced\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"host\": {\"build_s\": %.9g, "
                "\"start_s\": %.9g, \"run_s\": %.9g, \"teardown_s\": %.9g}, "
                "\"sim\": {",
                traced ? "true" : "false",
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed), rep.buildS,
                rep.startS, rep.runS, rep.teardownS);
    const char *sep = "";
    for (const auto &[k, v] : rep.sim) {
        std::printf("%s\"%s\": %.17g", sep, k.c_str(), v);
        sep = ", ";
    }
    std::printf("}");
    if (traced) {
        std::printf(", \"trace_ticks\": {");
        sep = "";
        for (std::size_t i = 0; i < sim::kCostCatCount; ++i) {
            std::printf("%s\"%s\": %llu", sep,
                        sim::costCatName(static_cast<sim::CostCat>(i)),
                        static_cast<unsigned long long>(rep.traceTicks[i]));
            sep = ", ";
        }
        std::printf("}");
    }
    std::printf("}\n");
    std::fflush(stdout);
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||  \
    __has_feature(undefined_behavior_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

#ifdef __OPTIMIZE__
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

#ifndef SIMBENCH_BUILD_TYPE
#define SIMBENCH_BUILD_TYPE ""
#endif

int
usage()
{
    std::fprintf(stderr,
                 "usage: simbench --workload <dc_zipf|stream_ioat|pvfs_rw|"
                 "stream_bypass> --seed <n> --traced <0|1>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    std::uint64_t seed = 1;
    bool traced = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *val = argv[i + 1];
        if (flag == "--workload")
            workload = val;
        else if (flag == "--seed")
            seed = std::strtoull(val, nullptr, 10);
        else if (flag == "--traced")
            traced = std::string(val) == "1";
        else
            return usage();
    }
    if (argc % 2 == 0 || workload.empty())
        return usage();

    const double refBefore = referenceSeconds();
    resetPeakRss();
    const std::optional<Rep> rep = runWorkload(workload, seed, traced);
    if (!rep) {
        std::fprintf(stderr, "simbench: unknown workload '%s'\n",
                     workload.c_str());
        return 2;
    }
    std::printf("{\"kind\": \"context\", \"build_type\": \"%s\", "
                "\"compiler\": \"%s\", \"optimized\": %s, "
                "\"sanitized\": %s}\n",
                SIMBENCH_BUILD_TYPE, __VERSION__,
                kOptimized ? "true" : "false",
                kSanitized ? "true" : "false");
    printRep(*rep, traced);
    const long peakKib = peakRssKib();
    std::printf("{\"kind\": \"end\", \"peak_rss_kib\": %ld, "
                "\"ref_before_s\": %.9g, \"ref_after_s\": %.9g}\n",
                peakKib, refBefore, referenceSeconds());
    return 0;
}
