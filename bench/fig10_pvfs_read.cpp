/**
 * @file
 * Reproduces Figure 10: PVFS concurrent read performance on ramfs
 * (§6.2.1) with 6 and 5 I/O servers and 1-6 compute processes.
 *
 * Each compute process repeatedly reads a contiguous region of
 * 2N MB (N = iod count), i.e. 2 MB from every I/O server per
 * iteration, matching pvfs-test.  Since I/OAT is a receiver-side
 * optimization and reads land on the compute node, the reported CPU
 * is the client side's.
 */

#include <iostream>
#include <optional>

#include "pvfs_common.hh"

using namespace ioat;
using namespace ioat::bench;

namespace {

struct Result
{
    double mbps; ///< aggregate read bandwidth, MB/s
    double clientCpu;
};

Result
run(IoatConfig features, unsigned iod_count, unsigned compute_nodes,
    const Options *report = nullptr,
    TransportChoice choice = TransportChoice::none)
{
    PvfsRig rig(features, iod_count, choice);
    const std::size_t region = 2ull * 1024 * 1024 * iod_count;

    std::vector<std::unique_ptr<pvfs::PvfsClient>> clients;
    for (unsigned c = 0; c < compute_nodes; ++c)
        clients.push_back(rig.makeClient());

    std::optional<TelemetryRun> tr;
    if (report)
        tr.emplace(rig.sim, *report);

    for (unsigned c = 0; c < compute_nodes; ++c) {
        const auto h =
            rig.presizeFile(pvfs::fileName(c), region);
        rig.sim.spawn([](PvfsRig &r, pvfs::PvfsClient &cl,
                         pvfs::FileHandle fh,
                         std::size_t bytes) -> Coro<void> {
            (void)r;
            co_await cl.connect();
            for (;;)
                co_await cl.read(fh, 0, bytes);
        }(rig, *clients[c], h, region));
    }

    Meter meter(rig.sim);
    meter.warmup(sim::milliseconds(200),
                 {&rig.serverNode(), &rig.clientNode()});
    std::uint64_t rx0 = 0;
    for (const auto &c : clients)
        rx0 += c->bytesRead();
    meter.run(sim::milliseconds(600));
    std::uint64_t rx1 = 0;
    for (const auto &c : clients)
        rx1 += c->bytesRead();

    if (tr)
        tr->finish({{"iodCount", std::to_string(iod_count)},
                    {"computeNodes", std::to_string(compute_nodes)},
                    {"ioat", features.any() ? "true" : "false"}});

    return {sim::throughputMBps(rx1 - rx0, meter.elapsed()),
            rig.clientNode().cpu().utilization()};
}

void
table(unsigned iods)
{
    std::cout << "Figure 10" << (iods == 6 ? "a" : "b") << ": " << iods
              << " I/O servers\n";
    sim::Table t({"clients", "non-ioat MB/s", "ioat MB/s",
                  "throughput gain", "non-ioat CPU", "ioat CPU",
                  "rel CPU benefit"});
    for (unsigned clients = 1; clients <= 6; ++clients) {
        const Result non = run(IoatConfig::disabled(), iods, clients);
        const Result yes = run(IoatConfig::enabled(), iods, clients);
        t.addRow({std::to_string(clients), num(non.mbps, 0),
                  num(yes.mbps, 0), pct((yes.mbps - non.mbps) / non.mbps),
                  pct(non.clientCpu), pct(yes.clientCpu),
                  pct(relativeBenefit(yes.clientCpu, non.clientCpu))});
    }
    t.print(std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts("fig10_pvfs_read");
    return benchMain(argc, argv, opts, [&](const Options &) {

    if (opts.singleTransport()) {
        std::cout << "=== Figure 10 (" << opts.transportName()
                  << " transport, 6 I/O servers) ===\n\n";
        sim::Table t({"clients", "MB/s", "client CPU"});
        for (unsigned clients = 1; clients <= 6; ++clients) {
            const Result r = run(IoatConfig::disabled(), 6, clients,
                                 nullptr, opts.transportChoice());
            t.addRow({std::to_string(clients), num(r.mbps, 0),
                      pct(r.clientCpu)});
        }
        t.print(std::cout);
        if (opts.instrumented())
            run(IoatConfig::disabled(), 6, 6, &opts,
                opts.transportChoice());
        return 0;
    }

    std::cout << "=== Figure 10: PVFS Concurrent Read Performance "
                 "(ramfs) ===\n\n";
    table(6);
    table(5);

    if (opts.instrumented())
        run(IoatConfig::enabled(), 6, 6, &opts);

    std::cout << "Paper anchors: 6 servers: non-I/OAT 361->649 MB/s, "
                 "I/OAT 360->731 MB/s (~12% at 6 clients), ~15% CPU "
                 "benefit;\n5 servers: same trends, smaller gains.\n";
    return 0;
    });
}
