/**
 * @file
 * The cluster switch: routes bursts between attached devices.
 *
 * Models a non-blocking store-and-forward switch (the testbed's
 * 24-port Netgear GigE switch): infinite backplane, fixed forwarding
 * latency.  Link-level serialization happens in the NIC ports on both
 * sides, so the switch itself only routes.
 *
 * The switch is also the simulator's only cross-node (and therefore
 * only cross-shard) edge.  Every forwarded burst is scheduled with a
 * cross-lane key — priority lane = sender, execution lane = receiver
 * (see simcore/event_queue.hh) — so delivery order at a tick is fixed
 * by the sender's deterministic stream no matter how nodes are
 * partitioned.  Built over a `sim::ShardGroup`, deliveries whose
 * destination lives on another shard are mailed through the group's
 * horizon mailboxes instead of scheduled locally; the forwarding
 * latency must then be at least the group's lookahead, which is
 * exactly the conservative-synchronization window.
 *
 * The switch is also the network's fault-injection point: with a
 * `sim::FaultInjector` attached, every forwarded burst consults the
 * per-link fault site ("link.<src>.<dst>") for drop / duplicate /
 * extra-delay faults, and deliveries to nodes inside a crash window
 * are dropped.  Sites are keyed by the (src, dst) pair — not just the
 * egress — so each site's RNG stream is drawn only from the sender's
 * execution, keeping fault schedules shard-count-invariant.  Without
 * an injector the routing path is untouched.
 */

#ifndef IOAT_NET_SWITCH_HH
#define IOAT_NET_SWITCH_HH

#include <functional>
#include <string>
#include <vector>

#include "net/burst.hh"
#include "simcore/assert.hh"
#include "simcore/fault.hh"
#include "simcore/shard.hh"
#include "simcore/sim.hh"
#include "simcore/smallfn.hh"

namespace ioat::net {

using sim::Simulation;
using sim::Tick;

/**
 * Routes bursts to attached receivers after a fixed latency.
 */
class Switch : public sim::telemetry::Instrumented
{
  public:
    /** Receiver callback: invoked when a burst reaches the egress port. */
    using RxHandler = std::function<void(const Burst &)>;

    explicit Switch(Simulation &sim, Tick forward_latency = sim::nanoseconds(2000))
        : sim_(sim), latency_(forward_latency)
    {
        sim_.telemetry().add("fabric", this);
    }

    /**
     * A switch spanning every shard of @p group.  Ports then attach
     * with the Simulation they live on, and cross-shard deliveries go
     * through the group's mailboxes.  The forwarding latency is the
     * lookahead that makes conservative execution sound, so it must
     * cover the group's window.
     */
    Switch(sim::ShardGroup &group,
           Tick forward_latency = sim::nanoseconds(2000))
        : sim_(group.shard(0)), latency_(forward_latency), group_(&group)
    {
        sim::simAssert(latency_ >= group.lookahead(),
                       "switch latency below the shard lookahead "
                       "window breaks conservative execution");
        sim_.telemetry().add("fabric", this);
    }

    ~Switch() override { sim_.telemetry().remove(this); }

    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    /** Attach a device living on @p sim; returns its NodeId. */
    NodeId
    attach(Simulation &sim, RxHandler handler)
    {
        ports_.push_back(std::move(handler));
        portSims_.push_back(&sim);
        portShards_.push_back(shardOf(sim));
        linkSites_.resize(ports_.size());
        return static_cast<NodeId>(ports_.size() - 1);
    }

    /** Attach a device on the primary Simulation (classic setups). */
    NodeId attach(RxHandler handler)
    {
        return attach(sim_, std::move(handler));
    }

    /**
     * Detach a device: its NodeId stays reserved, but bursts still in
     * flight toward it (or addressed to it later) are dropped instead
     * of invoking the stale handler.
     */
    void
    detach(NodeId id)
    {
        sim::simAssert(id < ports_.size(), "detach of unattached node");
        ports_[id] = nullptr;
    }

    std::size_t attachedCount() const { return ports_.size(); }
    Tick forwardLatency() const { return latency_; }

    /** Route every burst through @p injector (nullptr to disable). */
    void
    setFaultInjector(sim::FaultInjector *injector)
    {
        faults_ = injector;
        linkSites_.clear();
        linkSites_.resize(ports_.size());
    }

    /**
     * Accept a burst that finished serializing into the switch at the
     * current simulated time; deliver it to the destination device
     * after the forwarding latency.  Runs on the sender's shard.
     */
    void
    forward(const Burst &burst)
    {
        sim::simAssert(burst.dst < ports_.size(),
                       "burst addressed to unattached node");
        Tick latency = latency_;
        if (faults_) {
            const Tick now = portSims_[burst.src]->now();
            // A burst leaving a node that crashed while it was
            // serializing never makes it into the backplane.
            if (faults_->nodeDown(burst.src, now)) {
                faults_->noteOutageDrop(now);
                return;
            }
            sim::FaultDecision d =
                linkSite(burst.src, burst.dst).decide();
            if (d.drop) {
                traceFault("fault:drop link", burst.dst);
                return;
            }
            if (d.extraDelay > sim::Tick{0}) {
                traceFault("fault:delay link", burst.dst);
                latency += d.extraDelay;
            }
            if (d.duplicate) {
                traceFault("fault:dup link", burst.dst);
                send(burst, latency);
            }
        }
        send(burst, latency);
    }

    /** @name Statistics
     *  @{ */
    /** Deliveries dropped because the destination had detached. */
    std::uint64_t deadLetters() const { return deadLetters_.value(); }
    /** @} */

    /** Publish switch telemetry (registered with the Hub as "fabric"). */
    void
    instrument(sim::telemetry::Registry &reg) override
    {
        reg.scalar(
            "attachedPorts",
            [this] { return static_cast<double>(ports_.size()); },
            "devices ever attached to the switch");
        reg.counter("deadLetters", deadLetters_,
                    "deliveries dropped at detached ports");
    }

  private:
    /**
     * Schedule one delivery.  The key is drawn on the sender's lane
     * (and, for a cross-shard hop, on the sender's queue) so the
     * destination executes deliveries in a partition-invariant order.
     */
    void
    send(const Burst &burst, Tick latency)
    {
        Simulation &src = *portSims_[burst.src];
        const auto prio = static_cast<std::uint32_t>(burst.src) + 1;
        const auto exec = static_cast<std::uint32_t>(burst.dst) + 1;
        const Tick when = src.now() + latency;
        auto arrive = [this, burst] { deliver(burst); };
        static_assert(sim::SmallFn::fitsInline<decltype(arrive)>(),
                      "a burst event must keep its capture inline");
        if (group_ == nullptr ||
            portShards_[burst.src] == portShards_[burst.dst]) {
            src.queue().scheduleCross(when, prio, exec, std::move(arrive));
        } else {
            group_->postCross(portShards_[burst.src],
                              portShards_[burst.dst], when, prio,
                              src.queue().drawSeq(prio), exec,
                              sim::SmallFn(std::move(arrive)));
        }
    }

    /** Complete one delivery at the egress port (receiver's shard). */
    void
    deliver(const Burst &burst)
    {
        // The destination may have detached or crashed while the
        // burst was in flight; finish the drop here rather than
        // invoking a dead handler.
        if (!ports_[burst.dst]) {
            deadLetters_.inc();
            return;
        }
        if (faults_ &&
            faults_->nodeDown(burst.dst, portSims_[burst.dst]->now())) {
            faults_->noteOutageDrop(portSims_[burst.dst]->now());
            return;
        }
        ports_[burst.dst](burst);
    }

    /**
     * Per-(src, dst) fault site, created lazily and cached.  The
     * outer vector is sized at attach/setFaultInjector time (setup);
     * the inner row for @p src is touched only by code executing on
     * src's shard, so the lazy fill needs no locking.
     */
    sim::FaultSite &
    linkSite(NodeId src, NodeId dst)
    {
        auto &row = linkSites_[src];
        if (dst >= row.size())
            row.resize(dst + 1, nullptr);
        if (!row[dst])
            row[dst] = &faults_->site("link." + std::to_string(src) +
                                      "." + std::to_string(dst));
        return *row[dst];
    }

    void
    traceFault(const char *what, NodeId dst)
    {
        if (sim::TraceWriter *tw = faults_->tracer())
            tw->instant(std::string(what) + std::to_string(dst), "fault",
                        sim_.now(), sim::TraceWriter::Lanes::fault);
    }

    /** Shard index of @p sim within the group (0 when ungrouped). */
    unsigned
    shardOf(const Simulation &sim) const
    {
        if (group_ == nullptr)
            return 0;
        for (unsigned i = 0; i < group_->shardCount(); ++i)
            if (&group_->shard(i) == &sim)
                return i;
        sim::panic("attached Simulation is not a shard of the group");
    }

    Simulation &sim_;
    Tick latency_;
    sim::ShardGroup *group_ = nullptr;
    std::vector<RxHandler> ports_;
    std::vector<Simulation *> portSims_;
    std::vector<unsigned> portShards_;
    sim::FaultInjector *faults_ = nullptr;
    std::vector<std::vector<sim::FaultSite *>> linkSites_;
    sim::stats::Counter deadLetters_;
};

} // namespace ioat::net

#endif // IOAT_NET_SWITCH_HH
