/**
 * @file
 * The cluster switch: routes bursts between attached devices.
 *
 * Models a non-blocking store-and-forward switch (the testbed's
 * 24-port Netgear GigE switch): infinite backplane, fixed forwarding
 * latency.  Link-level serialization happens in the NIC ports on both
 * sides, so the switch itself only routes.
 *
 * The switch is also the simulator's only cross-node edge.  Every
 * forwarded burst is scheduled with a cross-lane key — priority lane
 * = sender, execution lane = receiver (see simcore/event_queue.hh) —
 * so delivery order at a tick is fixed by the sender's stream.
 *
 * The switch is also the network's fault-injection point: with a
 * `sim::FaultInjector` attached, every forwarded burst consults the
 * per-link fault site ("link.<src>.<dst>") for drop / duplicate /
 * extra-delay faults, and deliveries to nodes inside a crash window
 * are dropped.  Sites are keyed by the (src, dst) pair — not just the
 * egress — so each site's RNG stream is drawn only from the sender's
 * execution.
 *
 * A NIC hands each burst over with launch() when it starts
 * serializing.  With an injector, launch() schedules forward() at the
 * departure tick, where the fault draw and the sender-crash check
 * run.  Without one there is nothing to decide at departure, so
 * launch() schedules the delivery at once: one event per burst, not
 * two, in the same order (DESIGN.md §10).
 */

#ifndef IOAT_NET_SWITCH_HH
#define IOAT_NET_SWITCH_HH

#include <functional>
#include <string>
#include <vector>

#include "net/burst.hh"
#include "simcore/assert.hh"
#include "simcore/fault.hh"
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

    ~Switch() override { sim_.telemetry().remove(this); }

    Switch(const Switch &) = delete;
    Switch &operator=(const Switch &) = delete;

    /** Attach a device; returns its NodeId. */
    NodeId
    attach(RxHandler handler)
    {
        ports_.push_back(std::move(handler));
        linkSites_.resize(ports_.size());
        return static_cast<NodeId>(ports_.size() - 1);
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
     * Accept a burst whose last bit leaves the sender at @p depart.
     *
     * With an injector attached, forward() runs at @p depart on the
     * current (sender's) lane, as a fault-on run's link draws must.
     * Without one, the delivery is scheduled now for
     * `depart + latency`; its key is drawn here rather than at
     * @p depart, which orders it the same (DESIGN.md §10).  The mode
     * is fixed per burst at launch, so attach an injector before
     * traffic starts.
     */
    void
    launch(const Burst &burst, Tick depart)
    {
        sim::simAssert(burst.dst < ports_.size(),
                       "burst addressed to unattached node");
        if (faults_) {
            auto fwd = [this, burst] { forward(burst); };
            static_assert(sim::SmallFn::fitsInline<decltype(fwd)>(),
                          "a burst event must keep its capture inline");
            sim_.queue().schedule(depart, std::move(fwd));
            return;
        }
        send(burst, depart + latency_);
    }

    /**
     * Accept a burst that finished serializing into the switch at the
     * current simulated time; deliver it to the destination device
     * after the forwarding latency, subject to the injector's faults.
     */
    void
    forward(const Burst &burst)
    {
        sim::simAssert(burst.dst < ports_.size(),
                       "burst addressed to unattached node");
        const Tick now = sim_.now();
        Tick arrive_at = now + latency_;
        if (faults_) {
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
                arrive_at += d.extraDelay;
            }
            if (d.duplicate) {
                traceFault("fault:dup link", burst.dst);
                send(burst, arrive_at);
            }
        }
        send(burst, arrive_at);
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
     * Schedule one delivery at absolute tick @p arrive_at.  The key is
     * drawn on the sender's lane, so the destination executes
     * same-tick deliveries in the order of the senders' lanes.
     */
    void
    send(const Burst &burst, Tick arrive_at)
    {
        const auto prio = static_cast<std::uint32_t>(burst.src) + 1;
        const auto exec = static_cast<std::uint32_t>(burst.dst) + 1;
        auto arrive = [this, burst] { deliver(burst); };
        static_assert(sim::SmallFn::fitsInline<decltype(arrive)>(),
                      "a burst event must keep its capture inline");
        sim_.queue().scheduleCross(arrive_at, prio, exec,
                                   std::move(arrive));
    }

    /** Complete one delivery at the egress port. */
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
        if (faults_ && faults_->nodeDown(burst.dst, sim_.now())) {
            faults_->noteOutageDrop(sim_.now());
            return;
        }
        ports_[burst.dst](burst);
    }

    /**
     * Per-(src, dst) fault site, created lazily and cached.  The
     * outer vector is sized at attach/setFaultInjector time.
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

    Simulation &sim_;
    Tick latency_;
    std::vector<RxHandler> ports_;
    sim::FaultInjector *faults_ = nullptr;
    std::vector<std::vector<sim::FaultSite *>> linkSites_;
    sim::stats::Counter deadLetters_;
};

} // namespace ioat::net

#endif // IOAT_NET_SWITCH_HH
