/**
 * @file
 * Multi-core CPU model with utilization accounting.
 *
 * Simulated work is expressed as `co_await cpu.compute(duration)`:
 * the caller occupies one core for that long, queueing FIFO behind
 * other work when all cores are busy.  Kernel/interrupt work can be
 * pinned to a specific core (pre-RSS network stacks process every
 * packet on the core that takes the NIC interrupt — the effect the
 * paper's "multiple receive queues" feature addresses) and can jump
 * the queue with high priority.
 *
 * Measured CPU utilization — the paper's headline metric — is the
 * time-weighted average of busy cores over a measurement window.
 */

#ifndef IOAT_CPU_CPU_HH
#define IOAT_CPU_CPU_HH

#include <coroutine>
#include <cstdint>
#include <vector>

#include <algorithm>

#include "simcore/coro.hh"
#include "simcore/pool.hh"
#include "simcore/sim.hh"
#include "simcore/smallfn.hh"
#include "simcore/telemetry/registry.hh"
#include "simcore/trace.hh"
#include "simcore/stats.hh"

namespace ioat::cpu {

using sim::Simulation;
using sim::Tick;

/** Static description of a node's processor complex. */
struct CpuConfig
{
    unsigned cores = 4; ///< Testbed 1: dual-socket dual-core
    /**
     * Normal-priority work longer than this is split into slices so
     * queued interrupt-class work can run in between — the model's
     * stand-in for softirqs preempting application code.  High
     * priority work is never sliced.
     */
    Tick preemptionQuantum = sim::microseconds(50);
};

/**
 * A set of identical cores executing queued work items.
 */
class CpuSet
{
  public:
    /** Pass as @p core to run on whichever core frees up first. */
    static constexpr int kAnyCore = -1;

    CpuSet(Simulation &sim, const CpuConfig &cfg);

    /** Attach a trace writer (nullptr = tracing off). */
    void setTracer(sim::TraceWriter *t) { tracer_ = t; }

    Tick preemptionQuantum() const { return quantum_; }

    unsigned coreCount() const { return static_cast<unsigned>(cores_.size()); }

    /** Awaitable for one unsliced work item. */
    auto
    computeChunk(Tick duration, int core = kAnyCore,
                 bool highPriority = false)
    {
        struct Awaiter
        {
            CpuSet &cpu;
            Tick duration;
            int core;
            bool highPriority;

            bool await_ready() const noexcept { return duration == Tick{0}; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                cpu.submit(duration, core, highPriority,
                           [h] { h.resume(); });
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, duration, core, highPriority};
    }

    /**
     * Awaitable: occupy one core for @p duration, in preemption-
     * quantum slices unless @p highPriority.
     *
     * Not a coroutine: slicing is driven by a small state machine on
     * the awaiter itself, so one compute() costs no frame allocation
     * no matter how many slices it splits into.
     *
     * @param duration CPU time to consume
     * @param core specific core id, or kAnyCore
     * @param highPriority queue ahead of normal work (interrupts);
     *        runs as one unsliced item
     */
    auto
    compute(Tick duration, int core = kAnyCore, bool highPriority = false)
    {
        struct Awaiter
        {
            CpuSet &cpu;
            Tick left;
            int core;
            bool highPriority;
            std::coroutine_handle<> waiter = nullptr;

            bool await_ready() const noexcept { return left == Tick{0}; }

            void
            await_suspend(std::coroutine_handle<> h)
            {
                waiter = h;
                startNext();
            }

            /** Submit the next slice; resubmits from its completion. */
            void
            startNext()
            {
                const Tick slice = highPriority
                                       ? left
                                       : std::min(left, cpu.quantum_);
                left -= slice;
                cpu.submit(slice, core, highPriority, [this] {
                    if (left > Tick{0})
                        startNext();
                    else
                        waiter.resume();
                });
            }

            void await_resume() const noexcept {}
        };
        return Awaiter{*this, duration, core, highPriority};
    }

    /**
     * Fire-and-forget work item for non-coroutine contexts (device
     * callbacks).  @p done runs when the work completes.
     */
    void submit(Tick duration, int core, bool highPriority,
                sim::SmallFn done);

    /** Busy-core average over the current window, as a fraction 0..1. */
    double utilization() const;

    /** Restart the utilization window (call at measurement start). */
    void resetUtilizationWindow();

    /** Instantaneous number of busy cores. */
    unsigned busyCores() const { return busyCount_; }

    /** Work items waiting for a core right now. */
    std::size_t queuedWork() const;

    /** Total CPU time consumed since construction. */
    Tick totalBusyTicks() const { return totalBusy_; }

    /** Work items executed since construction. */
    std::uint64_t completedItems() const { return completed_.value(); }

    /** Publish CPU telemetry (called under the node's "cpu" scope). */
    void
    instrument(sim::telemetry::Registry &reg)
    {
        reg.scalar(
            "utilization", [this] { return utilization(); },
            "busy-core fraction over the current window");
        reg.scalar(
            "totalBusyTicks",
            [this] { return static_cast<double>(totalBusy_.count()); },
            "CPU time consumed since construction");
        reg.counter("completedItems", completed_, "work items executed");
        reg.probe(
            "busyCores", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(busyCount_); },
            "cores busy at the sample instant");
        reg.probe(
            "queuedWork", sim::telemetry::ProbeKind::gauge,
            [this] { return static_cast<double>(queuedWork()); },
            "work items waiting for a core");
    }

  private:
    struct WorkItem
    {
        Tick duration;
        sim::SmallFn done;
        const char *label = "app";
    };

    /** Run queue: nodes come from the CpuSet's pool, so queueing
     *  work allocates nothing once the pool has grown. */
    using RunQueue = sim::PooledFifo<WorkItem, 16>;

    struct Core
    {
        explicit Core(RunQueue::NodePool &pool)
            : high(pool), queue(pool)
        {}

        bool busy = false;
        Tick runStart{};              ///< for tracing
        const char *runLabel = "app"; ///< for tracing
        sim::SmallFn done; ///< completion of the running item
        RunQueue high;     ///< pinned interrupt-class work
        RunQueue queue;    ///< pinned normal work
    };

    void startOn(unsigned core_idx, Tick duration, const char *label,
                 sim::SmallFn &done);
    void finishOn(unsigned core_idx);
    int findIdleCore() const;

    Simulation &sim_;
    sim::TraceWriter *tracer_ = nullptr;
    Tick quantum_;
    RunQueue::NodePool workPool_; ///< outlives every run queue below
    std::vector<Core> cores_;
    RunQueue globalHigh_;  ///< interrupt-class, any core
    RunQueue globalQueue_; ///< normal work for any core
    unsigned busyCount_ = 0;
    Tick totalBusy_{};
    sim::stats::TimeWeighted busySignal_{0.0};
    sim::stats::Counter completed_;
};

} // namespace ioat::cpu

#endif // IOAT_CPU_CPU_HH
