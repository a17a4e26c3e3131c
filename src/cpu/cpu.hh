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
#include <memory>
#include <vector>

#include <algorithm>

#include "simcore/coro.hh"
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
        return ComputeAwaiter{*this, duration, sim::kTickMax, core,
                              highPriority};
    }

    /**
     * Awaitable: occupy one core for @p duration, in preemption-
     * quantum slices unless @p highPriority.
     *
     * @param duration CPU time to consume
     * @param core specific core id, or kAnyCore
     * @param highPriority queue ahead of normal work (interrupts);
     *        runs as one unsliced item
     */
    auto
    compute(Tick duration, int core = kAnyCore, bool highPriority = false)
    {
        return ComputeAwaiter{*this, duration,
                              highPriority ? sim::kTickMax : quantum_,
                              core, highPriority};
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
    /**
     * One unit of queued CPU work, linked into a run queue by pointer.
     * The compute() awaiters are Jobs living in the awaiting
     * coroutine's frame; submit() draws a pooled FnJob.  A Job is in
     * at most one queue or on one core at a time; @c complete runs
     * once the core has moved on to its next Job.
     */
    struct Job
    {
        Job(Tick d, void (*fn)(Job *)) : duration(d), complete(fn) {}
        /** Queued by address, so never copied or moved. */
        Job(const Job &) = delete;
        Job &operator=(const Job &) = delete;

        Job *next = nullptr;
        Tick duration;
        const char *label = "app";
        void (*complete)(Job *);
    };

    /**
     * The compute()/computeChunk() awaiter.  Not a coroutine: it is
     * itself the queued Job, living in the awaiting coroutine's frame,
     * and re-queues itself once per slice of at most @c maxSlice, so a
     * compute costs no frame and no allocation however it is sliced.
     */
    struct ComputeAwaiter : Job
    {
        ComputeAwaiter(CpuSet &c, Tick d, Tick max_slice, int k, bool high)
            : Job{Tick{0}, &ComputeAwaiter::sliceDone}, cpu(c), left(d),
              maxSlice(max_slice), core(k), highPriority(high)
        {}

        bool await_ready() const noexcept { return left == Tick{0}; }

        void
        await_suspend(std::coroutine_handle<> h)
        {
            waiter = h;
            startNext();
        }

        void await_resume() const noexcept {}

        /** Queue the next slice. */
        void
        startNext()
        {
            duration = std::min(left, maxSlice);
            left -= duration;
            cpu.enqueue(*this, core, highPriority);
        }

        static void
        sliceDone(Job *j)
        {
            auto *self = static_cast<ComputeAwaiter *>(j);
            if (self->left > Tick{0})
                self->startNext();
            else
                self->waiter.resume();
        }

        CpuSet &cpu;
        Tick left;
        Tick maxSlice;
        int core;
        bool highPriority;
        std::coroutine_handle<> waiter = nullptr;
    };

    /** Intrusive FIFO of Jobs. */
    struct JobQueue
    {
        Job *head = nullptr;
        Job *tail = nullptr;
        std::size_t size = 0;

        bool empty() const { return head == nullptr; }

        void
        push(Job &j)
        {
            j.next = nullptr;
            if (tail != nullptr)
                tail->next = &j;
            else
                head = &j;
            tail = &j;
            ++size;
        }

        Job &
        pop()
        {
            Job &j = *head;
            head = j.next;
            if (head == nullptr)
                tail = nullptr;
            --size;
            return j;
        }
    };

    /** A submit() completion callback, recycled through fnFree_. */
    struct FnJob : Job
    {
        explicit FnJob(CpuSet &c) : Job{Tick{0}, &FnJob::finished}, cpu(c)
        {}

        static void finished(Job *j);

        CpuSet &cpu;
        sim::SmallFn fn;
    };

    struct Core
    {
        Job *running = nullptr; ///< null while idle
        Tick runStart{};        ///< for tracing
        JobQueue high;          ///< pinned interrupt-class work
        JobQueue queue;         ///< pinned normal work
    };

    /** Start @p job now if a matching core is idle, else queue it. */
    void enqueue(Job &job, int core, bool highPriority);
    void startOn(unsigned core_idx, Job &job);
    void finishOn(unsigned core_idx);
    int findIdleCore() const;

    Simulation &sim_;
    sim::TraceWriter *tracer_ = nullptr;
    Tick quantum_;
    std::vector<Core> cores_;
    JobQueue globalHigh_;  ///< interrupt-class, any core
    JobQueue globalQueue_; ///< normal work for any core
    /** Every FnJob ever made; idle ones are chained on fnFree_. */
    std::vector<std::unique_ptr<FnJob>> fnJobs_;
    FnJob *fnFree_ = nullptr;
    unsigned busyCount_ = 0;
    Tick totalBusy_{};
    sim::stats::TimeWeighted busySignal_{0.0};
    sim::stats::Counter completed_;
};

} // namespace ioat::cpu

#endif // IOAT_CPU_CPU_HH
