/**
 * @file
 * CpuSet implementation: FIFO dispatch over N cores.
 */

#include "cpu/cpu.hh"

#include "simcore/assert.hh"

namespace ioat::cpu {

CpuSet::CpuSet(Simulation &sim, const CpuConfig &cfg)
    : sim_(sim), quantum_(cfg.preemptionQuantum),
      globalHigh_(workPool_), globalQueue_(workPool_)
{
    sim::simAssert(cfg.cores > 0, "CpuSet needs at least one core");
    sim::simAssert(cfg.preemptionQuantum > Tick{0},
                   "preemption quantum must be positive");
    cores_.reserve(cfg.cores);
    for (unsigned i = 0; i < cfg.cores; ++i)
        cores_.emplace_back(workPool_);
}

void
CpuSet::submit(Tick duration, int core, bool highPriority,
               sim::SmallFn done)
{
    sim::simAssert(core == kAnyCore ||
                       (core >= 0 &&
                        core < static_cast<int>(cores_.size())),
                   "CpuSet::submit: bad core id");
    const char *label = highPriority ? "softirq" : "app";

    // An idle core takes the completion straight away; only work that
    // has to wait becomes a queued WorkItem.
    if (core == kAnyCore) {
        const int idle = findIdleCore();
        if (idle >= 0)
            startOn(static_cast<unsigned>(idle), duration, label, done);
        else
            (highPriority ? globalHigh_ : globalQueue_)
                .emplace_back(duration, std::move(done), label);
        return;
    }

    auto &c = cores_[static_cast<unsigned>(core)];
    if (!c.busy)
        startOn(static_cast<unsigned>(core), duration, label, done);
    else
        (highPriority ? c.high : c.queue)
            .emplace_back(duration, std::move(done), label);
}

void
CpuSet::startOn(unsigned core_idx, Tick duration, const char *label,
                sim::SmallFn &done)
{
    auto &c = cores_[core_idx];
    sim::simAssert(!c.busy, "starting work on a busy core");
    c.busy = true;
    c.runStart = sim_.now();
    c.runLabel = label;
    // Park the completion on the core rather than in the finish
    // event's capture: the event then captures two words instead of a
    // whole SmallFn, keeping it inside the queue's inline budget.
    c.done = std::move(done);
    ++busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    totalBusy_ += duration;

    sim_.queue().scheduleIn(duration,
                            [this, core_idx] { finishOn(core_idx); });
}

void
CpuSet::finishOn(unsigned core_idx)
{
    auto &c = cores_[core_idx];
    sim::simAssert(c.busy, "finishing work on an idle core");
    if (tracer_) {
        tracer_->complete(c.runLabel, "cpu", c.runStart,
                          sim_.now() - c.runStart,
                          sim::TraceWriter::Lanes::core0 +
                              static_cast<int>(core_idx));
    }
    c.busy = false;
    --busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    completed_.inc();

    // The next item's startOn overwrites c.done, so move ours out
    // before dispatching; it still runs after the dispatch, exactly
    // as when the finish event carried it.
    sim::SmallFn done = std::move(c.done);

    // Interrupt-class work first (FIFO within each class), pinned
    // work ahead of the global pool.
    auto take = [&](RunQueue &q) {
        WorkItem &next = q.front();
        startOn(core_idx, next.duration, next.label, next.done);
        q.pop_front();
    };
    if (!c.high.empty())
        take(c.high);
    else if (!globalHigh_.empty())
        take(globalHigh_);
    else if (!c.queue.empty())
        take(c.queue);
    else if (!globalQueue_.empty())
        take(globalQueue_);

    if (done)
        done();
}

int
CpuSet::findIdleCore() const
{
    for (std::size_t i = 0; i < cores_.size(); ++i)
        if (!cores_[i].busy)
            return static_cast<int>(i);
    return -1;
}

double
CpuSet::utilization() const
{
    return busySignal_.average(sim_.now()) /
           static_cast<double>(cores_.size());
}

void
CpuSet::resetUtilizationWindow()
{
    busySignal_.resetWindow(sim_.now());
}

std::size_t
CpuSet::queuedWork() const
{
    std::size_t n = globalQueue_.size() + globalHigh_.size();
    for (const auto &c : cores_)
        n += c.queue.size() + c.high.size();
    return n;
}

} // namespace ioat::cpu
