/**
 * @file
 * CpuSet implementation: FIFO dispatch over N cores.
 */

#include "cpu/cpu.hh"

#include "simcore/assert.hh"

namespace ioat::cpu {

CpuSet::CpuSet(Simulation &sim, const CpuConfig &cfg)
    : sim_(sim), quantum_(cfg.preemptionQuantum), cores_(cfg.cores)
{
    sim::simAssert(cfg.cores > 0, "CpuSet needs at least one core");
    sim::simAssert(cfg.preemptionQuantum > Tick{0},
                   "preemption quantum must be positive");
}

void
CpuSet::submit(Tick duration, int core, bool highPriority,
               sim::SmallFn done)
{
    if (fnFree_ == nullptr) {
        fnJobs_.push_back(std::make_unique<FnJob>(*this));
        fnFree_ = fnJobs_.back().get();
    }
    FnJob &job = *fnFree_;
    fnFree_ = static_cast<FnJob *>(job.next);
    job.duration = duration;
    job.fn = std::move(done);
    enqueue(job, core, highPriority);
}

void
CpuSet::FnJob::finished(Job *j)
{
    auto *self = static_cast<FnJob *>(j);
    if (self->fn)
        self->fn();
    self->fn.reset();
    self->next = self->cpu.fnFree_;
    self->cpu.fnFree_ = self;
}

void
CpuSet::enqueue(Job &job, int core, bool highPriority)
{
    sim::simAssert(core == kAnyCore ||
                       (core >= 0 &&
                        core < static_cast<int>(cores_.size())),
                   "CpuSet: bad core id");
    job.label = highPriority ? "softirq" : "app";

    if (core == kAnyCore) {
        const int idle = findIdleCore();
        if (idle >= 0)
            startOn(static_cast<unsigned>(idle), job);
        else
            (highPriority ? globalHigh_ : globalQueue_).push(job);
        return;
    }

    auto &c = cores_[static_cast<unsigned>(core)];
    if (c.running == nullptr)
        startOn(static_cast<unsigned>(core), job);
    else
        (highPriority ? c.high : c.queue).push(job);
}

void
CpuSet::startOn(unsigned core_idx, Job &job)
{
    auto &c = cores_[core_idx];
    sim::simAssert(c.running == nullptr, "starting work on a busy core");
    c.running = &job;
    c.runStart = sim_.now();
    ++busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    totalBusy_ += job.duration;

    sim_.queue().scheduleIn(job.duration,
                            [this, core_idx] { finishOn(core_idx); });
}

void
CpuSet::finishOn(unsigned core_idx)
{
    auto &c = cores_[core_idx];
    sim::simAssert(c.running != nullptr, "finishing work on an idle core");
    Job &done = *c.running;
    if (tracer_) {
        tracer_->complete(done.label, "cpu", c.runStart,
                          sim_.now() - c.runStart,
                          sim::TraceWriter::Lanes::core0 +
                              static_cast<int>(core_idx));
    }
    c.running = nullptr;
    --busyCount_;
    busySignal_.update(sim_.now(), static_cast<double>(busyCount_));
    completed_.inc();

    // Start the next Job (drawing its finish event's sequence number)
    // before the finished one's completion runs: whatever that
    // completion schedules orders after the core's next finish.
    // Interrupt-class work first (FIFO within each class), pinned
    // work ahead of the global pool.
    if (!c.high.empty())
        startOn(core_idx, c.high.pop());
    else if (!globalHigh_.empty())
        startOn(core_idx, globalHigh_.pop());
    else if (!c.queue.empty())
        startOn(core_idx, c.queue.pop());
    else if (!globalQueue_.empty())
        startOn(core_idx, globalQueue_.pop());

    done.complete(&done);
}

int
CpuSet::findIdleCore() const
{
    for (std::size_t i = 0; i < cores_.size(); ++i)
        if (cores_[i].running == nullptr)
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
    std::size_t n = globalQueue_.size + globalHigh_.size;
    for (const auto &c : cores_)
        n += c.queue.size + c.high.size;
    return n;
}

} // namespace ioat::cpu
