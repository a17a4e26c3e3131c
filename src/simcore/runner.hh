/**
 * @file
 * The minimal "thing that advances simulated time" interface.
 *
 * Benches and harnesses drive a run through this, so the same
 * measurement code works whether the cluster lives on one
 * `sim::Simulation` (the classic single-threaded engine) or is
 * partitioned across worker threads by a `sim::ShardGroup`.
 */

#ifndef IOAT_SIMCORE_RUNNER_HH
#define IOAT_SIMCORE_RUNNER_HH

#include <atomic>
#include <cstdint>

#include "simcore/types.hh"

namespace ioat::sim {

/** Abstract event-loop driver: a clock that can be run forward. */
class Runner
{
  public:
    virtual ~Runner() = default;

    /** Current simulated time (for a shard group: the global floor). */
    virtual Tick now() const = 0;

    /** Run all events with time <= @p when, then advance to it. */
    virtual void runUntil(Tick when) = 0;

    /** Run for @p duration ticks past the current time. */
    void runFor(Tick duration) { runUntil(now() + duration); }

    /** Total events executed since construction (all shards). */
    virtual std::uint64_t executedEvents() const = 0;

    /**
     * Events executed by every engine of this process that has been
     * torn down so far, on any thread: each Simulation adds its count
     * when destroyed.  Benches report this total, so no run can go
     * uncounted.
     */
    static std::uint64_t
    retiredEvents()
    {
        return retired_.load(std::memory_order_relaxed);
    }

  protected:
    /** Add one engine's final executed-event count to the total. */
    static void
    retire(std::uint64_t events)
    {
        retired_.fetch_add(events, std::memory_order_relaxed);
    }

  private:
    inline static std::atomic<std::uint64_t> retired_{0};
};

} // namespace ioat::sim

#endif // IOAT_SIMCORE_RUNNER_HH
