// Fixture: an allow(raw-thread) waiver must silence the finding and
// be counted against the suppression budget.
#include <atomic>

// simlint: allow(raw-thread) interop shim for a threaded host library
std::atomic<int> interopFlag{0};

int
suppressedThreading()
{
    return 1;
}
