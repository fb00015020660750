/**
 * @file
 * Self-tests for the benchmark's own arithmetic (stats.h). run.py runs
 * this before every benchmark run; a failure stops the run.
 */
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
Expect(bool ok, const char* what)
{
    if (!ok) {
        std::fprintf(stderr, "selftest FAILED: %s\n", what);
        ++failures;
    }
}

bool
Near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
Ramp(std::size_t n)
{
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) {
        v.push_back(static_cast<double>(i));  // n..1, unsorted on purpose
    }
    return v;
}

void
TestTailRank()
{
    using perfbench::TailRank;
    // Enough samples: the plain nearest rank.
    Expect(TailRank(1000, 0.99) == 989, "p99 of 1000 is rank 989");
    Expect(TailRank(200, 0.95) == 189, "p95 of 200 is rank 189");
    Expect(TailRank(100, 0.5) == 49, "p50 of 100 is rank 49");
    // Too few: lowered so ten samples stay beyond it.
    Expect(TailRank(500, 0.99) == 489, "p99 of 500 keeps 10 beyond");
    Expect(TailRank(100, 0.95) == 89, "p95 of 100 keeps 10 beyond");
    Expect(TailRank(11, 0.99) == 0, "11 samples read the minimum");
    Expect(TailRank(5, 0.99) == 0, "under 11 samples clamp to 0");
    Expect(TailRank(0, 0.99) == 0, "empty input");
    for (std::size_t n = 11; n < 3000; n += 7) {
        const std::size_t r = TailRank(n, 0.99);
        Expect(n - 1 - r >= perfbench::kTailSamples,
               "at least ten samples beyond every tail rank");
    }

    const perfbench::TailValue t = perfbench::Tail(Ramp(1000), 0.99);
    Expect(Near(t.value, 990.0), "Tail reads the 990th smallest of 1..1000");
    Expect(Near(t.quantile, 0.99), "Tail reports the quantile it read");
    Expect(t.samples == 1000, "Tail reports the sample count");
    const perfbench::TailValue few = perfbench::Tail(Ramp(100), 0.99);
    Expect(Near(few.value, 90.0) && Near(few.quantile, 0.90),
           "a p99 of 100 samples reads p90");
    Expect(Near(perfbench::Median({3.0, 1.0, 2.0}), 2.0), "odd median");
    Expect(Near(perfbench::Median({4.0, 1.0, 2.0, 3.0}), 2.5), "even median");
    Expect(Near(perfbench::Median({}), 0.0), "empty median");
}

perfbench::LadderStep
Step(double rate, double tail_ms)
{
    perfbench::LadderStep s;
    s.rate = rate;
    s.tail_ms = tail_ms;
    s.sent = 100;
    s.completed = 100;
    return s;
}

void
TestLadder()
{
    using perfbench::MaxRpsWithinSlo;
    Expect(Near(MaxRpsWithinSlo({Step(250, 3), Step(500, 60), Step(1000, 5)},
                                10.0),
                250.0),
           "a passing rung above a failing one does not count");
    Expect(Near(MaxRpsWithinSlo({Step(1000, 5), Step(250, 3), Step(500, 4)},
                                10.0),
                1000.0),
           "rungs are ordered by rate");
    Expect(Near(MaxRpsWithinSlo({Step(250, 11)}, 10.0), 0.0),
           "a failing lowest rung gives 0");
    Expect(Near(MaxRpsWithinSlo({Step(250, 10)}, 10.0), 250.0),
           "the limit itself passes");

    perfbench::LadderStep rejected = Step(500, 1);
    rejected.rejected = 1;
    rejected.completed = 99;
    Expect(Near(MaxRpsWithinSlo({Step(250, 1), rejected}, 10.0), 250.0),
           "a rejection fails the rung");
    perfbench::LadderStep expired = Step(500, 1);
    expired.expired = 1;
    Expect(!perfbench::StepMeetsSlo(expired, 10.0), "an expiry fails");
    perfbench::LadderStep failed = Step(500, 1);
    failed.failed = 1;
    Expect(!perfbench::StepMeetsSlo(failed, 10.0), "a failure fails");
    perfbench::LadderStep late = Step(500, 1);
    late.valid = false;
    Expect(!perfbench::StepMeetsSlo(late, 10.0),
           "a rung whose generator fell behind fails");
    perfbench::LadderStep empty = Step(500, 0);
    empty.sent = empty.completed = 0;
    Expect(!perfbench::StepMeetsSlo(empty, 10.0), "an empty rung fails");
}

void
TestAttribution()
{
    Expect(Near(perfbench::ResidualMs(10.0, 4.0, 3.5), 2.5), "residual");
    Expect(Near(perfbench::ResidualMs(5.0, 4.0, 3.0), -2.0),
           "a negative residual is reported, not hidden");

    using perfbench::Interval;
    using perfbench::SelfTime;
    Expect(Near(SelfTime({0, 10}, {}), 10.0), "no children");
    Expect(Near(SelfTime({0, 10}, {{1, 3}, {5, 6}}), 7.0), "disjoint children");
    Expect(Near(SelfTime({0, 10}, {{1, 4}, {2, 6}}), 5.0),
           "overlapping children count once");
    Expect(Near(SelfTime({0, 10}, {{2, 3}, {1, 8}}), 3.0),
           "a nested child counts once");
    Expect(Near(SelfTime({0, 10}, {{-5, 2}, {9, 20}}), 7.0),
           "children are clipped to the parent");
    Expect(Near(SelfTime({0, 10}, {{0, 10}}), 0.0), "fully covered");
}

void
TestOverhead()
{
    Expect(Near(perfbench::OverheadPct(10.0, 10.5), 5.0), "5% overhead");
    Expect(Near(perfbench::OverheadPct(10.0, 9.0), -10.0),
           "a faster traced run reads negative");
    Expect(Near(perfbench::OverheadPct(0.0, 1.0), 0.0), "no baseline");
}

}  // namespace

int
main()
{
    TestTailRank();
    TestLadder();
    TestAttribution();
    TestOverhead();
    if (failures > 0) {
        std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
        return 1;
    }
    std::fprintf(stderr, "selftest: ok\n");
    return 0;
}
