#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t
TailRank(std::size_t n, double q)
{
    if (n == 0) {
        return 0;
    }
    const double nearest = std::ceil(q * static_cast<double>(n)) - 1.0;
    std::size_t rank =
        nearest <= 0.0 ? 0 : static_cast<std::size_t>(nearest);
    rank = std::min(rank, n - 1);
    const std::size_t supported = n > kTailSamples ? n - kTailSamples - 1 : 0;
    return std::min(rank, supported);
}

TailValue
Tail(std::vector<double> samples, double q)
{
    TailValue out;
    out.samples = samples.size();
    if (samples.empty()) {
        return out;
    }
    const std::size_t rank = TailRank(samples.size(), q);
    std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
    out.value = samples[rank];
    out.quantile = static_cast<double>(rank + 1) /
                   static_cast<double>(samples.size());
    return out;
}

double
Median(std::vector<double> samples)
{
    if (samples.empty()) {
        return 0.0;
    }
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

bool
StepMeetsSlo(const LadderStep& step, double limit_ms)
{
    return step.valid && step.sent > 0 && step.completed == step.sent &&
           step.rejected == 0 && step.expired == 0 && step.failed == 0 &&
           step.tail_ms <= limit_ms;
}

double
MaxRpsWithinSlo(std::vector<LadderStep> steps, double limit_ms)
{
    std::sort(steps.begin(), steps.end(),
              [](const LadderStep& a, const LadderStep& b) {
                  return a.rate < b.rate;
              });
    double best = 0.0;
    for (const LadderStep& step : steps) {
        if (!StepMeetsSlo(step, limit_ms)) {
            break;
        }
        best = step.rate;
    }
    return best;
}

double
ResidualMs(double execute_ms, double scan_ms, double kernel_ms)
{
    return execute_ms - scan_ms - kernel_ms;
}

double
SelfTime(const Interval& parent, std::vector<Interval> children)
{
    for (Interval& c : children) {
        c.begin = std::max(c.begin, parent.begin);
        c.end = std::min(c.end, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval& a, const Interval& b) {
                  return a.begin < b.begin;
              });
    double covered = 0.0;
    double reach = parent.begin;
    for (const Interval& c : children) {
        const double from = std::max(c.begin, reach);
        if (c.end > from) {
            covered += c.end - from;
            reach = c.end;
        }
    }
    return (parent.end - parent.begin) - covered;
}

double
OverheadPct(double untraced, double traced)
{
    return untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0;
}

}  // namespace perfbench
