/**
 * @file
 * The benchmark's own arithmetic: order statistics, the serving-ladder
 * rule, attribution residuals, span self time and tracing overhead.
 * Kept free of dbscore types so selftest.cc can check it in isolation.
 */
#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/** A tail percentile is only read where this many samples lie beyond it. */
inline constexpr std::size_t kTailSamples = 10;

/**
 * Index into @p n ascending samples for quantile @p q: the nearest rank
 * (ceil(q n) - 1), lowered until at least kTailSamples samples lie
 * beyond it, and clamped to 0. With n >= kTailSamples / (1 - q) this is
 * the plain nearest rank; with fewer samples it reads the highest
 * percentile the sample supports.
 */
std::size_t TailRank(std::size_t n, double q);

/** A tail read: the value, the quantile it really is, and the sample size. */
struct TailValue {
    double value = 0.0;
    double quantile = 0.0;
    std::size_t samples = 0;
};

/** Applies TailRank to @p samples (any order). Empty input reads 0. */
TailValue Tail(std::vector<double> samples, double q);

/** Middle value (mean of the two middle values for even sizes); 0 if empty. */
double Median(std::vector<double> samples);

/** One rung of an open-loop rate ladder, as the generator accounted it. */
struct LadderStep {
    double rate = 0.0;         ///< offered requests per second
    double tail_ms = 0.0;      ///< latency at the limit's percentile
    std::uint64_t sent = 0;
    std::uint64_t completed = 0;
    std::uint64_t rejected = 0;
    std::uint64_t expired = 0;
    std::uint64_t failed = 0;  ///< errors plus wrong results
    bool valid = true;         ///< false when the generator fell behind
};

/** True when @p step was valid, lost nothing and met @p limit_ms. */
bool StepMeetsSlo(const LadderStep& step, double limit_ms);

/**
 * Highest rate at which that rung and every lower rung meet the limit;
 * 0 when the lowest rung already misses. @p steps need not be sorted.
 */
double MaxRpsWithinSlo(std::vector<LadderStep> steps, double limit_ms);

/**
 * Executor time left once the separately measured scan and kernel time
 * over the same rows is taken out. Not clamped: a negative value means
 * the layer probes cost more in isolation than inside the executor.
 */
double ResidualMs(double execute_ms, double scan_ms, double kernel_ms);

/** A closed interval of wall time, in any unit. */
struct Interval {
    double begin = 0.0;
    double end = 0.0;
};

/**
 * Self time of @p parent: its length minus the part of it that the
 * union of @p children covers (children are clipped to the parent and
 * may overlap one another).
 */
double SelfTime(const Interval& parent, std::vector<Interval> children);

/** Percent by which the traced median exceeds the untraced one. */
double OverheadPct(double untraced, double traced);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H
