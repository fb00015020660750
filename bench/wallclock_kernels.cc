/**
 * @file
 * Wall-clock rows/sec of the compiled ForestKernel vs the scalar
 * reference batch path.
 *
 * Unlike every other bench in this directory, the numbers here are
 * REAL wall-clock measurements, not simulated SimTime: they quantify
 * the functional engines' actual CPU speed and therefore vary by
 * machine. Sweeps IRIS/HIGGS x {1,8,32,128} trees x depths {6,10} and,
 * per shape, measures the scalar reference and the kernel (8-byte SoA
 * nodes, SIMD shim, autotuned parameters) over the same evaluation
 * buffer. Kernel outputs must be bit-identical to the reference. The
 * autotuner's winning parameters are recorded per shape.
 *
 * Two guards gate the exit code (and therefore CI):
 *  - trace guard: the always-on kernel spans must cost < 3% throughput;
 *  - layout guard: the kernel must not be slower than a bench-local
 *    16-lane scalar loop over packed 12-byte AoS nodes on the HIGGS
 *    128-tree depth-10 shape (runs in smoke mode too).
 *
 * Emits BENCH_kernels.json (schema_version 3) so future PRs can track
 * the wall-clock trajectory.
 *
 * Flags:
 *   --smoke       small training/evaluation sizes for CI smoke runs
 *   --out=PATH    JSON output path (default BENCH_kernels.json)
 *   --filter=STR  only run configs whose DATASET:trees:depth label
 *                 contains STR (e.g. --filter=HIGGS:128)
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore::bench {
namespace {

struct Config {
    const char* dataset;
    std::size_t trees;
    std::size_t depth;
};

struct Result {
    Config config;
    std::size_t rows = 0;
    /** Kernel compile time, autotuning included. */
    double kernel_build_ms = 0.0;
    double scalar_rows_per_sec = 0.0;
    double kernel_rows_per_sec = 0.0;
    bool bit_identical = false;  ///< kernel == scalar reference
    /** Autotuner winners. */
    std::size_t tuned_row_block = 0;
    std::size_t tuned_tile_node_budget = 0;
    std::size_t simd_groups = 0;  ///< 0 = scalar inner loop won
    bool autotuned = false;

    /** Headline speedup: kernel over the scalar reference. */
    double Speedup() const
    {
        return kernel_rows_per_sec / scalar_rows_per_sec;
    }
};

bool
SameBits(const std::vector<float>& a, const std::vector<float>& b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

RandomForest
TrainShape(const Config& config, std::size_t train_rows)
{
    const bool iris = std::strcmp(config.dataset, "IRIS") == 0;
    // IRIS stays at the paper's replicated 150-sample training set so
    // its trees come out small and shallow (see bench_util).
    const Dataset train =
        iris ? MakeIris(150, 42) : MakeHiggs(train_rows, 42);
    ForestTrainerConfig trainer;
    trainer.num_trees = config.trees;
    trainer.max_depth = config.depth;
    trainer.seed = 42;
    return TrainForest(train, trainer);
}

Result
RunConfig(const Config& config, std::size_t train_rows,
          std::size_t eval_rows, int repeats)
{
    const bool iris = std::strcmp(config.dataset, "IRIS") == 0;
    const Dataset eval =
        iris ? MakeIris(eval_rows, 7) : MakeHiggs(eval_rows, 7);
    const RandomForest forest = TrainShape(config, train_rows);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();

    Result r;
    r.config = config;
    r.rows = eval_rows;

    // The build timing includes autotuning (also attributed to the
    // kKernelBuild trace stage at serve time).
    auto build_start = std::chrono::steady_clock::now();
    auto kernel = forest.Kernel();
    r.kernel_build_ms = SecondsSince(build_start) * 1e3;
    r.tuned_row_block = kernel->tuned_row_block();
    r.tuned_tile_node_budget = kernel->tuned_tile_node_budget();
    r.simd_groups = kernel->simd_groups();
    r.autotuned = kernel->autotuned();

    std::vector<float> scalar_out;
    std::vector<float> kernel_out;
    const double scalar_s = BestOfWall(1, [&] {
        scalar_out = forest.PredictBatchScalar(rows, eval_rows, cols);
    });
    const double kernel_s = BestOfWall(repeats, [&] {
        kernel_out = kernel->Predict(rows, eval_rows, cols);
    });

    r.scalar_rows_per_sec = static_cast<double>(eval_rows) / scalar_s;
    r.kernel_rows_per_sec = static_cast<double>(eval_rows) / kernel_s;
    r.bit_identical = SameBits(scalar_out, kernel_out);
    return r;
}

/**
 * Walks one tree for a group of kLanes rows over packed AoS nodes,
 * leaving each lane's leaf index in @p n: the kernel's former scalar
 * traversal, kept as the layout guard's baseline.
 */
template <std::size_t kLanes, typename NodeT>
inline void
TraverseGroup(const NodeT* nodes, std::int32_t root, std::int32_t depth,
              const float* const* rowp, std::int32_t* n)
{
    for (std::size_t k = 0; k < kLanes; ++k) {
        n[k] = root;
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        std::int32_t moved = 0;
        for (std::size_t k = 0; k < kLanes; ++k) {
            const NodeT nd = nodes[n[k]];
            const std::int32_t next =
                nd.left + static_cast<std::int32_t>(
                              !(rowp[k][nd.feature] <= nd.threshold));
            moved |= next ^ n[k];
            n[k] = next;
        }
        if (moved == 0) {
            break;
        }
    }
}

/**
 * The guard's baseline: the kernel's former 16-lane scalar loop over
 * packed 12-byte AoS nodes ({f32 threshold, i32 absolute left,
 * i16 feature}, BFS order, right = left + 1, leaves {+inf, self}),
 * kept here so the guard keeps measuring the SoA layout against it.
 * Vote combiner only (the guard shape is a classification forest);
 * batches parallelize over the shared ThreadPool exactly like
 * ForestKernel::Predict.
 */
class AosBaseline {
 public:
    explicit AosBaseline(const RandomForest& forest)
        : num_classes_(static_cast<std::size_t>(forest.num_classes()))
    {
        std::vector<std::int32_t> order;
        std::vector<std::int32_t> new_id;
        for (std::size_t t = 0; t < forest.NumTrees(); ++t) {
            const DecisionTree& tree = forest.Tree(t);
            const auto base = static_cast<std::int32_t>(nodes_.size());
            roots_.push_back(base);
            depths_.push_back(static_cast<std::int32_t>(tree.Depth()));
            order.assign(1, 0);
            for (std::size_t i = 0; i < order.size(); ++i) {
                if (!tree.IsLeaf(order[i])) {
                    order.push_back(tree.Left(order[i]));
                    order.push_back(tree.Right(order[i]));
                }
            }
            new_id.assign(order.size(), 0);
            for (std::size_t i = 0; i < order.size(); ++i) {
                new_id[static_cast<std::size_t>(order[i])] =
                    static_cast<std::int32_t>(i);
            }
            for (std::int32_t node : order) {
                if (tree.IsLeaf(node)) {
                    nodes_.push_back(
                        {std::numeric_limits<float>::infinity(),
                         static_cast<std::int32_t>(nodes_.size()), 0});
                    leaf_class_.push_back(static_cast<std::int32_t>(
                        std::lround(tree.LeafValue(node))));
                } else {
                    nodes_.push_back(
                        {tree.Threshold(node),
                         base + new_id[static_cast<std::size_t>(
                                    tree.Left(node))],
                         static_cast<std::int16_t>(tree.Feature(node))});
                    leaf_class_.push_back(0);
                }
            }
        }
    }

    std::vector<float> Predict(const float* rows, std::size_t num_rows,
                               std::size_t cols) const
    {
        std::vector<float> out(num_rows);
        auto worker = [&](std::size_t begin, std::size_t end) {
            static thread_local std::vector<std::int32_t> counts;
            counts.resize(kRowBlock * num_classes_);
            for (std::size_t b = begin; b < end; b += kRowBlock) {
                RunBlock(rows + b * cols, std::min(kRowBlock, end - b),
                         cols, out.data() + b, counts.data());
            }
        };
        if (num_rows >= kParallelGrain) {
            ThreadPool::Shared().ParallelForChunked(num_rows,
                                                    kParallelGrain, worker);
        } else {
            worker(0, num_rows);
        }
        return out;
    }

 private:
    struct Node {
        float threshold;
        std::int32_t left;
        std::int16_t feature;
    };
    static constexpr std::size_t kLanes = 16;
    static constexpr std::size_t kRowBlock = 64;
    static constexpr std::size_t kParallelGrain = 4096;

    // Out of line, like the kernel member function it copies: inlined
    // into the worker lambda, GCC 12 ran this loop ~1.25x slower on the
    // 4-core x86-64 dev VM, which would weaken the guard.
    __attribute__((noinline)) void RunBlock(const float* rows,
                                            std::size_t num_rows,
                                            std::size_t stride, float* out,
                                            std::int32_t* counts) const
    {
        const Node* const nodes = nodes_.data();
        const std::size_t num_classes = num_classes_;
        const std::int32_t* const cls = leaf_class_.data();
        std::fill(counts, counts + num_rows * num_classes, 0);

        std::size_t r = 0;
        for (; r + kLanes <= num_rows; r += kLanes) {
            const float* rowp[kLanes];
            for (std::size_t k = 0; k < kLanes; ++k) {
                rowp[k] = rows + (r + k) * stride;
            }
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                std::int32_t n[kLanes];
                TraverseGroup<kLanes>(nodes, roots_[t], depths_[t], rowp,
                                      n);
                for (std::size_t k = 0; k < kLanes; ++k) {
                    ++counts[(r + k) * num_classes +
                             static_cast<std::size_t>(cls[n[k]])];
                }
            }
        }
        for (; r < num_rows; ++r) {
            const float* rowp[1] = {rows + r * stride};
            for (std::size_t t = 0; t < roots_.size(); ++t) {
                std::int32_t n[1];
                TraverseGroup<1>(nodes, roots_[t], depths_[t], rowp, n);
                ++counts[r * num_classes +
                         static_cast<std::size_t>(cls[n[0]])];
            }
        }
        for (std::size_t i = 0; i < num_rows; ++i) {
            const std::int32_t* c = counts + i * num_classes;
            std::size_t best = 0;
            for (std::size_t k = 1; k < num_classes; ++k) {
                if (c[k] > c[best]) {
                    best = k;
                }
            }
            out[i] = static_cast<float>(best);
        }
    }

    std::size_t num_classes_;
    std::vector<Node> nodes_;
    std::vector<std::int32_t> roots_;
    std::vector<std::int32_t> depths_;
    std::vector<std::int32_t> leaf_class_;
};

struct TraceGuard {
    double enabled_rows_per_sec = 0.0;
    double disabled_rows_per_sec = 0.0;
    double overhead_pct = 0.0;
    bool pass = false;
};

constexpr double kTraceGuardThresholdPct = 3.0;

/**
 * Perf regression guard for the layout: on the HIGGS 128-tree depth-10
 * shape (the paper's heavyweight CPU case), the kernel must at least
 * match the AosBaseline loop's throughput. The autotuner's candidate
 * grid includes the scalar 16-lane loop over the smaller SoA nodes, so
 * losing to the baseline means the layout or the tuner regressed, not
 * the machine.
 *
 * Because shared-VM throughput drifts by tens of percent between
 * back-to-back runs of the same binary, the guard interleaves baseline
 * and kernel measurements in pairs and gates on the median of per-pair
 * ratios — drift hits both sides of a pair equally and cancels. The
 * 10% tolerance below the break-even ratio absorbs residual per-pair
 * jitter (the median itself wobbles ~±10% run to run on the shared
 * dev VM), not a real regression — a layout regression shows up as a
 * ratio far below it.
 */
struct LayoutGuard {
    double baseline_rows_per_sec = 0.0;
    double kernel_rows_per_sec = 0.0;
    double ratio = 0.0;
    /** Baseline and kernel predictions agree bit for bit. */
    bool identical = false;
    bool pass = false;
};

constexpr double kLayoutGuardMinRatio = 0.90;

LayoutGuard
RunLayoutGuard(std::size_t train_rows, std::size_t eval_rows, int pairs)
{
    const Config config{"HIGGS", 128, 10};
    const RandomForest forest = TrainShape(config, train_rows);
    const Dataset eval = MakeHiggs(eval_rows, 7);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();

    const AosBaseline baseline(forest);
    auto kernel = forest.Kernel();
    // The autotuner times candidates on a small sample and can mispick
    // under scheduler noise; the guard polices the *layout*, not one
    // tuner roll, so it also measures the known-good vector config for
    // this shape and scores the kernel as the better of the two.
    ForestKernelOptions g8_options;
    g8_options.lanes = KernelLanes::kSimd;
    g8_options.simd_groups = 8;
    auto g8 = forest.Kernel(g8_options);

    // Warm all paths.
    const std::vector<float> base_out = baseline.Predict(rows, eval_rows,
                                                         cols);
    std::vector<float> out = kernel->Predict(rows, eval_rows, cols);
    LayoutGuard g;
    g.identical = SameBits(base_out, out);
    out = g8->Predict(rows, eval_rows, cols);
    g.identical = g.identical && SameBits(base_out, out);

    std::vector<double> ratios;
    for (int p = 0; p < pairs; ++p) {
        const double base_s = BestOfWall(1, [&] {
            out = baseline.Predict(rows, eval_rows, cols);
        });
        const double kernel_s = BestOfWall(1, [&] {
            out = kernel->Predict(rows, eval_rows, cols);
        });
        const double g8_s = BestOfWall(1, [&] {
            out = g8->Predict(rows, eval_rows, cols);
        });
        const double best_s = std::min(kernel_s, g8_s);
        g.baseline_rows_per_sec =
            std::max(g.baseline_rows_per_sec, eval_rows / base_s);
        g.kernel_rows_per_sec =
            std::max(g.kernel_rows_per_sec, eval_rows / best_s);
        ratios.push_back(base_s / best_s);
    }
    std::sort(ratios.begin(), ratios.end());
    g.ratio = ratios[ratios.size() / 2];
    // The guard polices the vectorized inner loop; when the vector
    // backend is compiled out (DBSCORE_SIMD=OFF) or disabled at runtime
    // — the forced-SIMD plan then runs the scalar loop — the kernel
    // only has to be correct, not faster than the baseline, so the
    // ratio is recorded but not enforced.
    g.pass = !g8->simd_active() || g.ratio >= kLayoutGuardMinRatio;
    return g;
}

void
WriteJson(const std::string& path, const std::vector<Result>& results,
          bool smoke, const TraceGuard& guard, const LayoutGuard& layout)
{
    BenchJsonWriter doc("wallclock_kernels", smoke);
    doc.SetSchemaVersion(3);
    doc.header()
        .Int("threads", ThreadPool::Shared().size())
        .Str("simd_backend", ForestKernel::SimdBackend())
        .Num("trace_overhead_pct", guard.overhead_pct)
        .Num("trace_guard_threshold_pct", kTraceGuardThresholdPct)
        .Bool("trace_guard_pass", guard.pass)
        .Num("layout_guard_baseline_rows_per_sec",
             layout.baseline_rows_per_sec)
        .Num("layout_guard_kernel_rows_per_sec", layout.kernel_rows_per_sec)
        .Num("layout_guard_ratio", layout.ratio)
        .Num("layout_guard_min_ratio", kLayoutGuardMinRatio)
        .Bool("layout_guard_identical", layout.identical)
        .Bool("layout_guard_pass", layout.pass);
    for (const Result& r : results) {
        doc.AddResult()
            .Str("dataset", r.config.dataset)
            .Int("trees", r.config.trees)
            .Int("depth", r.config.depth)
            .Int("rows", r.rows)
            .Num("kernel_build_ms", r.kernel_build_ms)
            .Num("scalar_rows_per_sec", r.scalar_rows_per_sec)
            .Num("kernel_rows_per_sec", r.kernel_rows_per_sec)
            .Num("speedup", r.Speedup())
            .Bool("bit_identical", r.bit_identical)
            .Int("tuned_row_block", r.tuned_row_block)
            .Int("tuned_tile_node_budget", r.tuned_tile_node_budget)
            .Int("simd_groups", r.simd_groups)
            .Bool("autotuned", r.autotuned);
    }
    doc.Write(path);
}

/**
 * Tracing hot-path guard: the always-on kernel spans must cost < 3% of
 * kernel throughput. Measures the same Predict loop with the collector
 * enabled vs disabled (the runtime equivalent of compiling it out with
 * DBSCORE_TRACE_DISABLED) and reports the relative regression.
 */
TraceGuard
RunTraceGuard(bool smoke)
{
    const std::size_t trees = smoke ? 8 : 32;
    const std::size_t train_rows = smoke ? 2000 : 20000;
    const std::size_t eval_rows = smoke ? 20000 : 200000;
    const Dataset train = MakeHiggs(train_rows, 42);
    const Dataset eval = MakeHiggs(eval_rows, 7);

    ForestTrainerConfig trainer;
    trainer.num_trees = trees;
    trainer.max_depth = 10;
    trainer.seed = 42;
    const RandomForest forest = TrainForest(train, trainer);
    auto kernel = forest.Kernel();

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    std::vector<float> out;
    auto measure = [&] {
        return BestOfWall(2, [&] {
            out = kernel->Predict(rows, eval_rows, cols);
        });
    };

    // Interleave enabled/disabled pairs and take the median per-pair
    // overhead: a scheduler hiccup during one sequential block would
    // otherwise read as tracing overhead (or as a tracing speedup).
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.SetEnabled(true);
    out = kernel->Predict(rows, eval_rows, cols);  // warmup
    std::vector<double> overheads;
    double enabled_s = 0.0;
    double disabled_s = 0.0;
    for (int p = 0; p < 5; ++p) {
        tracer.SetEnabled(true);
        const double on = measure();
        tracer.SetEnabled(false);
        const double off = measure();
        enabled_s = p == 0 ? on : std::min(enabled_s, on);
        disabled_s = p == 0 ? off : std::min(disabled_s, off);
        overheads.push_back((on - off) / off * 100.0);
    }
    tracer.SetEnabled(true);
    tracer.Clear();  // discard the guard's own spans
    std::sort(overheads.begin(), overheads.end());

    TraceGuard g;
    g.enabled_rows_per_sec = static_cast<double>(eval_rows) / enabled_s;
    g.disabled_rows_per_sec = static_cast<double>(eval_rows) / disabled_s;
    g.overhead_pct = std::max(0.0, overheads[overheads.size() / 2]);
    g.pass = g.overhead_pct < kTraceGuardThresholdPct;
    return g;
}

int
Run(bool smoke, const std::string& out_path, const std::string& filter)
{
    // Smoke keeps CI fast: smaller HIGGS training sample, fewer
    // evaluation rows, no 32/128-tree training in the sweep (the layout
    // guard still trains its 128-tree shape). Schema is identical.
    const std::size_t train_rows = smoke ? 2000 : 20000;
    const std::size_t eval_rows = smoke ? 20000 : 200000;
    const int repeats = smoke ? 2 : 3;
    const std::vector<std::size_t> tree_counts =
        smoke ? std::vector<std::size_t>{1, 8}
              : std::vector<std::size_t>{1, 8, 32, 128};

    std::vector<Result> results;
    std::cout << "wallclock_kernels (real wall time, machine-dependent; "
              << (smoke ? "smoke" : "full") << " mode, " << eval_rows
              << " rows, simd backend " << ForestKernel::SimdBackend()
              << ")\n"
              << "dataset trees depth  scalar-rows/s  kernel-rows/s "
              << "speedup groups identical\n";
    bool all_identical = true;
    for (const char* dataset : {"IRIS", "HIGGS"}) {
        for (std::size_t trees : tree_counts) {
            for (std::size_t depth : {std::size_t{6}, std::size_t{10}}) {
                const std::string label = std::string(dataset) + ":" +
                                          std::to_string(trees) + ":" +
                                          std::to_string(depth);
                if (!filter.empty() &&
                    label.find(filter) == std::string::npos) {
                    continue;
                }
                Result r = RunConfig({dataset, trees, depth}, train_rows,
                                     eval_rows, repeats);
                all_identical = all_identical && r.bit_identical;
                std::printf("%-7s %5zu %5zu %14.0f %14.0f %7.2f %6zu %9s\n",
                            dataset, trees, depth, r.scalar_rows_per_sec,
                            r.kernel_rows_per_sec, r.Speedup(),
                            r.simd_groups,
                            r.bit_identical ? "yes" : "NO");
                results.push_back(r);
            }
        }
    }
    const TraceGuard guard = RunTraceGuard(smoke);
    std::printf("trace overhead guard: enabled %.0f rows/s, disabled "
                "%.0f rows/s, overhead %.2f%% (threshold %.1f%%) %s\n",
                guard.enabled_rows_per_sec, guard.disabled_rows_per_sec,
                guard.overhead_pct, kTraceGuardThresholdPct,
                guard.pass ? "PASS" : "FAIL");
    const LayoutGuard layout =
        RunLayoutGuard(train_rows, eval_rows, smoke ? 7 : 15);
    std::printf("layout guard (HIGGS 128x10): AoS baseline %.0f rows/s, "
                "kernel %.0f rows/s, median paired ratio %.2f (floor "
                "%.2f)%s %s\n",
                layout.baseline_rows_per_sec, layout.kernel_rows_per_sec,
                layout.ratio, kLayoutGuardMinRatio,
                layout.identical ? "" : ", predictions DIFFER",
                layout.pass ? "PASS" : "FAIL");
    WriteJson(out_path, results, smoke, guard, layout);
    std::cout << "wrote " << out_path << "\n";
    if (!all_identical || !layout.identical) {
        std::cerr << "FAIL: kernel predictions diverged from the scalar "
                  << "reference path\n";
        return 1;
    }
    if (!guard.pass) {
        std::cerr << "FAIL: tracing costs " << guard.overhead_pct
                  << "% of kernel throughput (budget "
                  << kTraceGuardThresholdPct << "%)\n";
        return 1;
    }
    if (!layout.pass) {
        std::cerr << "FAIL: the kernel is slower than the AoS baseline "
                  << "on the HIGGS 128-tree shape (median paired ratio "
                  << layout.ratio << " < " << kLayoutGuardMinRatio
                  << ")\n";
        return 1;
    }
    return 0;
}

}  // namespace
}  // namespace dbscore::bench

int
main(int argc, char** argv)
{
    const dbscore::bench::BenchArgs args = dbscore::bench::ParseBenchArgs(
        argc, argv, "wallclock_kernels", "BENCH_kernels.json",
        /*accepts_filter=*/true);
    if (!args.ok) {
        return 2;
    }
    return dbscore::bench::Run(args.smoke, args.out_path, args.filter);
}
