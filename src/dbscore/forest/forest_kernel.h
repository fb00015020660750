/**
 * @file
 * ForestKernel: a compiled, allocation-free batch inference plan for
 * tree ensembles (random forests and GBDTs).
 *
 * The reference RandomForest::Predict walks one tree at a time through
 * per-tree std::vector storage — five vector-header dereferences per
 * tree per row and a working set that revisits the whole ensemble for
 * every row. ForestKernel compiles the ensemble once into one flat
 * node pool with every tree's nodes in level (BFS) order, so the first
 * K levels of a tree — the part every row traverses — occupy a
 * contiguous prefix of its node range. BFS emits siblings adjacently,
 * so the right child is implicitly left + 1 and the descend step is
 * branchless integer arithmetic:
 * n = left[n] + !(row[feature[n]] <= threshold[n]), which matches the
 * reference "x <= t goes left, else (including NaN) right" exactly.
 *
 * Each node is one interleaved 8-byte word ({f32 threshold} +
 * {feat:15|left:17} packed i32 with a tree-local left index), laid out
 * for SIMD gathers. The inner loop steps groups of rows per tree,
 * either through the simd.h shim (AVX2/NEON/scalar; 8-row groups, a
 * blended descend n = left - (x > t ? -1 : 0) as a SIMD mask subtract)
 * or as 16/32/64 independent scalar lanes, with a whole-group early
 * exit once every lane parks on its self-looping leaf. A build-time
 * autotuner (see kernel_autotune.h) benchmarks (row_block,
 * tile_node_budget, lane width) candidates on a deterministic
 * synthetic sample and caches the winner per model shape.
 *
 * Predictions are bit-identical to the reference scalar path: every
 * row visits the trees in ensemble order, so regression sums (double
 * accumulation in tree order) and classification votes (integer
 * counts, lowest-class-id tie break) reproduce the reference exactly —
 * tests assert this. Traversal is fixed-trip: a leaf is
 * {threshold = +inf, left = self}, so the branchless step is a no-op
 * once a row bottoms out and a tree of depth D is walked with at most
 * D steps and no leaf test. Votes and sums accumulate into a
 * caller-owned reusable Scratch, so steady-state Run() performs zero
 * heap allocations.
 *
 * Wall-clock only: the kernel changes how fast functional predictions
 * are computed, never the simulated OffloadBreakdown latencies (see
 * DESIGN.md, "Functional kernels vs simulated time"). Compilation
 * (and autotuning) is attributed to the kKernelBuild trace stage.
 */
#ifndef DBSCORE_FOREST_FOREST_KERNEL_H
#define DBSCORE_FOREST_FOREST_KERNEL_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dbscore/data/dataset.h"

namespace dbscore {

class RandomForest;
class GradientBoostedModel;
class DecisionTree;

/** Traversal inner-loop selection. */
enum class KernelLanes : std::uint8_t {
    kAuto,    ///< autotuner (or heuristic) picks scalar vs SIMD
    kScalar,  ///< force the scalar 16-lane loop
    kSimd,    ///< force the 8-lane SIMD shim loop
};

/**
 * Tuning knobs of the compiled plan. The full option set participates
 * in RandomForest/GradientBoostedModel kernel-cache keys, so two
 * requests with different options never share a stale plan.
 */
struct ForestKernelOptions {
    /** Rows per traversal block (kAuto: autotuner may override). */
    std::size_t row_block = 64;
    /**
     * Upper bound on nodes per tree tile (kAuto: the autotuner may
     * override).
     */
    std::size_t tile_node_budget = std::size_t{1} << 16;
    /**
     * Minimum rows per worker chunk when Predict() parallelizes over
     * the shared ThreadPool; below 2x this count the batch runs inline.
     */
    std::size_t parallel_grain = 4096;
    /** Inner-loop selection. */
    KernelLanes lanes = KernelLanes::kAuto;
    /**
     * Benchmark (row_block, tile_node_budget, lane width) candidates
     * at build time and adopt the winner (kAuto lanes only). Winners
     * are cached process-wide per model shape.
     */
    bool autotune = true;
    /** SIMD row groups (of 8) in flight per tree; 0 = tuned/heuristic. */
    std::size_t simd_groups = 0;

    bool operator==(const ForestKernelOptions&) const = default;
};

/** How per-tree outputs combine into a final prediction. */
enum class KernelCombine : std::uint8_t {
    kVoteClassify,    ///< forest: majority vote, lowest-id tie break
    kMeanRegress,     ///< forest: mean of leaf values (tree order)
    kMargin,          ///< gbdt: base + lr * sum (tree order)
    kMarginClassify,  ///< gbdt: margin through sigmoid, threshold 0.5
};

/** Comparison a query pushes into traversal via PredictThreshold. */
enum class ThresholdOp : std::uint8_t {
    kGt,  ///< prediction >  threshold
    kGe,  ///< prediction >= threshold
    kLt,  ///< prediction <  threshold
    kLe,  ///< prediction <= threshold
};

/** True when @p value satisfies "@p value op @p threshold". */
bool ThresholdHolds(ThresholdOp op, float threshold, float value);

/** Work accounting for PredictThreshold (accumulates across calls). */
struct ThresholdStats {
    std::uint64_t rows = 0;
    /** Rows whose predicate was decided before the last tree. */
    std::uint64_t rows_decided_early = 0;
    /** (tree, row) traversals actually executed. */
    std::uint64_t tree_traversals = 0;
    /** rows x num_trees: what a full scoring pass would execute. */
    std::uint64_t tree_traversals_full = 0;
};

/** A compiled ensemble inference plan; immutable after construction. */
class ForestKernel {
 public:
    /**
     * Reusable per-thread working set. Buffers grow on first use and
     * are reused afterwards, so steady-state Run() calls allocate
     * nothing. Not thread-safe: one Scratch per running thread.
     */
    class Scratch {
     private:
        friend class ForestKernel;
        /** Per-(row, class) vote counts, row_block x num_classes. */
        std::vector<std::int32_t> counts;
        /** Per-row accumulators, tree order. */
        std::vector<double> sums;
        /** Per-group leaf indices. */
        std::vector<std::int32_t> leaves;
        /** threshold early-exit: undecided row indices (compacted). */
        std::vector<std::int32_t> active;
        /** threshold early-exit: undecided rows' features, dense. */
        std::vector<float> dense_rows;
    };

    /**
     * Runtime parameters of the inner loop, autotuned or taken from the
     * options (see kernel_autotune.h).
     */
    struct Tuning {
        std::size_t row_block = 64;
        std::size_t tile_node_budget = std::size_t{1} << 16;
        /** Lane-width multiplier: with SIMD, row groups (of 8 rows)
         * interleaved per tree; without, the scalar loop runs
         * 16 * groups independent rows per tree. Either way more groups
         * means more loads in flight to hide node-load latency. */
        std::size_t groups = 2;
        bool use_simd = false;
    };

    /**
     * Compiles @p forest. The forest may be destroyed afterwards; the
     * kernel owns flat copies of everything it needs.
     *
     * @throws InvalidArgument when Supports(forest) is false
     */
    explicit ForestKernel(const RandomForest& forest,
                          const ForestKernelOptions& options = {});

    /**
     * Compiles @p gbdt with a margin combiner: predictions are
     * bit-identical to GradientBoostedModel::Predict (margin
     * accumulated in double in tree order, classification thresholded
     * after a sigmoid).
     *
     * @throws InvalidArgument when Supports(gbdt) is false
     */
    explicit ForestKernel(const GradientBoostedModel& gbdt,
                          const ForestKernelOptions& options = {});

    ForestKernel(ForestKernel&&) = delete;
    ForestKernel& operator=(ForestKernel&&) = delete;

    /**
     * True when @p forest can be compiled: at least one tree, feature
     * ids that fit the packed node's 15-bit feature field, and no tree
     * over 2^17 nodes (the 17-bit tree-local child field). Callers fall
     * back to the scalar reference path otherwise.
     */
    static bool Supports(const RandomForest& forest);

    /** True when @p gbdt can be compiled (same structural limits). */
    static bool Supports(const GradientBoostedModel& gbdt);

    Task task() const { return task_; }
    int num_classes() const { return num_classes_; }
    std::size_t num_features() const { return num_features_; }
    std::size_t NumTrees() const { return roots_.size(); }
    std::size_t NumNodes() const { return enode_.size(); }
    /** Tree tiles the ensemble was partitioned into. */
    std::size_t NumTiles() const { return tiles_.size(); }
    const ForestKernelOptions& options() const { return options_; }
    KernelCombine combine() const { return combine_; }

    /** True when the plan runs the SIMD shim inner loop. */
    bool simd_active() const { return tuning_.use_simd; }
    /** Compile-time shim backend: "avx2", "neon", or "scalar". */
    static const char* SimdBackend();
    /** SIMD row groups in flight per tree (0 for scalar plans). */
    std::size_t simd_groups() const
    {
        return tuning_.use_simd ? tuning_.groups : 0;
    }
    /** Rows one traversal group keeps in flight per tree: 8 x groups
     * with SIMD, the tuned 16/32/64 scalar lane width otherwise. */
    std::size_t tuned_lane_rows() const;
    /** Row block the plan actually runs (post-autotune). */
    std::size_t tuned_row_block() const { return tuning_.row_block; }
    /** Tile node budget the plan actually runs (post-autotune). */
    std::size_t tuned_tile_node_budget() const
    {
        return tuning_.tile_node_budget;
    }
    /** True when the autotuner picked this plan's parameters. */
    bool autotuned() const { return autotuned_; }

    /**
     * Wall-clock milliseconds Compile() took (autotuning included) —
     * the build cost a serving layer re-pays when a cached kernel is
     * evicted and later rebuilt (the fleet registry's re-warm tax).
     */
    double build_wall_ms() const { return build_wall_ms_; }

    /**
     * Single-threaded execution: writes one prediction per row into
     * @p out (caller-owned, at least @p num_rows floats). Zero heap
     * allocations once @p scratch is warm. Thread-safe w.r.t. the
     * kernel (const); @p scratch must not be shared across threads.
     *
     * @throws InvalidArgument on arity mismatch
     */
    void Run(const float* rows, std::size_t num_rows, std::size_t num_cols,
             float* out, Scratch& scratch) const;

    /**
     * Zero-copy variant: traverses @p rows in place, honoring its
     * stride — strided views (e.g. a column-prefix of a wider block)
     * run directly, no compaction copy.
     */
    void Run(const RowView& rows, float* out, Scratch& scratch) const;

    /**
     * Batch prediction with chunked ThreadPool parallelism (thread-local
     * scratch per worker). Matches the reference scalar path
     * bit-for-bit.
     */
    std::vector<float> Predict(const float* rows, std::size_t num_rows,
                               std::size_t num_cols) const;

    /** Zero-copy batch prediction over a (possibly strided) view. */
    std::vector<float> Predict(const RowView& rows) const;

    /**
     * True when PredictThreshold can stop accumulating trees early:
     * the combiner accumulates sums (kMeanRegress / kMargin /
     * kMarginClassify). The combiner's finisher g(sum) — float cast,
     * divide by tree count, sigmoid + 0.5 threshold — is monotone
     * non-decreasing in the sum, so a conservative [lo, hi] interval on
     * the remaining-tree contribution decides "g(sum) op θ" exactly
     * (DESIGN.md §14).
     */
    bool SupportsThresholdEarlyExit() const;

    /**
     * Evaluates "prediction(row) op threshold" per row without
     * materializing a score column: keep[i] is 1 when row i satisfies
     * the predicate, else 0. Bit-equivalent to comparing Predict()
     * output — early exit uses per-tree leaf-value suffix bounds plus
     * a rounding-slack margin, and rows whose interval straddles the
     * threshold finish all trees exactly. Runs the same tuned inner
     * loop as Predict(), one tree segment at a time. Falls back to a
     * full Predict() + compare (no early exit, still exact) when
     * SupportsThresholdEarlyExit() is false. @p stats, when non-null,
     * accumulates traversal-work accounting.
     */
    std::vector<std::uint8_t> PredictThreshold(
        const RowView& rows, ThresholdOp op, float threshold,
        ThresholdStats* stats = nullptr) const;

 private:
    /** A run of consecutive trees whose nodes share one cache tile. */
    struct TreeTile {
        std::size_t first_tree;
        std::size_t end_tree;
    };

    Task task_ = Task::kClassification;
    int num_classes_ = 0;
    std::size_t num_features_ = 0;
    ForestKernelOptions options_;
    KernelCombine combine_ = KernelCombine::kVoteClassify;
    /** Margin combiner parameters (gbdt): out = init + scale * sum. */
    double init_ = 0.0;
    double scale_ = 1.0;
    double build_wall_ms_ = 0.0;
    Tuning tuning_;
    bool autotuned_ = false;

    void Compile(const std::vector<DecisionTree>& trees);

    /**
     * Resolves tuning_ under options_: forced lanes are honored as-is,
     * kAuto without autotune takes the heuristic, and kAuto with
     * autotune benchmarks the candidate grid on sample rows drawn from
     * the per-feature threshold ranges [@p lo, @p hi] (or reuses a
     * cached winner). Defined in kernel_autotune.cc.
     */
    void Autotune(const std::vector<float>& lo, const std::vector<float>& hi);

    /**
     * Walks rows [0, @p num_rows) through trees [@p first_tree,
     * @p end_tree) with the tuned inner loop, calling
     * visit(row, leaf_pool_index) once per (row, tree). Each row visits
     * the trees in ensemble order. @p leaves holds tuned_lane_rows().
     */
    template <typename Visit>
    void Walk(const float* rows, std::size_t num_rows, std::size_t stride,
              std::size_t first_tree, std::size_t end_tree,
              std::int32_t* leaves, Visit visit) const;

    /** @p stride is the float distance between consecutive rows. */
    void RunStrided(const float* rows, std::size_t num_rows,
                    std::size_t stride, float* out, Scratch& scratch) const;
    /** The combiner's monotone finisher for one accumulated sum. */
    float FinishOne(double sum) const;
    /** Early-exit traversal over one chunk (accumulate combines only). */
    void RunThreshold(const float* rows, std::size_t num_rows,
                      std::size_t stride, ThresholdOp op, float threshold,
                      std::uint8_t* keep, Scratch& scratch,
                      ThresholdStats& stats) const;

    /** Pool index of each tree's root (== the tree's base offset). */
    std::vector<std::int32_t> roots_;
    /** Depth of each tree in edges: the fixed traversal trip count. */
    std::vector<std::int32_t> depths_;
    /**
     * Node pool, level order per tree: one interleaved 8-byte word per
     * node — the f32 threshold bits in the low half and a packed
     * feature:15 | left:17 meta word (left child as a tree-local
     * index) in the high half. Interleaving keeps each descend step on
     * a single cache line: the scalar loop does two narrow loads, the
     * SIMD loop two 4-byte gathers at indices 2n and 2n+1 of the same
     * base.
     */
    std::vector<std::uint64_t> enode_;
    /** Leaf payload: value (regression / margin kernels). */
    std::vector<float> value_;
    /** Leaf payload: precomputed class id (vote kernels). */
    std::vector<std::int32_t> leaf_class_;

    std::vector<TreeTile> tiles_;

    /**
     * Threshold early-exit bounds (accumulate combines only), indexed
     * by tree: suffix_min_[t] / suffix_max_[t] bound the summed
     * contribution (scale * leaf value) of trees [t, T), and
     * suffix_abs_[t] sums their magnitudes for the rounding-slack
     * term. Size T + 1 with zeros at index T.
     */
    std::vector<double> suffix_min_;
    std::vector<double> suffix_max_;
    std::vector<double> suffix_abs_;
};

}  // namespace dbscore

#endif  // DBSCORE_FOREST_FOREST_KERNEL_H
