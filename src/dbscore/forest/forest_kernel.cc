#include "dbscore/forest/forest_kernel.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <mutex>
#include <string>

#include "dbscore/common/error.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/simd.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

namespace {

/** Bits of the packed meta word holding the tree-local left id. */
constexpr int kLeftBits = 17;
constexpr std::int32_t kLeftMask = (1 << kLeftBits) - 1;
/** Largest tree (nodes) and feature id the packed word can address. */
constexpr std::size_t kMaxTreeNodes = std::size_t{1} << kLeftBits;
constexpr std::size_t kMaxFeature = 32767;

/** Packs one node: threshold bits low, meta word high. */
std::uint64_t
PackNode(float threshold, std::int32_t meta)
{
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(meta))
            << 32) |
           std::bit_cast<std::uint32_t>(threshold);
}

/**
 * Base rows per scalar traversal group. Each lane is an independent
 * dependence chain of node loads, so the out-of-order core keeps this
 * many traversals in flight — the main lever against the load latency
 * that dominates pointer-chasing inference. The autotuner may widen
 * this to 32 or 64 rows (groups 2/4) when the model spills out of
 * cache and the extra in-flight loads pay.
 */
constexpr std::size_t kScalarLanes = 16;

/**
 * Scalar traversal: kLanes rows through one tree, leaving each lane's
 * final (leaf) node index, tree-local, in @p n. At most @p depth
 * branchless steps per lane: leaves self-loop via {+inf, left = self},
 * so rows that bottom out early spin in place from L1, and the level
 * loop breaks once every lane has parked. The step left + !(x <= t)
 * matches the reference "x <= t goes left, else (including NaN) right"
 * bit for bit.
 */
template <std::size_t kLanes>
inline void
TraverseExactScalar(const std::uint64_t* enode, std::int32_t base,
                    std::int32_t depth, const float* const* rowp,
                    std::int32_t* n)
{
    // Two narrow loads per node instead of one u64 load: the threshold
    // goes straight to an FP register and the meta half to a GPR, so no
    // shift-and-transfer uops sit on the compare's critical path.
    const auto* fp = reinterpret_cast<const float*>(enode + base);
    const auto* mp =
        reinterpret_cast<const std::uint32_t*>(enode + base) + 1;
    for (std::size_t k = 0; k < kLanes; ++k) {
        n[k] = 0;
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        std::int32_t moved = 0;
        for (std::size_t k = 0; k < kLanes; ++k) {
            const std::int32_t n2 = 2 * n[k];
            const float t = fp[n2];
            const std::uint32_t meta = mp[n2];
            const auto feat = meta >> kLeftBits;
            const auto left = static_cast<std::int32_t>(meta) & kLeftMask;
            const std::int32_t next =
                left + static_cast<std::int32_t>(!(rowp[k][feat] <= t));
            moved |= next ^ n[k];
            n[k] = next;
        }
        if (moved == 0) {
            break;
        }
    }
}

/**
 * SIMD traversal: G interleaved groups of simd::kWidth rows through
 * one tree. Each step gathers the node's threshold and meta halves
 * (indices 2n and 2n+1 of the interleaved pool, so both land on the
 * node's one cache line), gathers one feature per lane from the
 * strided row base, and blends the descend as integer mask arithmetic:
 * CmpNotLe yields -1 where the row goes right, so next = left - mask.
 * Interleaving G groups keeps 3G gathers in flight per step, hiding
 * gather latency on one core. Leaves ({+inf, left = self}) keep every
 * non-NaN lane parked, and the level loop breaks once all G groups
 * stop moving.
 */
template <int G>
DBSCORE_SIMD_FN void
TraverseExactSimd(const std::uint64_t* enode, std::int32_t base,
                  std::int32_t depth, const float* rows,
                  std::int32_t stride, std::int32_t* leaves)
{
    using namespace simd;
    // Pre-offset both gather bases by the tree root (and the meta base
    // by its in-node position), so the hot loop computes only 2n.
    const auto* fbase = reinterpret_cast<const float*>(enode + base);
    const auto* ibase =
        reinterpret_cast<const std::int32_t*>(enode + base) + 1;
    const VI rowoff = Iota(stride);
    const VI vmask = Set1(kLeftMask);
    VI n[G];
    const float* rbase[G];
    for (int g = 0; g < G; ++g) {
        n[g] = Set1(0);
        rbase[g] = rows + static_cast<std::size_t>(g) * kWidth *
                              static_cast<std::size_t>(stride);
    }
    for (std::int32_t d = 0; d < depth; ++d) {
        // One accumulated motion mask per level replaces a per-group
        // movemask: parked lanes contribute all-zero next ^ n.
        VI motion = Set1(0);
        for (int g = 0; g < G; ++g) {
            const VI n2 = Add(n[g], n[g]);
            const VF t = GatherF32(fbase, n2);
            const VI w = GatherI32(ibase, n2);
            const VI feat = Srl(w, kLeftBits);
            const VI left = And(w, vmask);
            const VF x = GatherF32(rbase[g], Add(rowoff, feat));
            const VI next = Sub(left, CmpNotLe(x, t));
            motion = Or(motion, Xor(next, n[g]));
            n[g] = next;
        }
        if (!AnyNonZero(motion)) {
            break;
        }
    }
    for (int g = 0; g < G; ++g) {
        Store(leaves + static_cast<std::size_t>(g) * kWidth, n[g]);
    }
}

/** Dispatches the group-count template parameter (G in {1, 2, 4, 8}). */
DBSCORE_SIMD_FN void
RunExactSimd(std::size_t groups, const std::uint64_t* enode,
             std::int32_t base, std::int32_t depth, const float* rows,
             std::int32_t stride, std::int32_t* leaves)
{
    switch (groups) {
    case 1:
        TraverseExactSimd<1>(enode, base, depth, rows, stride, leaves);
        break;
    case 2:
        TraverseExactSimd<2>(enode, base, depth, rows, stride, leaves);
        break;
    case 8:
        TraverseExactSimd<8>(enode, base, depth, rows, stride, leaves);
        break;
    default:
        TraverseExactSimd<4>(enode, base, depth, rows, stride, leaves);
        break;
    }
}

/**
 * Scalar loop over full L-row groups starting at row @p r, trees
 * [@p first_tree, @p end_tree) per group; returns the first row not
 * covered, which the caller finishes with L = 1.
 */
template <std::size_t L, typename Visit>
std::size_t
WalkScalarGroups(const std::uint64_t* enode, const std::int32_t* roots,
                 const std::int32_t* depths, std::size_t first_tree,
                 std::size_t end_tree, const float* rows,
                 std::size_t num_rows, std::size_t stride, std::size_t r,
                 Visit& visit)
{
    for (; r + L <= num_rows; r += L) {
        const float* rowp[L];
        for (std::size_t i = 0; i < L; ++i) {
            rowp[i] = rows + (r + i) * stride;
        }
        for (std::size_t t = first_tree; t < end_tree; ++t) {
            const std::int32_t base = roots[t];
            std::int32_t n[L];
            TraverseExactScalar<L>(enode, base, depths[t], rowp, n);
            for (std::size_t i = 0; i < L; ++i) {
                visit(r + i, base + n[i]);
            }
        }
    }
    return r;
}

bool
EnsembleSupported(const std::vector<DecisionTree>& trees,
                  std::size_t num_features)
{
    if (trees.empty() || num_features > kMaxFeature) {
        return false;
    }
    // Tree-local left indices must fit the packed 17-bit field.
    return std::all_of(trees.begin(), trees.end(),
                       [](const DecisionTree& tree) {
                           return tree.NumNodes() <= kMaxTreeNodes;
                       });
}

constexpr const char* kUnsupportedReason =
    "(empty, over 32767 features, or a tree over 2^17 nodes)";

}  // namespace

bool
ForestKernel::Supports(const RandomForest& forest)
{
    return EnsembleSupported(forest.trees(), forest.num_features());
}

bool
ForestKernel::Supports(const GradientBoostedModel& gbdt)
{
    return EnsembleSupported(gbdt.trees(), gbdt.num_features());
}

ForestKernel::ForestKernel(const RandomForest& forest,
                           const ForestKernelOptions& options)
    : task_(forest.task()),
      num_classes_(forest.num_classes()),
      num_features_(forest.num_features()),
      options_(options),
      combine_(forest.task() == Task::kClassification
                   ? KernelCombine::kVoteClassify
                   : KernelCombine::kMeanRegress)
{
    if (!Supports(forest)) {
        throw InvalidArgument(std::string("forest kernel: unsupported "
                                          "forest ") +
                              kUnsupportedReason);
    }
    Compile(forest.trees());
}

ForestKernel::ForestKernel(const GradientBoostedModel& gbdt,
                           const ForestKernelOptions& options)
    : task_(gbdt.task()),
      num_features_(gbdt.num_features()),
      options_(options),
      combine_(gbdt.task() == Task::kClassification
                   ? KernelCombine::kMarginClassify
                   : KernelCombine::kMargin),
      init_(gbdt.base_score()),
      scale_(gbdt.learning_rate())
{
    if (!Supports(gbdt)) {
        throw InvalidArgument(std::string("forest kernel: unsupported "
                                          "gbdt ") +
                              kUnsupportedReason);
    }
    // Margin kernels accumulate sums; the class decision happens in
    // the combiner, so no per-leaf class table is needed.
    num_classes_ = combine_ == KernelCombine::kMarginClassify ? 2 : 0;
    Compile(gbdt.trees());
}

void
ForestKernel::Compile(const std::vector<DecisionTree>& trees)
{
    if (options_.row_block == 0 || options_.tile_node_budget == 0) {
        throw InvalidArgument("forest kernel: zero row_block/tile budget");
    }

    // Attribute compilation (the serve path's model prewarming pays
    // this on registration, and mutation pays it again) to its own
    // trace stage; the autotuner emits a child span.
    const auto build_start = std::chrono::steady_clock::now();
    trace::ScopedSpan span(trace::StageKind::kKernelBuild, "kernel-build");
    span.AddAttr("trees", static_cast<double>(trees.size()));

    std::size_t total_nodes = 0;
    for (const auto& tree : trees) {
        total_nodes += tree.NumNodes();
    }
    span.AddAttr("nodes", static_cast<double>(total_nodes));

    const bool vote = combine_ == KernelCombine::kVoteClassify;
    roots_.reserve(trees.size());
    depths_.reserve(trees.size());
    enode_.reserve(total_nodes);
    value_.reserve(total_nodes);
    if (vote) {
        leaf_class_.reserve(total_nodes);
    }
    // Per-feature threshold range, for the autotuner's sample rows.
    std::vector<float> tune_lo(num_features_, 0.0f);
    std::vector<float> tune_hi(num_features_, 1.0f);

    std::vector<std::int32_t> order;
    std::vector<std::int32_t> new_id;
    std::vector<bool> range_seen(num_features_, false);
    // Per-tree leaf-value range, feeding the threshold early-exit
    // suffix bounds (accumulate combines only).
    std::vector<double> tree_leaf_lo;
    std::vector<double> tree_leaf_hi;
    tree_leaf_lo.reserve(trees.size());
    tree_leaf_hi.reserve(trees.size());
    for (const auto& tree : trees) {
        const auto base = static_cast<std::int32_t>(enode_.size());
        roots_.push_back(base);
        depths_.push_back(static_cast<std::int32_t>(tree.Depth()));
        double leaf_lo = std::numeric_limits<double>::infinity();
        double leaf_hi = -std::numeric_limits<double>::infinity();

        // Level (BFS) order: the upper levels every row traverses end
        // up contiguous at the front of the tree's node range, and
        // siblings land adjacently, making right == left + 1.
        const std::size_t n = tree.NumNodes();
        order.clear();
        order.push_back(0);
        for (std::size_t i = 0; i < order.size(); ++i) {
            const std::int32_t node = order[i];
            if (!tree.IsLeaf(node)) {
                order.push_back(tree.Left(node));
                order.push_back(tree.Right(node));
            }
        }
        DBS_ASSERT_MSG(order.size() == n,
                       "forest kernel: tree has unreachable nodes");
        new_id.assign(n, -1);
        for (std::size_t i = 0; i < n; ++i) {
            new_id[static_cast<std::size_t>(order[i])] =
                static_cast<std::int32_t>(i);
        }

        for (std::int32_t node : order) {
            const auto local = static_cast<std::int32_t>(enode_.size()) - base;
            if (tree.IsLeaf(node)) {
                const float value = tree.LeafValue(node);
                leaf_lo = std::min(leaf_lo, static_cast<double>(value));
                leaf_hi = std::max(leaf_hi, static_cast<double>(value));
                // {+inf, self}: the branchless step re-evaluates the
                // leaf harmlessly (anything <= +inf stays at
                // left = self) until the fixed trip count runs out.
                enode_.push_back(
                    PackNode(std::numeric_limits<float>::infinity(), local));
                value_.push_back(value);
                if (vote) {
                    const auto cls =
                        static_cast<std::int32_t>(std::lround(value));
                    DBS_ASSERT(cls >= 0 && cls < num_classes_);
                    leaf_class_.push_back(cls);
                }
            } else {
                const std::int32_t f = tree.Feature(node);
                DBS_ASSERT(f >= 0 &&
                           static_cast<std::size_t>(f) <= kMaxFeature);
                const std::int32_t left =
                    new_id[static_cast<std::size_t>(tree.Left(node))];
                DBS_ASSERT_MSG(
                    new_id[static_cast<std::size_t>(tree.Right(node))] ==
                        left + 1,
                    "forest kernel: BFS siblings must be adjacent");
                const float t = tree.Threshold(node);
                enode_.push_back(PackNode(t, (f << kLeftBits) | left));
                auto& lo = tune_lo[static_cast<std::size_t>(f)];
                auto& hi = tune_hi[static_cast<std::size_t>(f)];
                if (!range_seen[static_cast<std::size_t>(f)]) {
                    range_seen[static_cast<std::size_t>(f)] = true;
                    lo = hi = t;
                } else {
                    lo = std::min(lo, t);
                    hi = std::max(hi, t);
                }
                value_.push_back(0.0f);
                if (vote) {
                    leaf_class_.push_back(0);
                }
            }
        }
        tree_leaf_lo.push_back(leaf_lo);
        tree_leaf_hi.push_back(leaf_hi);
    }

    if (!vote) {
        // Suffix bounds on the remaining-tree contribution: after t
        // trees the final sum lies in
        // [sum + suffix_min_[t], sum + suffix_max_[t]] up to rounding
        // (covered by the slack term at decision time).
        const std::size_t num_trees = trees.size();
        suffix_min_.assign(num_trees + 1, 0.0);
        suffix_max_.assign(num_trees + 1, 0.0);
        suffix_abs_.assign(num_trees + 1, 0.0);
        for (std::size_t t = num_trees; t-- > 0;) {
            const double a = scale_ * tree_leaf_lo[t];
            const double b = scale_ * tree_leaf_hi[t];
            const double clo = std::min(a, b);
            const double chi = std::max(a, b);
            suffix_min_[t] = suffix_min_[t + 1] + clo;
            suffix_max_[t] = suffix_max_[t + 1] + chi;
            suffix_abs_[t] =
                suffix_abs_[t + 1] + std::max(std::abs(clo), std::abs(chi));
        }
    }

    Autotune(tune_lo, tune_hi);

    // Tiles: consecutive trees whose pooled nodes fit the tuned budget;
    // a single oversized tree still gets its own tile.
    std::size_t tile_start = 0;
    std::size_t tile_nodes = 0;
    for (std::size_t t = 0; t < trees.size(); ++t) {
        const std::size_t nodes = trees[t].NumNodes();
        if (t > tile_start &&
            tile_nodes + nodes > tuning_.tile_node_budget) {
            tiles_.push_back({tile_start, t});
            tile_start = t;
            tile_nodes = 0;
        }
        tile_nodes += nodes;
    }
    tiles_.push_back({tile_start, trees.size()});

    build_wall_ms_ = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - build_start)
                         .count();
}

const char*
ForestKernel::SimdBackend()
{
    return simd::BackendName();
}

std::size_t
ForestKernel::tuned_lane_rows() const
{
    // The scalar loop widths top out at 64 lanes (groups 4).
    return tuning_.use_simd
               ? tuning_.groups * simd::kWidth
               : kScalarLanes * std::min<std::size_t>(tuning_.groups, 4);
}

template <typename Visit>
void
ForestKernel::Walk(const float* rows, std::size_t num_rows,
                   std::size_t stride, std::size_t first_tree,
                   std::size_t end_tree, std::int32_t* leaves,
                   Visit visit) const
{
    const std::uint64_t* const enode = enode_.data();
    const std::int32_t* const roots = roots_.data();
    const std::int32_t* const depths = depths_.data();
    // Row groups outer, trees inner: a group's feature rows stay hot in
    // L1 across every tree, and each row meets the trees in ensemble
    // order.
    std::size_t r = 0;
    if (tuning_.use_simd) {
        const std::size_t grows = tuned_lane_rows();
        const auto sstride = static_cast<std::int32_t>(stride);
        for (; r + grows <= num_rows; r += grows) {
            for (std::size_t t = first_tree; t < end_tree; ++t) {
                const std::int32_t base = roots[t];
                RunExactSimd(tuning_.groups, enode, base, depths[t],
                             rows + r * stride, sstride, leaves);
                for (std::size_t i = 0; i < grows; ++i) {
                    visit(r + i, base + leaves[i]);
                }
            }
        }
    } else {
        switch (tuning_.groups) {
        case 1:
            r = WalkScalarGroups<kScalarLanes>(enode, roots, depths,
                                               first_tree, end_tree, rows,
                                               num_rows, stride, r, visit);
            break;
        case 2:
            r = WalkScalarGroups<2 * kScalarLanes>(
                enode, roots, depths, first_tree, end_tree, rows, num_rows,
                stride, r, visit);
            break;
        default:
            r = WalkScalarGroups<4 * kScalarLanes>(
                enode, roots, depths, first_tree, end_tree, rows, num_rows,
                stride, r, visit);
            break;
        }
    }
    WalkScalarGroups<1>(enode, roots, depths, first_tree, end_tree, rows,
                        num_rows, stride, r, visit);
}

void
ForestKernel::RunStrided(const float* rows, std::size_t num_rows,
                         std::size_t stride, float* out,
                         Scratch& scratch) const
{
    const std::size_t row_block = tuning_.row_block;
    const auto num_classes = static_cast<std::size_t>(num_classes_);
    const bool vote = combine_ == KernelCombine::kVoteClassify;
    if (vote) {
        if (scratch.counts.size() < row_block * num_classes) {
            scratch.counts.resize(row_block * num_classes);
        }
    } else if (scratch.sums.size() < row_block) {
        scratch.sums.resize(row_block);
    }
    if (scratch.leaves.size() < tuned_lane_rows()) {
        scratch.leaves.resize(tuned_lane_rows());
    }
    std::int32_t* const leaves = scratch.leaves.data();
    const std::int32_t* const cls = leaf_class_.data();
    const float* const val = value_.data();
    const double scale = scale_;

    for (std::size_t begin = 0; begin < num_rows; begin += row_block) {
        const std::size_t block = std::min(row_block, num_rows - begin);
        const float* block_rows = rows + begin * stride;
        if (vote) {
            std::int32_t* const counts = scratch.counts.data();
            std::fill(counts, counts + block * num_classes, 0);
            Walk(block_rows, block, stride, 0, NumTrees(), leaves,
                 [&](std::size_t row, std::int32_t leaf) {
                     ++counts[row * num_classes +
                              static_cast<std::size_t>(cls[leaf])];
                 });
            for (std::size_t i = 0; i < block; ++i) {
                const std::int32_t* c = counts + i * num_classes;
                std::size_t best = 0;
                for (std::size_t j = 1; j < num_classes; ++j) {
                    // Strict > keeps the lowest class id on ties,
                    // exactly like MajorityVote.
                    if (c[j] > c[best]) {
                        best = j;
                    }
                }
                out[begin + i] = static_cast<float>(best);
            }
        } else {
            double* const sums = scratch.sums.data();
            std::fill(sums, sums + block, init_);
            Walk(block_rows, block, stride, 0, NumTrees(), leaves,
                 [&](std::size_t row, std::int32_t leaf) {
                     sums[row] += scale * val[leaf];
                 });
            for (std::size_t i = 0; i < block; ++i) {
                out[begin + i] = FinishOne(sums[i]);
            }
        }
    }
}

float
ForestKernel::FinishOne(double sum) const
{
    // Every branch is monotone non-decreasing in the sum (float cast
    // and division by a positive count are correctly rounded; the
    // sigmoid + 0.5 threshold in MarginToClass is monotone), which is
    // what lets interval endpoints decide the threshold predicate.
    switch (combine_) {
    case KernelCombine::kMeanRegress:
        return static_cast<float>(sum /
                                  static_cast<double>(roots_.size()));
    case KernelCombine::kMargin:
        return static_cast<float>(sum);
    case KernelCombine::kMarginClassify:
        return static_cast<float>(GradientBoostedModel::MarginToClass(
            static_cast<float>(sum)));
    case KernelCombine::kVoteClassify:
        break;
    }
    DBS_ASSERT_MSG(false, "vote kernels do not accumulate sums");
    return 0.0f;
}

bool
ThresholdHolds(ThresholdOp op, float threshold, float value)
{
    switch (op) {
    case ThresholdOp::kGt: return value > threshold;
    case ThresholdOp::kGe: return value >= threshold;
    case ThresholdOp::kLt: return value < threshold;
    case ThresholdOp::kLe: return value <= threshold;
    }
    return false;
}

namespace {

/**
 * Decides "value op threshold" for a value known to lie in
 * [glo, ghi]: 1 (holds for the whole interval), 0 (fails for the
 * whole interval), or -1 (undecided). kGt/kGe true-sets are
 * up-closed and kLt/kLe down-closed, so the interval endpoints
 * suffice.
 */
int
DecideThreshold(ThresholdOp op, float threshold, float glo, float ghi)
{
    const bool lo_holds = ThresholdHolds(op, threshold, glo);
    const bool hi_holds = ThresholdHolds(op, threshold, ghi);
    const bool up = op == ThresholdOp::kGt || op == ThresholdOp::kGe;
    if (up) {
        if (lo_holds) return 1;
        if (!hi_holds) return 0;
    } else {
        if (hi_holds) return 1;
        if (!lo_holds) return 0;
    }
    return -1;
}

/** Trees accumulated between two early-exit decision points. */
constexpr std::size_t kThresholdCheckTrees = 8;

}  // namespace

bool
ForestKernel::SupportsThresholdEarlyExit() const
{
    return combine_ != KernelCombine::kVoteClassify;
}

void
ForestKernel::RunThreshold(const float* rows, std::size_t num_rows,
                           std::size_t stride, ThresholdOp op,
                           float threshold, std::uint8_t* keep,
                           Scratch& scratch, ThresholdStats& stats) const
{
    const std::size_t num_trees = roots_.size();
    stats.rows += num_rows;
    stats.tree_traversals_full += num_rows * num_trees;
    if (scratch.sums.size() < num_rows) {
        scratch.sums.resize(num_rows);
    }
    if (scratch.active.size() < num_rows) {
        scratch.active.resize(num_rows);
    }
    if (scratch.leaves.size() < tuned_lane_rows()) {
        scratch.leaves.resize(tuned_lane_rows());
    }
    double* const sums = scratch.sums.data();
    std::int32_t* const active = scratch.active.data();
    for (std::size_t i = 0; i < num_rows; ++i) {
        sums[i] = init_;
        active[i] = static_cast<std::int32_t>(i);
    }
    std::size_t live = num_rows;
    // The segment's rows: the caller's (possibly strided) rows until a
    // checkpoint decides some, then a dense copy of the survivors.
    const float* seg_rows = rows;
    std::size_t seg_stride = stride;

    const float* const val = value_.data();
    const double scale = scale_;

    std::size_t t0 = 0;
    while (live > 0 && t0 < num_trees) {
        const std::size_t t1 =
            std::min(num_trees, t0 + kThresholdCheckTrees);
        // Accumulate trees [t0, t1) over the surviving rows with the
        // tuned inner loop. Tree order per row is preserved, so a row
        // that survives to the end carries exactly the sum the full
        // pass would have computed.
        Walk(seg_rows, live, seg_stride, t0, t1, scratch.leaves.data(),
             [&](std::size_t row, std::int32_t leaf) {
                 sums[row] += scale * val[leaf];
             });
        stats.tree_traversals += live * (t1 - t0);
        t0 = t1;
        if (t0 >= num_trees) {
            break;
        }

        // Decision point: bound the final sum and keep only rows whose
        // interval still straddles the threshold. The slack term
        // over-covers the rounding of both the remaining double
        // accumulation (gamma_k <= k * 2^-52 per unit magnitude) and
        // the suffix sums themselves.
        const double remaining = static_cast<double>(num_trees - t0);
        std::size_t w = 0;
        for (std::size_t i = 0; i < live; ++i) {
            const double s = sums[i];
            const double slack = 1e-15 * (remaining + 4.0) *
                                 (std::abs(s) + suffix_abs_[t0]);
            const float glo = FinishOne(s + suffix_min_[t0] - slack);
            const float ghi = FinishOne(s + suffix_max_[t0] + slack);
            const int dec = DecideThreshold(op, threshold, glo, ghi);
            if (dec >= 0) {
                keep[active[i]] = static_cast<std::uint8_t>(dec);
            } else {
                active[w] = active[i];
                sums[w] = s;
                ++w;
            }
        }
        stats.rows_decided_early += live - w;
        if (w < live) {
            // Copy the survivors' features densely, so the next
            // segment's groups read contiguous rows again.
            const std::size_t cols = num_features_;
            if (scratch.dense_rows.size() < w * cols) {
                scratch.dense_rows.resize(num_rows * cols);
            }
            float* const dense = scratch.dense_rows.data();
            for (std::size_t i = 0; i < w; ++i) {
                const float* src =
                    rows + static_cast<std::size_t>(active[i]) * stride;
                std::copy(src, src + cols, dense + i * cols);
            }
            seg_rows = dense;
            seg_stride = cols;
        }
        live = w;
    }

    // Rows that ran every tree finish exactly like Predict().
    for (std::size_t i = 0; i < live; ++i) {
        keep[active[i]] = ThresholdHolds(op, threshold, FinishOne(sums[i]))
                              ? std::uint8_t{1}
                              : std::uint8_t{0};
    }
}

std::vector<std::uint8_t>
ForestKernel::PredictThreshold(const RowView& rows, ThresholdOp op,
                               float threshold, ThresholdStats* stats) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    const std::size_t num_rows = rows.rows();
    std::vector<std::uint8_t> keep(num_rows, 0);
    if (num_rows == 0) {
        return keep;
    }
    if (!SupportsThresholdEarlyExit()) {
        // Vote combiners: score fully, then compare. Exact, just
        // without the skipped-tree savings.
        const std::vector<float> preds = Predict(rows);
        for (std::size_t i = 0; i < num_rows; ++i) {
            keep[i] = ThresholdHolds(op, threshold, preds[i])
                          ? std::uint8_t{1}
                          : std::uint8_t{0};
        }
        if (stats != nullptr) {
            stats->rows += num_rows;
            stats->tree_traversals += num_rows * NumTrees();
            stats->tree_traversals_full += num_rows * NumTrees();
        }
        return keep;
    }

    trace::ScopedSpan span(trace::StageKind::kKernel,
                           "forest-kernel-threshold");
    span.AddAttr("rows", static_cast<double>(num_rows));
    span.AddAttr("trees", static_cast<double>(NumTrees()));
    const trace::SpanContext parent = span.context();
    std::mutex stats_mutex;
    ThresholdStats total;
    auto worker = [&, parent](std::size_t begin, std::size_t end) {
        trace::ScopedSpan chunk(trace::StageKind::kKernel,
                                "kernel-threshold-chunk", parent);
        chunk.AddAttr("rows", static_cast<double>(end - begin));
        static thread_local Scratch scratch;
        ThresholdStats local;
        RunThreshold(rows.Row(begin), end - begin, rows.stride(), op,
                     threshold, keep.data() + begin, scratch, local);
        std::lock_guard<std::mutex> lock(stats_mutex);
        total.rows += local.rows;
        total.rows_decided_early += local.rows_decided_early;
        total.tree_traversals += local.tree_traversals;
        total.tree_traversals_full += local.tree_traversals_full;
    };
    if (num_rows >= options_.parallel_grain) {
        ThreadPool::Shared().ParallelForChunked(
            num_rows, options_.parallel_grain, worker);
    } else {
        worker(0, num_rows);
    }
    span.AddAttr("early",
                 static_cast<double>(total.rows_decided_early));
    if (stats != nullptr) {
        stats->rows += total.rows;
        stats->rows_decided_early += total.rows_decided_early;
        stats->tree_traversals += total.tree_traversals;
        stats->tree_traversals_full += total.tree_traversals_full;
    }
    return keep;
}

void
ForestKernel::Run(const float* rows, std::size_t num_rows,
                  std::size_t num_cols, float* out,
                  Scratch& scratch) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    RunStrided(rows, num_rows, num_cols, out, scratch);
}

void
ForestKernel::Run(const RowView& rows, float* out, Scratch& scratch) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    RunStrided(rows.data(), rows.rows(), rows.stride(), out, scratch);
}

std::vector<float>
ForestKernel::Predict(const float* rows, std::size_t num_rows,
                      std::size_t num_cols) const
{
    if (num_cols != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    return Predict(RowView::Borrow(rows, num_rows, num_cols));
}

std::vector<float>
ForestKernel::Predict(const RowView& rows) const
{
    if (rows.cols() != num_features_) {
        throw InvalidArgument("forest kernel: row arity mismatch");
    }
    const std::size_t num_rows = rows.rows();
    std::vector<float> out(num_rows);
    if (num_rows == 0) {
        return out;
    }
    // Wall-clock batch span; pooled chunk workers parent to it via the
    // captured context (chunks run on pool threads, not this one).
    // One span per batch + one per chunk (>= 4096 rows each), so the
    // cost stays far under the bench's 3% overhead budget.
    trace::ScopedSpan span(trace::StageKind::kKernel, "forest-kernel");
    span.AddAttr("rows", static_cast<double>(num_rows));
    span.AddAttr("trees", static_cast<double>(NumTrees()));
    const trace::SpanContext parent = span.context();
    auto worker = [&, parent](std::size_t begin, std::size_t end) {
        trace::ScopedSpan chunk(trace::StageKind::kKernel, "kernel-chunk",
                                parent);
        chunk.AddAttr("rows", static_cast<double>(end - begin));
        static thread_local Scratch scratch;
        RunStrided(rows.Row(begin), end - begin, rows.stride(),
                   out.data() + begin, scratch);
    };
    if (num_rows >= options_.parallel_grain) {
        ThreadPool::Shared().ParallelForChunked(
            num_rows, options_.parallel_grain, worker);
    } else {
        worker(0, num_rows);
    }
    return out;
}

}  // namespace dbscore
