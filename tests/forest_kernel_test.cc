/**
 * @file
 * Tests for dbscore/forest/forest_kernel — the compiled, cache-blocked
 * batch inference plan.
 *
 * The contract under test: kernel predictions are bit-identical to the
 * scalar reference path (per-row RandomForest::Predict) across task
 * type, dataset shape, ensemble size, depth, and ragged batch sizes;
 * the cached kernel is reused until the forest mutates and rebuilt
 * afterwards; and the caller-owned scratch makes repeated runs
 * allocation-free without changing results.
 */
#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/trainer.h"

namespace dbscore {
namespace {

/** Scalar ground truth: per-row Predict, no kernel involved. */
std::vector<float>
Reference(const RandomForest& forest, const float* rows,
          std::size_t num_rows, std::size_t num_cols)
{
    std::vector<float> out(num_rows);
    for (std::size_t i = 0; i < num_rows; ++i) {
        out[i] = forest.Predict(rows + i * num_cols);
    }
    return out;
}

RandomForest
TrainSmallIris(std::size_t trees, std::size_t depth, std::uint64_t seed)
{
    ForestTrainerConfig config;
    config.num_trees = trees;
    config.max_depth = depth;
    config.seed = seed;
    return TrainForest(MakeIris(200, seed), config);
}

// ------------------------------------------- concurrency + lifecycle --
// (ForestKernelTest.* also runs under the CI ThreadSanitizer job.)

TEST(ForestKernelTest, ParallelPredictMatchesScalarReference)
{
    RandomForest forest = TrainSmallIris(16, 6, 31);
    // > kParallelRowCutoff rows so Predict fans out on the ThreadPool.
    Dataset eval = MakeIris(10000, 32);
    auto expected = Reference(forest, eval.values().data(),
                              eval.num_rows(), eval.num_features());
    EXPECT_EQ(forest.Kernel()->Predict(eval.values().data(),
                                       eval.num_rows(),
                                       eval.num_features()),
              expected);
    EXPECT_EQ(forest.PredictBatch(eval), expected);
    EXPECT_EQ(forest.PredictBatchScalar(eval.values().data(),
                                        eval.num_rows(),
                                        eval.num_features()),
              expected);
}

TEST(ForestKernelTest, KernelIsCachedUntilMutation)
{
    RandomForest forest = TrainSmallIris(4, 4, 33);
    Dataset eval = MakeIris(500, 34);

    auto first = forest.Kernel();
    EXPECT_EQ(forest.Kernel().get(), first.get());  // cached
    EXPECT_EQ(first->NumTrees(), 4u);

    // Mutation invalidates: the next kernel is a fresh compile whose
    // predictions include the new tree.
    DecisionTree stump;
    stump.AddLeafNode(1.0f);
    forest.AddTree(std::move(stump));
    auto second = forest.Kernel();
    EXPECT_NE(second.get(), first.get());
    EXPECT_EQ(second->NumTrees(), 5u);
    EXPECT_EQ(forest.PredictBatch(eval),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
}

TEST(ForestKernelTest, CopiesShareTheCompiledKernel)
{
    RandomForest forest = TrainSmallIris(3, 4, 35);
    auto kernel = forest.Kernel();

    RandomForest copy = forest;
    EXPECT_EQ(copy.Kernel().get(), kernel.get());

    // Mutating the copy rebuilds only the copy's kernel.
    DecisionTree stump;
    stump.AddLeafNode(0.0f);
    copy.AddTree(std::move(stump));
    EXPECT_NE(copy.Kernel().get(), kernel.get());
    EXPECT_EQ(forest.Kernel().get(), kernel.get());
}

TEST(ForestKernelTest, CallerOwnedScratchIsReusableAcrossBatches)
{
    RandomForest forest = TrainSmallIris(8, 6, 36);
    Dataset a = MakeIris(700, 37);
    Dataset b = MakeIris(130, 38);
    auto kernel = forest.Kernel();

    ForestKernel::Scratch scratch;
    std::vector<float> out_a(a.num_rows());
    std::vector<float> out_b(b.num_rows());
    kernel->Run(a.values().data(), a.num_rows(), a.num_features(),
                out_a.data(), scratch);
    kernel->Run(b.values().data(), b.num_rows(), b.num_features(),
                out_b.data(), scratch);
    EXPECT_EQ(out_a, Reference(forest, a.values().data(), a.num_rows(),
                               a.num_features()));
    EXPECT_EQ(out_b, Reference(forest, b.values().data(), b.num_rows(),
                               b.num_features()));
}

TEST(ForestKernelTest, RejectsBadInput)
{
    RandomForest forest = TrainSmallIris(2, 3, 39);
    Dataset eval = MakeIris(10, 40);
    auto kernel = forest.Kernel();
    ForestKernel::Scratch scratch;
    std::vector<float> out(10);

    EXPECT_THROW(kernel->Predict(eval.values().data(), 10, 3),
                 InvalidArgument);
    EXPECT_THROW(kernel->Run(eval.values().data(), 10, 3, out.data(),
                             scratch),
                 InvalidArgument);

    // An untrained forest is not compilable (PredictBatch falls back).
    RandomForest empty(Task::kClassification, 4, 3);
    EXPECT_FALSE(ForestKernel::Supports(empty));
    EXPECT_THROW(empty.Kernel(), InvalidArgument);
    EXPECT_TRUE(empty.PredictBatch(eval.values().data(), 0, 4).empty());
}

TEST(ForestKernelTest, TilesPartitionLargeEnsembles)
{
    RandomForest forest = TrainSmallIris(32, 6, 41);
    ForestKernelOptions options;
    options.tile_node_budget = 64;  // force several tiles
    options.autotune = false;       // keep the explicit budget
    ForestKernel kernel(forest, options);
    EXPECT_GT(kernel.NumTiles(), 1u);

    Dataset eval = MakeIris(999, 42);
    EXPECT_EQ(kernel.Predict(eval.values().data(), eval.num_rows(),
                             eval.num_features()),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
}

// ------------------------------------------------- property sweep --

/** (generator, trees, depth): generator 0 IRIS, 1 HIGGS, 2 regression. */
class ForestKernelSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(ForestKernelSweepTest, BitIdenticalToReferenceOnRaggedBatches)
{
    auto [generator, trees, depth] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        1000 + generator * 100 + trees * 10 + depth);

    Dataset train = generator == 0 ? MakeIris(200, seed)
                    : generator == 1
                        ? MakeHiggs(300, seed)
                        : MakeSyntheticRegression(300, 6, 0.1, seed);
    Dataset eval = generator == 0 ? MakeIris(4097, seed + 1)
                   : generator == 1
                       ? MakeHiggs(4097, seed + 1)
                       : MakeSyntheticRegression(4097, 6, 0.1, seed + 1);

    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    config.seed = seed;
    RandomForest forest = TrainForest(train, config);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, 4097, cols);

    // Ragged batch sizes straddling the parallel cutoff and the row
    // blocking: empty, single row, one under, one over.
    for (std::size_t n : {std::size_t{0}, std::size_t{1},
                          std::size_t{4095}, std::size_t{4097}}) {
        auto got = forest.PredictBatch(rows, n, cols);
        ASSERT_EQ(got.size(), n);
        EXPECT_EQ(got, std::vector<float>(expected.begin(),
                                          expected.begin() +
                                              static_cast<long>(n)))
            << "generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestKernelSweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 128),
                       ::testing::Values(1, 6, 10)));

// ----------------------------------------------- threshold oracle --

/** Combiners the threshold path can meet. */
enum class OracleModel { kForestMean, kGbdtMargin, kGbdtClassify, kVote };

/** (combiner, trees): the checkpoint sits every 8 trees, so 1/8/9/24
 * cover no checkpoint, exactly one segment, a 1-tree tail, and three
 * full segments. */
class ForestKernelThresholdTest
    : public ::testing::TestWithParam<std::tuple<OracleModel, int>> {};

TEST_P(ForestKernelThresholdTest, MatchesPredictThenCompare)
{
    const auto [which, trees] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        3000 + 100 * static_cast<int>(which) + trees);
    const bool regress_data =
        which == OracleModel::kForestMean || which == OracleModel::kGbdtMargin;
    const Dataset train = regress_data
                              ? MakeSyntheticRegression(300, 6, 0.1, seed)
                              : MakeHiggs(300, seed);
    const Dataset eval = regress_data
                             ? MakeSyntheticRegression(1025, 6, 0.1, seed + 1)
                             : MakeHiggs(1025, seed + 1);

    // Both inner loops (SIMD degrades to scalar where the vector
    // backend is unavailable), without the autotuner's timing noise.
    std::vector<std::unique_ptr<ForestKernel>> kernels;
    for (KernelLanes lanes : {KernelLanes::kSimd, KernelLanes::kScalar}) {
        ForestKernelOptions options;
        options.lanes = lanes;
        options.autotune = false;
        options.parallel_grain = 512;  // 1025 rows fan out over two chunks
        if (which == OracleModel::kForestMean ||
            which == OracleModel::kVote) {
            ForestTrainerConfig config;
            config.num_trees = static_cast<std::size_t>(trees);
            config.max_depth = 6;
            config.seed = seed;
            kernels.push_back(std::make_unique<ForestKernel>(
                TrainForest(train, config), options));
        } else {
            GbdtConfig config;
            config.num_trees = static_cast<std::size_t>(trees);
            config.max_depth = 4;
            config.seed = seed;
            kernels.push_back(std::make_unique<ForestKernel>(
                which == OracleModel::kGbdtMargin
                    ? TrainGbdtRegressor(train, config)
                    : TrainGbdtClassifier(train, config),
                options));
        }
    }
    EXPECT_FALSE(kernels[1]->simd_active());

    // Rows laid out with 3 padding columns, read through a strided
    // column-prefix view; every 7th row carries a NaN feature (NaN
    // descends right).
    const std::size_t cols = eval.num_features();
    const std::size_t wide = cols + 3;
    std::vector<float> compact(eval.values().begin(), eval.values().end());
    for (std::size_t i = 0; i < eval.num_rows(); i += 7) {
        compact[i * cols + i % cols] = std::numeric_limits<float>::quiet_NaN();
    }
    std::vector<float> padded(eval.num_rows() * wide, -7.0f);
    for (std::size_t i = 0; i < eval.num_rows(); ++i) {
        std::copy(compact.begin() + static_cast<long>(i * cols),
                  compact.begin() + static_cast<long>((i + 1) * cols),
                  padded.begin() + static_cast<long>(i * wide));
    }

    for (const auto& kernel : kernels) {
        EXPECT_EQ(kernel->SupportsThresholdEarlyExit(),
                  which != OracleModel::kVote);
        std::vector<float> sorted = kernel->Predict(
            RowView::Borrow(compact.data(), eval.num_rows(), cols));
        std::sort(sorted.begin(), sorted.end());
        const float lo = sorted.front();
        const float hi = sorted.back();
        const float unreachable = std::abs(hi) + std::abs(lo) + 1000.0f;
        const std::vector<float> thetas = {
            lo, sorted[sorted.size() * 3 / 10],
            sorted[sorted.size() * 7 / 10], hi, unreachable};

        for (std::size_t n :
             {std::size_t{0}, std::size_t{1}, std::size_t{15},
              std::size_t{17}, std::size_t{1025}}) {
            for (const RowView& view :
                 {RowView::Borrow(compact.data(), n, cols),
                  RowView::Borrow(padded.data(), n, wide).Prefix(cols)}) {
                const std::vector<float> preds = kernel->Predict(view);
                for (ThresholdOp op : {ThresholdOp::kGt, ThresholdOp::kGe,
                                       ThresholdOp::kLt, ThresholdOp::kLe}) {
                    for (float theta : thetas) {
                        ThresholdStats stats;
                        const std::vector<std::uint8_t> keep =
                            kernel->PredictThreshold(view, op, theta,
                                                     &stats);
                        ASSERT_EQ(keep.size(), n);
                        for (std::size_t i = 0; i < n; ++i) {
                            ASSERT_EQ(keep[i] != 0,
                                      ThresholdHolds(op, theta, preds[i]))
                                << "row " << i << " n=" << n << " op="
                                << static_cast<int>(op)
                                << " theta=" << theta
                                << " stride=" << view.stride()
                                << " simd=" << kernel->simd_active();
                        }
                        EXPECT_EQ(stats.rows, n);
                        EXPECT_EQ(stats.tree_traversals_full,
                                  n * kernel->NumTrees());
                        EXPECT_LE(stats.tree_traversals,
                                  stats.tree_traversals_full);
                        if (theta == unreachable && n > 0 && trees > 8 &&
                            kernel->SupportsThresholdEarlyExit()) {
                            EXPECT_GT(stats.rows_decided_early, 0u)
                                << "op=" << static_cast<int>(op);
                        }
                    }
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Oracle, ForestKernelThresholdTest,
    ::testing::Combine(::testing::Values(OracleModel::kForestMean,
                                         OracleModel::kGbdtMargin,
                                         OracleModel::kGbdtClassify,
                                         OracleModel::kVote),
                       ::testing::Values(1, 8, 9, 24)));

}  // namespace
}  // namespace dbscore
