/**
 * @file
 * Tests for the forest kernel's tuned layout: the SoA/SIMD node pool,
 * the simd.h shim, the build-time autotuner, and the options-aware
 * kernel caches.
 *
 * The contract under test:
 *
 *  - Predictions are bit-identical to the scalar reference across task
 *    type, shape, depth, and ragged batch sizes, on both the SIMD and
 *    the scalar inner loop. Engine coverage rides on the
 *    AllEnginesAgree sweep, whose batch path compiles the same kernel.
 *  - Forced-SIMD and forced-scalar plans compute identical
 *    predictions, so the shim can be swapped out (DBSCORE_SIMD=OFF
 *    build leg, DBSCORE_SIMD=off env) without changing results.
 *  - Ensembles the packed node word cannot address are unsupported,
 *    and every caller falls back to the scalar reference path.
 *  - Autotuned parameters are served deterministically from the
 *    process-wide shape cache, and every choice comes from the
 *    candidate grid.
 *  - Kernel caches key on the full option set (options used to be
 *    silently dropped when a kernel was already cached).
 */
#include <algorithm>
#include <cmath>
#include <string_view>
#include <tuple>
#include <variant>
#include <vector>

#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/gbdt.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

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

ForestKernelOptions
V2Options(KernelLanes lanes = KernelLanes::kAuto)
{
    ForestKernelOptions options;
    options.lanes = lanes;
    options.autotune = false;  // sweep speed; tuning has its own tests
    return options;
}

// ------------------------------------------------- property sweep --

/** (generator, trees, depth): generator 0 IRIS, 1 HIGGS, 2 regression. */
class ForestKernelV2SweepTest
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

// The name predates the single layout; it stays so the sweep's test
// ids stay stable. Both halves are now exact: the SIMD and the scalar
// inner loop.
TEST_P(ForestKernelV2SweepTest, ExactBitIdenticalQuantizedEpsilon)
{
    auto [generator, trees, depth] = GetParam();
    const auto seed = static_cast<std::uint64_t>(
        2000 + generator * 100 + trees * 10 + depth);

    Dataset train = generator == 0 ? MakeIris(200, seed)
                    : generator == 1
                        ? MakeHiggs(300, seed)
                        : MakeSyntheticRegression(300, 6, 0.1, seed);
    Dataset eval = generator == 0 ? MakeIris(1025, seed + 1)
                   : generator == 1
                       ? MakeHiggs(1025, seed + 1)
                       : MakeSyntheticRegression(1025, 6, 0.1, seed + 1);

    ForestTrainerConfig config;
    config.num_trees = static_cast<std::size_t>(trees);
    config.max_depth = static_cast<std::size_t>(depth);
    config.seed = seed;
    RandomForest forest = TrainForest(train, config);

    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, 1025, cols);

    ForestKernel simd(forest, V2Options(KernelLanes::kSimd));
    ForestKernel scalar(forest, V2Options(KernelLanes::kScalar));
    EXPECT_FALSE(scalar.simd_active());

    // Ragged batch sizes straddling the row blocking and the SIMD
    // group width: empty, single row, one under/over a block.
    for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{63},
                          std::size_t{257}, std::size_t{1025}}) {
        const std::vector<float> want(expected.begin(),
                                      expected.begin() +
                                          static_cast<long>(n));
        EXPECT_EQ(simd.Predict(rows, n, cols), want)
            << "simd generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
        EXPECT_EQ(scalar.Predict(rows, n, cols), want)
            << "scalar generator=" << generator << " trees=" << trees
            << " depth=" << depth << " n=" << n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ForestKernelV2SweepTest,
    ::testing::Combine(::testing::Values(0, 1, 2),
                       ::testing::Values(1, 8, 128),
                       ::testing::Values(1, 6, 10)));

// ------------------------------------------- SIMD/scalar equivalence --

TEST(ForestKernelV2Test, SimdAndScalarShimsAgree)
{
    RandomForest forest = TrainSmallIris(32, 8, 51);
    Dataset eval = MakeIris(1000, 52);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, eval.num_rows(), cols);

    ForestKernel scalar(forest, V2Options(KernelLanes::kScalar));
    ForestKernel simd(forest, V2Options(KernelLanes::kSimd));
    EXPECT_FALSE(scalar.simd_active());
    // On machines without the vector backend, forced-SIMD degrades to
    // the scalar loop — the equality below still holds.
    auto got_scalar = scalar.Predict(rows, eval.num_rows(), cols);
    auto got_simd = simd.Predict(rows, eval.num_rows(), cols);
    EXPECT_EQ(got_scalar, got_simd);
    EXPECT_EQ(got_scalar, expected);
}

TEST(ForestKernelV2Test, SimdGroupCountsAgree)
{
    RandomForest forest = TrainSmallIris(16, 7, 53);
    Dataset eval = MakeIris(515, 54);
    const float* rows = eval.values().data();
    const std::size_t cols = eval.num_features();
    auto expected = Reference(forest, rows, eval.num_rows(), cols);

    for (std::size_t groups : {std::size_t{1}, std::size_t{2},
                               std::size_t{4}}) {
        ForestKernelOptions options = V2Options(KernelLanes::kSimd);
        options.simd_groups = groups;
        ForestKernel kernel(forest, options);
        if (kernel.simd_active()) {
            EXPECT_EQ(kernel.simd_groups(), groups);
        }
        EXPECT_EQ(kernel.Predict(rows, eval.num_rows(), cols), expected);
    }
}

// --------------------------------------------------- oversized trees --

TEST(ForestKernelV2Test, OversizedTreesAreUnsupported)
{
    // A single tree above the 17-bit local-index budget cannot use the
    // packed node word: the kernel refuses it, and the batch and plan
    // paths fall back to the scalar reference.
    DecisionTree chain;
    std::int32_t prev = chain.AddDecisionNode(0, 0.5f);
    for (std::size_t i = 1; i < (std::size_t{1} << 16) + 4; ++i) {
        std::int32_t next = chain.AddDecisionNode(0, 0.5f);
        std::int32_t leaf = chain.AddLeafNode(0.0f);
        chain.SetChildren(prev, next, leaf);
        prev = next;
    }
    std::int32_t l = chain.AddLeafNode(1.0f);
    std::int32_t r = chain.AddLeafNode(0.0f);
    chain.SetChildren(prev, l, r);

    RandomForest forest(Task::kClassification, 1, 2);
    forest.AddTree(std::move(chain));
    EXPECT_FALSE(ForestKernel::Supports(forest));
    EXPECT_THROW(ForestKernel(forest, V2Options()), InvalidArgument);

    // x <= 0.5 walks the whole chain to class 1; NaN and x > 0.5 leave
    // at the root for class 0.
    Dataset data("chain", Task::kClassification, 1, 2);
    for (std::size_t i = 0; i < 64; ++i) {
        const float x = i % 9 == 0 ? std::nanf("")
                                   : static_cast<float>(i) / 64.0f;
        data.AddRow({x}, 0.0f);
    }
    const std::vector<float> got = forest.PredictBatch(data);
    ASSERT_EQ(got.size(), data.num_rows());
    std::size_t ones = 0;
    for (std::size_t i = 0; i < data.num_rows(); ++i) {
        EXPECT_EQ(got[i], forest.Predict(data.Row(i))) << "row " << i;
        ones += got[i] == 1.0f;
    }
    EXPECT_GT(ones, 0u);

    Database db;
    db.StoreDataset("t", data);
    db.StoreModel("m", TreeEnsemble::FromForest(forest));
    const std::string sql = "SELECT COUNT(*) FROM t WHERE SCORE(m) > 0.5";
    plan::Planner optimized(db, {/*optimize=*/true});
    plan::Planner naive(db, {/*optimize=*/false});
    const auto plan = optimized.PlanQuery(sql);
    EXPECT_EQ(plan->scores()[0].kernel, nullptr);
    const QueryResult want = naive.PlanQuery(sql)->Execute(db);
    const QueryResult have = plan->Execute(db);
    EXPECT_EQ(have.rows, want.rows);
    ASSERT_EQ(have.rows.size(), 1u);
    EXPECT_EQ(std::get<std::int64_t>(have.rows[0][0]),
              static_cast<std::int64_t>(ones));
}

// --------------------------------------------------------- autotuner --

TEST(ForestKernelV2Test, AutotunerIsCachedAndDeterministicPerShape)
{
    AutotuneCacheClear();
    RandomForest forest = TrainSmallIris(16, 6, 55);
    ForestKernelOptions options;  // defaults: v2, kAuto, autotune on

    ForestKernel first(forest, options);
    EXPECT_TRUE(first.autotuned());
    // Winners come from the candidate grid.
    EXPECT_TRUE(first.tuned_row_block() == 64 ||
                first.tuned_row_block() == 256);
    EXPECT_GT(first.tuned_tile_node_budget(), 0u);

    // Same shape + seed: the cached winner is reused verbatim, making
    // rebuilds (and serve-path re-registrations) deterministic.
    ForestKernel second(forest, options);
    EXPECT_TRUE(second.autotuned());
    EXPECT_EQ(second.tuned_row_block(), first.tuned_row_block());
    EXPECT_EQ(second.tuned_tile_node_budget(),
              first.tuned_tile_node_budget());
    EXPECT_EQ(second.simd_active(), first.simd_active());
    EXPECT_EQ(second.simd_groups(), first.simd_groups());

    // Tuning never changes results, only speed.
    Dataset eval = MakeIris(700, 56);
    EXPECT_EQ(first.Predict(eval.values().data(), eval.num_rows(),
                            eval.num_features()),
              Reference(forest, eval.values().data(), eval.num_rows(),
                        eval.num_features()));
    AutotuneCacheClear();
}

TEST(ForestKernelV2Test, AutotuneOffHonorsExplicitParameters)
{
    RandomForest forest = TrainSmallIris(8, 5, 57);
    ForestKernelOptions options;
    options.autotune = false;
    options.row_block = 128;
    options.tile_node_budget = 96;
    ForestKernel kernel(forest, options);
    EXPECT_FALSE(kernel.autotuned());
    EXPECT_EQ(kernel.tuned_row_block(), 128u);
    EXPECT_EQ(kernel.tuned_tile_node_budget(), 96u);
    EXPECT_GT(kernel.NumTiles(), 1u);
}

// --------------------------------------------- options as cache key --

TEST(ForestKernelV2Test, KernelCacheKeysOnOptions)
{
    RandomForest forest = TrainSmallIris(4, 4, 58);

    auto v2_default = forest.Kernel();
    EXPECT_EQ(forest.Kernel().get(), v2_default.get());  // cached

    // Different options must rebuild, not serve the stale plan (they
    // used to be silently ignored whenever a kernel was cached).
    ForestKernelOptions wide_options;
    wide_options.row_block = 256;
    auto wide = forest.Kernel(wide_options);
    EXPECT_NE(wide.get(), v2_default.get());
    EXPECT_EQ(wide->options().row_block, 256u);
    EXPECT_EQ(forest.Kernel(wide_options).get(), wide.get());  // re-cached

    // And switching back rebuilds again under the default options.
    auto v2_again = forest.Kernel();
    EXPECT_NE(v2_again.get(), wide.get());
    EXPECT_EQ(v2_again->options(), ForestKernelOptions{});

    // Both plans agree bit-for-bit.
    Dataset eval = MakeIris(333, 59);
    EXPECT_EQ(wide->Predict(eval.values().data(), eval.num_rows(),
                            eval.num_features()),
              v2_again->Predict(eval.values().data(), eval.num_rows(),
                                eval.num_features()));
}

// -------------------------------------------------------------- gbdt --

TEST(ForestKernelV2Test, GbdtKernelMatchesPerRowPredict)
{
    GbdtConfig config;
    config.num_trees = 20;
    config.max_depth = 4;
    config.seed = 61;

    Dataset train_r = MakeSyntheticRegression(300, 6, 0.1, 61);
    GradientBoostedModel reg = TrainGbdtRegressor(train_r, config);
    ASSERT_TRUE(ForestKernel::Supports(reg));
    Dataset eval_r = MakeSyntheticRegression(513, 6, 0.1, 62);
    auto kernel_r = reg.Kernel();
    EXPECT_EQ(kernel_r->combine(), KernelCombine::kMargin);
    auto got_r = kernel_r->Predict(eval_r.values().data(),
                                   eval_r.num_rows(),
                                   eval_r.num_features());
    for (std::size_t i = 0; i < eval_r.num_rows(); ++i) {
        ASSERT_EQ(got_r[i], reg.Predict(eval_r.Row(i))) << "row " << i;
    }

    Dataset train_c = MakeHiggs(300, 63);
    GradientBoostedModel cls = TrainGbdtClassifier(train_c, config);
    Dataset eval_c = MakeHiggs(513, 64);
    auto kernel_c = cls.Kernel();
    EXPECT_EQ(kernel_c->combine(), KernelCombine::kMarginClassify);
    auto got_c = kernel_c->Predict(eval_c.values().data(),
                                   eval_c.num_rows(),
                                   eval_c.num_features());
    for (std::size_t i = 0; i < eval_c.num_rows(); ++i) {
        ASSERT_EQ(got_c[i], cls.Predict(eval_c.Row(i))) << "row " << i;
    }

    // The batch entry point routes through the same kernel.
    EXPECT_EQ(cls.PredictBatch(eval_c), got_c);
    // And the cache invalidates on mutation, like the forest's.
    auto before = cls.Kernel();
    EXPECT_EQ(cls.Kernel().get(), before.get());
    DecisionTree stump;
    stump.AddLeafNode(0.5f);
    cls.AddTree(std::move(stump));
    EXPECT_NE(cls.Kernel().get(), before.get());
}

// -------------------------------------------------------------- trace --

TEST(ForestKernelV2Test, KernelBuildEmitsTraceStage)
{
    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    tracer.Clear();
    AutotuneCacheClear();

    RandomForest forest = TrainSmallIris(8, 5, 65);
    ForestKernelOptions options;  // autotune on: expect the child span
    ForestKernel kernel(forest, options);
    (void)kernel;

    bool saw_build = false;
    bool saw_autotune = false;
    for (const auto& span : tracer.Spans()) {
        if (span.stage == trace::StageKind::kKernelBuild) {
            if (std::string_view(span.name) == "kernel-build") {
                saw_build = true;
            }
            if (std::string_view(span.name) == "kernel-autotune") {
                saw_autotune = true;
            }
        }
    }
    EXPECT_TRUE(saw_build);
    EXPECT_TRUE(saw_autotune);
    tracer.Clear();
    AutotuneCacheClear();
}

TEST(ForestKernelV2Test, BuildWallTimeIsStampedOnEveryBuildPath)
{
    AutotuneCacheClear();
    RandomForest forest = TrainSmallIris(8, 5, 66);
    ForestKernelOptions tuned;  // autotune on: a fresh grid, then a hit
    ForestKernelOptions explicit_block = V2Options();
    explicit_block.row_block = 128;
    for (const ForestKernelOptions& options :
         {tuned, tuned, explicit_block, V2Options(KernelLanes::kScalar),
          V2Options(KernelLanes::kSimd)}) {
        EXPECT_GT(ForestKernel(forest, options).build_wall_ms(), 0.0);
    }
    AutotuneCacheClear();
}

// ------------------------------------------------------------ scratch --

TEST(ForestKernelV2Test, ScratchReusableAcrossModesAndBatches)
{
    // One scratch serves a vote kernel and an accumulate kernel, on
    // both inner loops, back to back.
    RandomForest vote = TrainSmallIris(8, 6, 66);
    ForestTrainerConfig config;
    config.num_trees = 8;
    config.max_depth = 6;
    config.seed = 66;
    RandomForest regress =
        TrainForest(MakeSyntheticRegression(300, 4, 0.1, 66), config);
    Dataset a = MakeIris(700, 67);
    Dataset b = MakeIris(130, 68);

    ForestKernel::Scratch scratch;
    std::vector<float> out_a(a.num_rows());
    std::vector<float> out_b(b.num_rows());
    for (KernelLanes lanes : {KernelLanes::kSimd, KernelLanes::kScalar}) {
        ForestKernel vote_kernel(vote, V2Options(lanes));
        ForestKernel regress_kernel(regress, V2Options(lanes));
        vote_kernel.Run(a.values().data(), a.num_rows(), a.num_features(),
                        out_a.data(), scratch);
        regress_kernel.Run(b.values().data(), b.num_rows(),
                           b.num_features(), out_b.data(), scratch);
        EXPECT_EQ(out_a, Reference(vote, a.values().data(), a.num_rows(),
                                   a.num_features()));
        EXPECT_EQ(out_b, Reference(regress, b.values().data(), b.num_rows(),
                                   b.num_features()));
        vote_kernel.Run(b.values().data(), b.num_rows(), b.num_features(),
                        out_b.data(), scratch);
        EXPECT_EQ(out_b, Reference(vote, b.values().data(), b.num_rows(),
                                   b.num_features()));
    }
}

}  // namespace
}  // namespace dbscore
