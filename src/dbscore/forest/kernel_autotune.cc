#include "dbscore/forest/kernel_autotune.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/simd.h"
#include "dbscore/trace/trace.h"

namespace dbscore {

namespace {

/** Rows in the synthetic timing sample (multiple of every lane/group
 * width, small enough that a full candidate grid stays well under a
 * second even on large ensembles). */
constexpr std::size_t kSampleRows = 1024;
/** Timing repetitions per candidate; the minimum is kept. Three keeps
 * the full grid in the hundreds of milliseconds on 128-tree models
 * while giving each candidate two chances to dodge a scheduler hiccup
 * (a mistimed winner costs every later Predict call, a slow autotune
 * costs once). */
constexpr int kReps = 3;

/** Seed of the synthetic sample rows. */
constexpr std::uint64_t kSampleSeed = 42;

std::mutex g_cache_mutex;
std::map<std::string, ForestKernel::Tuning>& // NOLINT(runtime/string)
Cache()
{
    static auto* cache = new std::map<std::string, ForestKernel::Tuning>();
    return *cache;
}

/** xorshift64: deterministic, seedable, no <random> state size. */
inline std::uint64_t
NextRand(std::uint64_t& s)
{
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
}

/**
 * Draws the timing sample from the ensemble's per-feature threshold
 * ranges (padded 25% beyond each side), so rows split at every level
 * instead of all draining down one side — traversal cost on the sample
 * tracks cost on real data.
 */
std::vector<float>
MakeSample(const std::vector<float>& lo, const std::vector<float>& hi)
{
    const std::size_t num_features = lo.size();
    std::vector<float> rows(kSampleRows * num_features);
    std::uint64_t s = kSampleSeed | 1;
    for (std::size_t i = 0; i < kSampleRows; ++i) {
        for (std::size_t f = 0; f < num_features; ++f) {
            const double frac =
                static_cast<double>(NextRand(s) >> 11) *
                (1.0 / 9007199254740992.0);
            const double flo = lo[f];
            const double fhi = hi[f];
            const double margin = 0.25 * (fhi - flo) + 1e-3;
            rows[i * num_features + f] = static_cast<float>(
                flo - margin + frac * (fhi - flo + 2.0 * margin));
        }
    }
    return rows;
}

std::string
CacheKey(const ForestKernel& kernel, const ForestKernelOptions& options)
{
    char buf[128];
    std::snprintf(buf, sizeof(buf), "t%zu n%zu f%zu c%d rb%zu tb%zu g%zu",
                  kernel.NumTrees(), kernel.NumNodes(),
                  kernel.num_features(), static_cast<int>(kernel.combine()),
                  options.row_block, options.tile_node_budget,
                  options.simd_groups);
    return buf;
}

std::size_t
ClampGroups(std::size_t g)
{
    if (g >= 8) {
        return 8;
    }
    if (g >= 4) {
        return 4;
    }
    return g == 0 ? 2 : g;
}

}  // namespace

void
ForestKernel::Autotune(const std::vector<float>& lo,
                       const std::vector<float>& hi)
{
    const bool simd_ok = simd::RuntimeEnabled();
    tuning_.row_block = options_.row_block;
    tuning_.tile_node_budget = options_.tile_node_budget;
    tuning_.groups = ClampGroups(options_.simd_groups);
    autotuned_ = false;

    if (options_.lanes == KernelLanes::kScalar) {
        tuning_.use_simd = false;
        return;
    }
    if (options_.lanes == KernelLanes::kSimd) {
        // Forced SIMD still degrades to scalar when the machine (or the
        // DBSCORE_SIMD escape hatch) cannot run the vector backend —
        // predictions are identical either way.
        tuning_.use_simd = simd_ok;
        return;
    }
    if (!options_.autotune) {
        tuning_.use_simd = simd_ok;
        return;
    }

    const std::string key = CacheKey(*this, options_);
    {
        std::lock_guard<std::mutex> lock(g_cache_mutex);
        auto it = Cache().find(key);
        if (it != Cache().end()) {
            tuning_ = it->second;
            autotuned_ = true;
            return;
        }
    }

    trace::ScopedSpan span(trace::StageKind::kKernelBuild,
                           "kernel-autotune");

    // Candidate grid, fixed enumeration order (ties keep the earliest).
    // Scalar candidates sweep the lane width (16/32/64 rows in flight);
    // SIMD candidates sweep the interleaved group count.
    std::vector<std::pair<std::size_t, bool>> lanes;  // {groups, simd}
    lanes.emplace_back(1, false);
    lanes.emplace_back(2, false);
    lanes.emplace_back(4, false);
    if (simd_ok) {
        lanes.emplace_back(1, true);
        lanes.emplace_back(2, true);
        lanes.emplace_back(4, true);
        lanes.emplace_back(8, true);
    }
    std::vector<std::size_t> row_blocks = {64, 256, options_.row_block};
    std::sort(row_blocks.begin(), row_blocks.end());
    row_blocks.erase(std::unique(row_blocks.begin(), row_blocks.end()),
                     row_blocks.end());
    const std::size_t nn = NumNodes();
    std::vector<std::size_t> budgets = {
        std::min<std::size_t>(std::size_t{1} << 14, nn),
        std::min<std::size_t>(std::size_t{1} << 16, nn), nn,
        std::min(options_.tile_node_budget, nn)};
    std::sort(budgets.begin(), budgets.end());
    budgets.erase(std::unique(budgets.begin(), budgets.end()),
                  budgets.end());

    const std::vector<float> sample = MakeSample(lo, hi);
    std::vector<float> out(kSampleRows);
    Scratch scratch;

    Tuning best{};
    double best_ns = 0.0;
    bool have_best = false;
    std::size_t tried = 0;
    for (const auto& [groups, use_simd] : lanes) {
        for (const std::size_t rb : row_blocks) {
            for (const std::size_t tb : budgets) {
                const Tuning cand{rb, tb, groups, use_simd};
                tuning_ = cand;
                double ns = 0.0;
                for (int rep = 0; rep < kReps; ++rep) {
                    const auto t0 =
                        std::chrono::steady_clock::now();
                    RunStrided(sample.data(), kSampleRows, num_features_,
                               out.data(), scratch);
                    const auto t1 =
                        std::chrono::steady_clock::now();
                    const double rep_ns =
                        std::chrono::duration<double, std::nano>(t1 - t0)
                            .count();
                    ns = rep == 0 ? rep_ns : std::min(ns, rep_ns);
                }
                ++tried;
                if (!have_best || ns < best_ns) {
                    have_best = true;
                    best_ns = ns;
                    best = cand;
                }
            }
        }
    }
    span.AddAttr("candidates", static_cast<double>(tried));
    span.AddAttr("winner_row_block", static_cast<double>(best.row_block));
    span.AddAttr("winner_tile_budget",
                 static_cast<double>(best.tile_node_budget));
    span.AddAttr("winner_simd_groups",
                 best.use_simd ? static_cast<double>(best.groups) : 0.0);

    tuning_ = best;
    autotuned_ = true;
    {
        std::lock_guard<std::mutex> lock(g_cache_mutex);
        Cache().emplace(key, best);
    }
}

void
AutotuneCacheClear()
{
    std::lock_guard<std::mutex> lock(g_cache_mutex);
    Cache().clear();
}

}  // namespace dbscore
