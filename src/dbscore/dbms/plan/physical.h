/**
 * @file
 * Physical plans: a compiled, executable form of a rewritten logical
 * plan.
 *
 * Compilation front-loads everything expensive and reusable — the
 * stored model is loaded from the database, deserialized, rebuilt as a
 * RandomForest, and compiled into one ForestKernel per SCORE, which
 * serves both score values and pushed-down SCORE thresholds — so a
 * plan served from the LRU plan cache
 * (plan/plan_cache.h) skips the whole LoadModel -> ToForest -> Kernel
 * chain on every subsequent execution.
 *
 * Execution has two paths:
 *
 *  - plain statements (no SCORE) run the legacy Value-typed
 *    interpreter, preserving the pre-planner engine's semantics
 *    exactly (including "At() on a paged table" errors);
 *  - scored statements stream feature chunks (zone-map-pruned for
 *    paged tables, whose pages are copied into kernel-sized batches
 *    of ScanBatchRows() rows), apply plain predicates first, evaluate
 *    SCORE predicates over the compacted survivors (early-exit kernel
 *    when the rewriter pushed the threshold down), and fold fused
 *    aggregates into the loop without materializing a score column.
 *
 * Executing a rewritten plan is bit-identical to executing the naive
 * plan of the same statement: pruning/pushdown/fusion change how much
 * work runs, never the result (DESIGN.md §14).
 */
#ifndef DBSCORE_DBMS_PLAN_PHYSICAL_H
#define DBSCORE_DBMS_PLAN_PHYSICAL_H

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "dbscore/dbms/database.h"
#include "dbscore/dbms/plan/logical.h"
#include "dbscore/dbms/query_result.h"
#include "dbscore/forest/forest.h"

namespace dbscore::plan {

/**
 * "score op literal" at float32 precision: the SCORE-predicate
 * semantics the early-exit kernel path, the naive score-then-compare
 * path and sp_serve_query all implement, so their results are
 * bit-identical even for literals that are not exactly representable
 * as float (DESIGN.md §14).
 */
bool ScorePredHolds(CompareOp op, float value, float literal);

/** One SCORE expression compiled against its stored model. */
struct CompiledScore {
    /** Resolved expression (explicit feature list). */
    ScoreExpr expr;
    /** Table column index per model feature, model order. */
    std::vector<std::size_t> feature_cols;
    /** Same, in the feature layout (label excluded) of scans. */
    std::vector<std::size_t> feature_idx;
    /** feature_idx == [0, k): a strided column-prefix view suffices. */
    bool identity_prefix = false;
    /** feature_idx covers every feature column, in table order. */
    bool covers_all = false;

    /** The deserialized model (always a RandomForest; GBDTs stored as
     * ensembles fold into the regression/margin representation). */
    std::shared_ptr<const RandomForest> model;
    /** Compiled inference plan; null when the kernel can't compile
     * this model (execution falls back to the scalar reference). */
    std::shared_ptr<const ForestKernel> kernel;
    /** `kernel` again when a SCORE predicate was marked early-exit
     * and the combine supports suffix-bound early exit, else null. */
    std::shared_ptr<const ForestKernel> threshold_kernel;
};

/**
 * The scan + plain-filter prefix of a scored plan, materialized as a
 * serving payload: survivors' model features plus their row ids. How
 * sp_serve_query hands a SQL-shaped request to the ScoringService.
 */
struct ScoringBatch {
    /** Model named by the plan's (single) SCORE expression. */
    std::string model;
    /** survivors x model-features block (service request payload). */
    RowBlock features;
    /** Global row id of each batch row. */
    std::vector<std::size_t> row_ids;
};

/** A compiled, immutable, shareable plan. Thread-safe to Execute. */
class PhysicalPlan {
 public:
    /**
     * Compiles @p logical: loads + compiles every referenced model.
     * @throws NotFound when a model is missing
     * @throws InvalidArgument on feature-arity mismatches
     */
    PhysicalPlan(LogicalPlan logical, const Database& db);

    /** Runs the plan against the current table contents. */
    QueryResult Execute(const Database& db) const;

    /**
     * Runs the scan + plain-filter prefix and gathers the survivors'
     * model features (plans with exactly one SCORE expression).
     * SCORE predicates / sort / aggregation are left to the caller —
     * the serving layer computes predictions remotely.
     * @throws InvalidArgument unless exactly one SCORE is present
     */
    ScoringBatch CollectScoringBatch(const Database& db) const;

    const LogicalPlan& logical() const { return logical_; }
    const std::vector<CompiledScore>& scores() const { return scores_; }
    bool uses_score() const { return !scores_.empty(); }
    /** SCORE predicates in WHERE order (empty for plain plans). */
    const std::vector<ScorePredicate>& score_predicates() const
    {
        return score_preds_;
    }

    /**
     * Rows per scoring batch on paged scans: shared ThreadPool size x
     * the kernel's parallel_grain, the smallest batch every worker
     * gets a full grain of.
     */
    std::size_t ScanBatchRows() const;

    /** Cumulative early-exit work accounting across Execute calls. */
    ThresholdStats threshold_stats() const;

    /** Physical annotation lines for EXEC sp_explain. */
    std::vector<std::string> ExplainPhysical() const;

 private:
    QueryResult ExecutePlain(const Table& table) const;
    QueryResult ExecuteScore(const Table& table) const;

    LogicalPlan logical_;
    std::vector<CompiledScore> scores_;

    // Flattened annotations (mirrors of the logical chain, resolved
    // once at compile time).
    std::vector<ColumnPredicate> plain_preds_;
    std::vector<ScorePredicate> score_preds_;
    std::optional<storage::ScanPredicate> zone_predicate_;
    bool scan_pruned_ = false;
    bool fused_aggregate_ = false;

    mutable std::mutex stats_mutex_;
    mutable ThresholdStats threshold_stats_;
};

}  // namespace dbscore::plan

#endif  // DBSCORE_DBMS_PLAN_PHYSICAL_H
