#include "dbscore/dbms/plan/physical.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"
#include "dbscore/common/thread_pool.h"
#include "dbscore/forest/onnx_like.h"

namespace dbscore::plan {

bool
ScorePredHolds(CompareOp op, float value, float literal)
{
    switch (op) {
      case CompareOp::kEq:
        return value == literal;
      case CompareOp::kNe:
        return value != literal;
      case CompareOp::kLt:
        return value < literal;
      case CompareOp::kLe:
        return value <= literal;
      case CompareOp::kGt:
        return value > literal;
      case CompareOp::kGe:
        return value >= literal;
    }
    return false;
}

namespace {

/** CompareOp -> kernel ThresholdOp (ordered comparisons only). */
std::optional<ThresholdOp>
ToThresholdOp(CompareOp op)
{
    switch (op) {
      case CompareOp::kGt:
        return ThresholdOp::kGt;
      case CompareOp::kGe:
        return ThresholdOp::kGe;
      case CompareOp::kLt:
        return ThresholdOp::kLt;
      case CompareOp::kLe:
        return ThresholdOp::kLe;
      case CompareOp::kEq:
      case CompareOp::kNe:
        return std::nullopt;
    }
    return std::nullopt;
}

/**
 * Compacting gather from @p src into @p scratch: row subset (@p rows
 * null = all), column subset (@p cols null = all of src's columns).
 * Returns a borrowing view over @p scratch — valid until the next
 * gather into the same scratch. Counted as a feature-storage copy.
 */
RowView
Gather(const RowView& src, const std::uint32_t* rows, std::size_t num_rows,
       const std::size_t* cols, std::size_t num_cols,
       std::vector<float>& scratch)
{
    const std::size_t width = cols != nullptr ? num_cols : src.cols();
    scratch.resize(num_rows * width);
    float* out = scratch.data();
    for (std::size_t i = 0; i < num_rows; ++i) {
        const float* row =
            src.Row(rows != nullptr ? rows[i] : i);
        if (cols != nullptr) {
            for (std::size_t j = 0; j < width; ++j) {
                out[j] = row[cols[j]];
            }
        } else {
            std::copy(row, row + width, out);
        }
        out += width;
    }
    RowBlock::NoteCopy(static_cast<std::uint64_t>(num_rows) * width *
                       sizeof(float));
    return RowView::Borrow(scratch.data(), num_rows, width);
}

/**
 * Cell of scored-scan row @p i (table row @p r): in-memory tables
 * return the stored Value; paged tables read feature columns from
 * @p feats, the scan's feature rows (label column excluded), and the
 * label through FloatAt.
 */
Value
ScanCell(const Table& table, const RowView* feats, std::size_t i,
         std::size_t r, std::size_t col)
{
    if (!table.paged()) {
        return table.At(r, col);
    }
    const std::size_t label_col = table.LabelColumnIndex();
    if (col == label_col) {
        return static_cast<double>(table.FloatAt(r, col));
    }
    return static_cast<double>(
        feats->At(i, col - (col > label_col ? 1 : 0)));
}

/** True when scan row @p i (table row @p r) passes every predicate. */
bool
PlainPredicatesHold(const std::vector<ColumnPredicate>& preds,
                    const Table& table, const RowView* feats,
                    std::size_t i, std::size_t r)
{
    for (const ColumnPredicate& pred : preds) {
        const int cmp = CompareValues(
            ScanCell(table, feats, i, r, pred.column), pred.literal);
        if (!EvalCompareOp(pred.op, cmp)) {
            return false;
        }
    }
    return true;
}

/**
 * Cell read for the plain interpreter: in-memory tables return the
 * stored Value (legacy-exact, including strings and blobs); paged
 * tables surface their float32 cells as doubles, which makes plain
 * SELECTs work over paged tables (every paged column is numeric).
 */
Value
PlainCell(const Table& table, std::size_t row, std::size_t col)
{
    if (table.paged()) {
        return static_cast<double>(table.FloatAt(row, col));
    }
    return table.At(row, col);
}

/** Evaluates one aggregate over the selected rows (legacy path). */
Value
EvaluateAggregate(const Table& table, const AggregateItem& item,
                  const std::vector<std::size_t>& rows)
{
    if (item.func == AggFunc::kCount && item.column.empty()) {
        return static_cast<std::int64_t>(rows.size());
    }
    const std::size_t col = table.ColumnIndex(item.column);
    switch (item.func) {
      case AggFunc::kCount:
        return static_cast<std::int64_t>(rows.size());
      case AggFunc::kSum:
      case AggFunc::kAvg: {
        double sum = 0.0;
        for (std::size_t r : rows) {
            sum += ValueAsDouble(PlainCell(table, r, col));
        }
        if (item.func == AggFunc::kSum) {
            return sum;
        }
        if (rows.empty()) {
            throw InvalidArgument("AVG over zero rows");
        }
        return sum / static_cast<double>(rows.size());
      }
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (rows.empty()) {
            throw InvalidArgument(std::string(AggFuncName(item.func)) +
                                  " over zero rows");
        }
        Value best = PlainCell(table, rows.front(), col);
        for (std::size_t r : rows) {
            Value v = PlainCell(table, r, col);
            int cmp = CompareValues(v, best);
            if ((item.func == AggFunc::kMin && cmp < 0) ||
                (item.func == AggFunc::kMax && cmp > 0)) {
                best = std::move(v);
            }
        }
        return best;
      }
    }
    throw InvalidArgument("unknown aggregate");
}

}  // namespace

PhysicalPlan::PhysicalPlan(LogicalPlan logical, const Database& db)
    : logical_(std::move(logical))
{
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kFilter)) {
        plain_preds_ = op->predicates;
    }
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kFilterScore)) {
        score_preds_ = op->score_predicates;
    }
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kScan)) {
        zone_predicate_ = op->zone_predicate;
        scan_pruned_ = op->pruned;
    }
    if (const LogicalOp* op = logical_.Find(LogicalOpKind::kAggregate)) {
        fused_aggregate_ = op->fused;
    }

    const std::size_t label_col = logical_.label_col;
    const std::size_t num_cols = logical_.column_names.size();
    const std::size_t num_features =
        num_cols - (label_col < num_cols ? 1 : 0);

    scores_.reserve(logical_.scores.size());
    for (std::size_t s = 0; s < logical_.scores.size(); ++s) {
        const ResolvedScore& rs = logical_.scores[s];
        CompiledScore cs;
        cs.expr = rs.expr;
        cs.feature_cols = rs.feature_cols;
        cs.feature_idx.reserve(rs.feature_cols.size());
        for (std::size_t c : rs.feature_cols) {
            cs.feature_idx.push_back(c - (c > label_col ? 1 : 0));
        }
        cs.identity_prefix = true;
        for (std::size_t j = 0; j < cs.feature_idx.size(); ++j) {
            if (cs.feature_idx[j] != j) {
                cs.identity_prefix = false;
                break;
            }
        }
        cs.covers_all = cs.identity_prefix &&
                        cs.feature_idx.size() == num_features;

        // The expensive part the plan cache amortizes: blob ->
        // TreeEnsemble -> RandomForest -> compiled kernel.
        TreeEnsemble ensemble = db.LoadModel(cs.expr.model);
        auto model = std::make_shared<RandomForest>(ensemble.ToForest());
        if (model->num_features() != cs.feature_cols.size()) {
            throw InvalidArgument(StrFormat(
                "SCORE(%s): model expects %zu feature(s), expression "
                "provides %zu",
                cs.expr.model.c_str(), model->num_features(),
                cs.feature_cols.size()));
        }
        if (ForestKernel::Supports(*model)) {
            cs.kernel = model->Kernel();
        }
        bool wants_early_exit = false;
        for (const ScorePredicate& pred : score_preds_) {
            if (pred.score_index == s && pred.early_exit) {
                wants_early_exit = true;
            }
        }
        if (wants_early_exit && cs.kernel != nullptr &&
            cs.kernel->SupportsThresholdEarlyExit()) {
            cs.threshold_kernel = cs.kernel;
        }
        cs.model = std::move(model);
        scores_.push_back(std::move(cs));
    }
}

QueryResult
PhysicalPlan::Execute(const Database& db) const
{
    const Table& table = db.GetTable(logical_.stmt.table);
    return uses_score() ? ExecuteScore(table) : ExecutePlain(table);
}

// The pre-planner interpreter, preserved verbatim for plain
// statements on in-memory tables: Value-typed filtering, stable
// ORDER BY, TOP after sort. Paged tables (numeric-only by
// construction) are read through FloatAt, so plain SELECTs also work
// against the out-of-core data plane.
QueryResult
PhysicalPlan::ExecutePlain(const Table& table) const
{
    const SelectStatement& stmt = logical_.stmt;

    std::vector<std::size_t> where_cols;
    where_cols.reserve(stmt.where.size());
    for (const auto& clause : stmt.where) {
        where_cols.push_back(table.ColumnIndex(clause.column));
    }

    // Filter.
    std::vector<std::size_t> matched;
    for (std::size_t r = 0; r < table.NumRows(); ++r) {
        bool keep = true;
        for (std::size_t w = 0; w < stmt.where.size(); ++w) {
            int cmp = CompareValues(PlainCell(table, r, where_cols[w]),
                                    stmt.where[w].literal);
            if (!EvalCompareOp(stmt.where[w].op, cmp)) {
                keep = false;
                break;
            }
        }
        if (keep) {
            matched.push_back(r);
        }
    }

    QueryResult result;

    // Aggregate queries collapse to a single row.
    if (!stmt.aggregates.empty()) {
        std::vector<Value> row;
        for (const auto& item : stmt.aggregates) {
            result.columns.push_back(
                std::string(AggFuncName(item.func)) + "(" +
                (item.column.empty() ? "*" : item.column) + ")");
            row.push_back(EvaluateAggregate(table, item, matched));
        }
        result.rows.push_back(std::move(row));
        result.message = "1 row(s)";
        return result;
    }

    // ORDER BY (stable, so ties keep table order), then TOP.
    if (stmt.order_by.has_value()) {
        const std::size_t col = table.ColumnIndex(stmt.order_by->column);
        const bool desc = stmt.order_by->descending;
        std::stable_sort(matched.begin(), matched.end(),
                         [&](std::size_t a, std::size_t b) {
                             int cmp =
                                 CompareValues(PlainCell(table, a, col),
                                               PlainCell(table, b, col));
                             return desc ? cmp > 0 : cmp < 0;
                         });
    }
    if (stmt.top.has_value() && matched.size() > *stmt.top) {
        matched.resize(*stmt.top);
    }

    // Project.
    std::vector<std::size_t> projection;
    if (stmt.star) {
        for (std::size_t c = 0; c < table.NumColumns(); ++c) {
            projection.push_back(c);
            result.columns.push_back(table.schema()[c].name);
        }
    } else {
        for (const auto& name : stmt.columns) {
            projection.push_back(table.ColumnIndex(name));
            result.columns.push_back(name);
        }
    }
    result.rows.reserve(matched.size());
    for (std::size_t r : matched) {
        std::vector<Value> row;
        row.reserve(projection.size());
        for (std::size_t c : projection) {
            row.push_back(PlainCell(table, r, c));
        }
        result.rows.push_back(std::move(row));
    }
    result.message = StrFormat("%zu row(s)", result.rows.size());
    return result;
}

namespace {

/** Running state of one streaming aggregate. */
struct AggState {
    double sum = 0.0;
    std::optional<Value> best;
};

}  // namespace

QueryResult
PhysicalPlan::ExecuteScore(const Table& table) const
{
    const SelectStatement& stmt = logical_.stmt;
    const bool paged = table.paged();

    // Which scores must produce values (vs predicate-only scores the
    // rewriter may have pushed into the kernel).
    std::vector<bool> value_needed(scores_.size(), false);
    for (std::size_t s : logical_.select_score_map) {
        value_needed[s] = true;
    }
    for (const auto& s : logical_.agg_score_map) {
        if (s.has_value()) {
            value_needed[*s] = true;
        }
    }
    if (logical_.order_score.has_value()) {
        value_needed[*logical_.order_score] = true;
    }

    // In-memory feature sources, one per score, built once. A pruned
    // scan materializes only the score's columns; an unpruned (naive)
    // plan pays the full-width materialization like the legacy data
    // plane did, then narrows with a strided prefix view or a gather.
    std::vector<RowBlock> held;
    std::vector<RowView> mem_src(scores_.size());
    if (!paged) {
        std::vector<float> unused;
        for (std::size_t s = 0; s < scores_.size(); ++s) {
            const CompiledScore& cs = scores_[s];
            if (cs.covers_all) {
                mem_src[s] = table.MaterializeFeatures().View();
            } else if (scan_pruned_) {
                held.push_back(table.MaterializeColumns(cs.feature_cols));
                mem_src[s] = held.back().View();
            } else if (cs.identity_prefix) {
                mem_src[s] = table.MaterializeFeatures().View().Prefix(
                    cs.feature_idx.size());
            } else {
                std::vector<float> scratch;
                RowView full = table.MaterializeFeatures().View();
                RowView gathered =
                    Gather(full, nullptr, full.rows(),
                           cs.feature_idx.data(), cs.feature_idx.size(),
                           scratch);
                held.push_back(RowBlock(std::move(scratch),
                                        cs.feature_idx.size()));
                mem_src[s] = held.back().View();
                (void)gathered;
            }
        }
    }

    // Projection layout (non-aggregate statements).
    QueryResult result;
    std::vector<std::size_t> agg_cols(stmt.aggregates.size(),
                                      table.NumColumns());
    struct ProjItem {
        bool is_score = false;
        std::size_t index = 0;  // score index or table column
    };
    std::vector<ProjItem> proj;
    if (stmt.aggregates.empty()) {
        if (stmt.star) {
            for (std::size_t c = 0; c < table.NumColumns(); ++c) {
                proj.push_back({false, c});
                result.columns.push_back(table.schema()[c].name);
            }
        } else {
            for (const SelectItemRef& ref : stmt.items) {
                if (ref.kind == SelectItemKind::kScore) {
                    const std::size_t s =
                        logical_.select_score_map[ref.index];
                    proj.push_back({true, s});
                    result.columns.push_back(
                        ScoreExprToString(scores_[s].expr));
                } else {
                    proj.push_back(
                        {false,
                         table.ColumnIndex(stmt.columns[ref.index])});
                    result.columns.push_back(stmt.columns[ref.index]);
                }
            }
        }
    } else {
        for (std::size_t a = 0; a < stmt.aggregates.size(); ++a) {
            const AggregateItem& item = stmt.aggregates[a];
            std::string arg;
            if (logical_.agg_score_map[a].has_value()) {
                arg = ScoreExprToString(
                    scores_[*logical_.agg_score_map[a]].expr);
            } else {
                arg = item.column.empty() ? "*" : item.column;
                if (!item.column.empty()) {
                    agg_cols[a] = table.ColumnIndex(item.column);
                }
            }
            result.columns.push_back(
                std::string(AggFuncName(item.func)) + "(" + arg + ")");
        }
    }
    const std::size_t order_col =
        (stmt.order_by.has_value() && !logical_.order_score.has_value())
            ? table.ColumnIndex(stmt.order_by->column)
            : table.NumColumns();

    std::vector<AggState> agg(stmt.aggregates.size());
    std::size_t matched = 0;
    std::vector<Value> sort_keys;
    ThresholdStats run_stats;

    // Per-batch processing of @p n rows: @p batch_feats holds their
    // feature rows (null for in-memory tables, which read mem_src) and
    // @p row_ids their table row ids (null: batch row i is table row
    // i). Zone pruning makes a paged batch's row ids non-contiguous,
    // so every table read goes through the map. Returns false to stop
    // the scan early (TOP with no ORDER BY).
    auto process = [&](const RowView* batch_feats,
                       const std::size_t* row_ids, std::size_t n) -> bool {
        auto row_id = [row_ids](std::size_t i) {
            return row_ids != nullptr ? row_ids[i] : i;
        };
        // 1. Plain predicates first — cheap column compares shrink the
        //    row set before any tree traversal.
        std::vector<std::uint32_t> live;
        live.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
            if (PlainPredicatesHold(plain_preds_, table, batch_feats, i,
                                    row_id(i))) {
                live.push_back(i);
            }
        }

        // 2. Batch-local feature sources per score (lazy).
        std::vector<std::optional<RowView>> src(scores_.size());
        std::vector<std::vector<float>> col_scratch(scores_.size());
        auto chunk_src = [&](std::size_t s) -> const RowView& {
            if (!src[s].has_value()) {
                const CompiledScore& cs = scores_[s];
                if (!paged) {
                    src[s] = mem_src[s];
                } else if (cs.identity_prefix) {
                    src[s] =
                        batch_feats->Prefix(cs.feature_idx.size());
                } else {
                    src[s] = Gather(*batch_feats, nullptr, n,
                                    cs.feature_idx.data(),
                                    cs.feature_idx.size(),
                                    col_scratch[s]);
                }
            }
            return *src[s];
        };

        // 3. SCORE predicates over the compacted survivors.
        std::vector<float> row_scratch;
        for (const ScorePredicate& pred : score_preds_) {
            if (live.empty()) {
                break;
            }
            const CompiledScore& cs = scores_[pred.score_index];
            const bool all = live.size() == n;
            RowView view =
                all ? chunk_src(pred.score_index)
                    : Gather(chunk_src(pred.score_index), live.data(),
                             live.size(), nullptr, 0, row_scratch);
            std::vector<std::uint8_t> keep;
            if (pred.early_exit && cs.threshold_kernel != nullptr) {
                keep = cs.threshold_kernel->PredictThreshold(
                    view, *ToThresholdOp(pred.op), pred.literal,
                    &run_stats);
            } else {
                const std::vector<float> vals =
                    cs.kernel != nullptr ? cs.kernel->Predict(view)
                                         : cs.model->PredictBatch(view);
                keep.resize(vals.size());
                for (std::size_t i = 0; i < vals.size(); ++i) {
                    keep[i] = ScorePredHolds(pred.op, vals[i],
                                             pred.literal)
                                  ? 1
                                  : 0;
                }
            }
            std::vector<std::uint32_t> next;
            next.reserve(live.size());
            for (std::size_t i = 0; i < live.size(); ++i) {
                if (keep[i] != 0) {
                    next.push_back(live[i]);
                }
            }
            live.swap(next);
        }
        if (live.empty()) {
            return true;
        }

        // 4. Score values for the survivors.
        std::vector<std::vector<float>> vals(scores_.size());
        {
            const bool all = live.size() == n;
            for (std::size_t s = 0; s < scores_.size(); ++s) {
                if (!value_needed[s]) {
                    continue;
                }
                const CompiledScore& cs = scores_[s];
                RowView view =
                    all ? chunk_src(s)
                        : Gather(chunk_src(s), live.data(), live.size(),
                                 nullptr, 0, row_scratch);
                vals[s] = cs.kernel != nullptr
                              ? cs.kernel->Predict(view)
                              : cs.model->PredictBatch(view);
            }
        }

        // Cell accessor for plain columns of surviving rows.
        auto column_value = [&](std::size_t local, std::size_t col) {
            return ScanCell(table, batch_feats, local, row_id(local), col);
        };

        // 5. Sink: fused aggregates or projected rows.
        if (!stmt.aggregates.empty()) {
            for (std::size_t j = 0; j < live.size(); ++j) {
                for (std::size_t a = 0; a < stmt.aggregates.size();
                     ++a) {
                    const AggregateItem& item = stmt.aggregates[a];
                    if (item.func == AggFunc::kCount) {
                        continue;  // counted via `matched`
                    }
                    Value v;
                    if (logical_.agg_score_map[a].has_value()) {
                        v = static_cast<double>(
                            vals[*logical_.agg_score_map[a]][j]);
                    } else {
                        v = column_value(live[j], agg_cols[a]);
                    }
                    AggState& state = agg[a];
                    if (item.func == AggFunc::kSum ||
                        item.func == AggFunc::kAvg) {
                        state.sum += ValueAsDouble(v);
                    } else if (!state.best.has_value()) {
                        state.best = std::move(v);
                    } else {
                        const int cmp = CompareValues(v, *state.best);
                        if ((item.func == AggFunc::kMin && cmp < 0) ||
                            (item.func == AggFunc::kMax && cmp > 0)) {
                            state.best = std::move(v);
                        }
                    }
                }
            }
            matched += live.size();
            return true;
        }

        for (std::size_t j = 0; j < live.size(); ++j) {
            std::vector<Value> row;
            row.reserve(proj.size());
            for (const ProjItem& item : proj) {
                if (item.is_score) {
                    row.push_back(
                        static_cast<double>(vals[item.index][j]));
                } else {
                    row.push_back(column_value(live[j], item.index));
                }
            }
            result.rows.push_back(std::move(row));
            if (stmt.order_by.has_value()) {
                if (logical_.order_score.has_value()) {
                    sort_keys.push_back(static_cast<double>(
                        vals[*logical_.order_score][j]));
                } else {
                    sort_keys.push_back(
                        column_value(live[j], order_col));
                }
            } else if (stmt.top.has_value() &&
                       result.rows.size() >= *stmt.top) {
                return false;  // enough rows, stop scanning
            }
        }
        return true;
    };

    if (paged) {
        // Cross-page batching: a page holds far fewer rows than the
        // kernel's parallel_grain, so consecutive surviving pages' rows
        // are copied into one reused buffer and `process` runs once
        // per batch, which lets the kernel reach its ThreadPool path.
        // Each page is unpinned right after its copy (the stream still
        // holds at most one pin). The first batch is one page and each
        // next one doubles, up to ScanBatchRows(): a TOP without ORDER
        // BY that stops early reads at most about twice the pages its
        // rows span.
        storage::FeatureStream stream =
            table.ScanFeatures(zone_predicate_);
        const std::size_t max_rows = ScanBatchRows();
        std::vector<float> batch;
        std::vector<std::size_t> batch_ids;
        std::size_t width = 0;
        std::size_t flush_at = 1;
        storage::StreamChunk chunk;
        for (bool more = true; more;) {
            more = stream.Next(chunk);
            if (more) {
                const RowView& page = chunk.view;
                if (batch.capacity() == 0) {
                    width = page.cols();
                    const std::size_t cap = std::min(
                        stream.total_rows(), max_rows + page.rows());
                    batch.reserve(cap * width);
                    batch_ids.reserve(cap);
                }
                for (std::size_t i = 0; i < page.rows(); ++i) {
                    batch.insert(batch.end(), page.Row(i),
                                 page.Row(i) + width);
                    batch_ids.push_back(chunk.row_begin + i);
                }
                RowBlock::NoteCopy(static_cast<std::uint64_t>(page.rows()) *
                                   width * sizeof(float));
                chunk.view = RowView();  // unpin before the next page
            }
            if (batch_ids.size() >= flush_at ||
                (!more && !batch_ids.empty())) {
                const RowView view = RowView::Borrow(
                    batch.data(), batch_ids.size(), width);
                if (!process(&view, batch_ids.data(), batch_ids.size())) {
                    break;
                }
                flush_at = std::min(2 * batch_ids.size(), max_rows);
                batch.clear();
                batch_ids.clear();
            }
        }
    } else {
        process(nullptr, nullptr, table.NumRows());
    }

    {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        threshold_stats_.rows += run_stats.rows;
        threshold_stats_.rows_decided_early += run_stats.rows_decided_early;
        threshold_stats_.tree_traversals += run_stats.tree_traversals;
        threshold_stats_.tree_traversals_full +=
            run_stats.tree_traversals_full;
    }

    if (!stmt.aggregates.empty()) {
        std::vector<Value> row;
        for (std::size_t a = 0; a < stmt.aggregates.size(); ++a) {
            const AggregateItem& item = stmt.aggregates[a];
            switch (item.func) {
              case AggFunc::kCount:
                row.push_back(static_cast<std::int64_t>(matched));
                break;
              case AggFunc::kSum:
                row.push_back(agg[a].sum);
                break;
              case AggFunc::kAvg:
                if (matched == 0) {
                    throw InvalidArgument("AVG over zero rows");
                }
                row.push_back(agg[a].sum /
                              static_cast<double>(matched));
                break;
              case AggFunc::kMin:
              case AggFunc::kMax:
                if (!agg[a].best.has_value()) {
                    throw InvalidArgument(
                        std::string(AggFuncName(item.func)) +
                        " over zero rows");
                }
                row.push_back(*agg[a].best);
                break;
            }
        }
        result.rows.push_back(std::move(row));
        result.message = "1 row(s)";
        return result;
    }

    if (stmt.order_by.has_value()) {
        const bool desc = stmt.order_by->descending;
        std::vector<std::size_t> perm(result.rows.size());
        std::iota(perm.begin(), perm.end(), std::size_t{0});
        std::stable_sort(perm.begin(), perm.end(),
                         [&](std::size_t a, std::size_t b) {
                             int cmp = CompareValues(sort_keys[a],
                                                     sort_keys[b]);
                             return desc ? cmp > 0 : cmp < 0;
                         });
        std::vector<std::vector<Value>> sorted;
        sorted.reserve(result.rows.size());
        for (std::size_t i : perm) {
            sorted.push_back(std::move(result.rows[i]));
        }
        result.rows = std::move(sorted);
    }
    if (stmt.top.has_value() && result.rows.size() > *stmt.top) {
        result.rows.resize(*stmt.top);
    }
    result.message = StrFormat("%zu row(s)", result.rows.size());
    return result;
}

ScoringBatch
PhysicalPlan::CollectScoringBatch(const Database& db) const
{
    if (scores_.size() != 1) {
        throw InvalidArgument(
            "plan: a scoring batch needs exactly one SCORE(...) "
            "expression");
    }
    const Table& table = db.GetTable(logical_.stmt.table);
    const CompiledScore& cs = scores_[0];
    const bool paged = table.paged();
    const std::size_t width = cs.feature_cols.size();

    ScoringBatch batch;
    batch.model = cs.expr.model;
    std::vector<float> features;

    auto process = [&](const RowView* chunk_feats, std::size_t row_begin,
                       std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            const std::size_t r = row_begin + i;
            if (!PlainPredicatesHold(plain_preds_, table, chunk_feats, i,
                                     r)) {
                continue;
            }
            batch.row_ids.push_back(r);
            for (std::size_t j = 0; j < width; ++j) {
                features.push_back(
                    chunk_feats != nullptr
                        ? chunk_feats->At(i, cs.feature_idx[j])
                        : table.FloatAt(r, cs.feature_cols[j]));
            }
        }
    };

    if (paged) {
        storage::FeatureStream stream =
            table.ScanFeatures(zone_predicate_);
        storage::StreamChunk chunk;
        while (stream.Next(chunk)) {
            process(&chunk.view, chunk.row_begin, chunk.view.rows());
        }
    } else {
        process(nullptr, 0, table.NumRows());
    }

    RowBlock::NoteCopy(static_cast<std::uint64_t>(features.size()) *
                       sizeof(float));
    batch.features = RowBlock(std::move(features), width);
    return batch;
}

std::size_t
PhysicalPlan::ScanBatchRows() const
{
    std::size_t grain = 0;
    for (const CompiledScore& cs : scores_) {
        if (cs.kernel != nullptr) {
            grain = std::max(grain, cs.kernel->options().parallel_grain);
        }
    }
    if (grain == 0) {
        // Scalar-reference scores only: batch as a default kernel would.
        grain = ForestKernelOptions{}.parallel_grain;
    }
    return ThreadPool::Shared().size() * grain;
}

ThresholdStats
PhysicalPlan::threshold_stats() const
{
    std::lock_guard<std::mutex> lock(stats_mutex_);
    return threshold_stats_;
}

std::vector<std::string>
PhysicalPlan::ExplainPhysical() const
{
    std::vector<std::string> lines;
    for (const CompiledScore& cs : scores_) {
        const std::string kernel =
            cs.kernel != nullptr
                ? StrFormat("kernel (%zu trees)", cs.kernel->NumTrees())
                : std::string("scalar reference (kernel unsupported)");
        lines.push_back(StrFormat(
            "%s: %s%s", ScoreExprToString(cs.expr).c_str(),
            kernel.c_str(),
            cs.threshold_kernel != nullptr ? ", threshold early-exit"
                                           : ""));
    }
    if (logical_.table_paged && uses_score()) {
        lines.push_back(StrFormat(
            "scan: pages scored in cross-page batches of up to %zu "
            "row(s), starting at one page and doubling",
            ScanBatchRows()));
    }
    if (zone_predicate_.has_value()) {
        lines.push_back(StrFormat(
            "scan: zone-map pruning on feature column %zu in [%g, %g]",
            zone_predicate_->column,
            static_cast<double>(zone_predicate_->min),
            static_cast<double>(zone_predicate_->max)));
    }
    if (scan_pruned_) {
        const LogicalOp* scan = logical_.Find(LogicalOpKind::kScan);
        lines.push_back(StrFormat(
            "scan: pruned to %zu of %zu column(s)",
            scan->columns.size(), logical_.column_names.size()));
    }
    if (fused_aggregate_) {
        lines.push_back(
            "aggregate: fused into the streaming scoring loop");
    }
    const ThresholdStats stats = threshold_stats();
    if (stats.rows > 0) {
        lines.push_back(StrFormat(
            "early-exit: %llu of %llu row(s) decided early, %llu of "
            "%llu tree traversal(s) executed",
            static_cast<unsigned long long>(stats.rows_decided_early),
            static_cast<unsigned long long>(stats.rows),
            static_cast<unsigned long long>(stats.tree_traversals),
            static_cast<unsigned long long>(
                stats.tree_traversals_full)));
    }
    return lines;
}

}  // namespace dbscore::plan
