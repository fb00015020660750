/**
 * @file
 * paged_mix: one closed-loop SQL session (a DBMS caller waiting for each
 * result) over a paged HIGGS table four times the buffer pool, scored
 * by a regression forest.
 *
 * Reads cycle through five shapes in a seeded order: a fused full-scan
 * AVG(SCORE), a full-scan COUNT with a SCORE threshold (early-exit
 * kernel), an ad-hoc zone-prunable kin_0 filter with a fresh literal
 * (plan-cache miss), an ad-hoc TOP k ORDER BY SCORE, and
 * sp_score_model. Multi-row INSERT batches sit beside the reads, each
 * committed with PagedTable::Flush().
 *
 * The forest is a regression forest on the 0/1 label so that SCORE
 * thresholds take the early-exit kernel (vote combiners cannot).
 */
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "dbscore/common/string_util.h"
#include "dbscore/core/backend_factory.h"
#include "dbscore/core/calibration.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/pipeline.h"
#include "dbscore/dbms/plan/planner.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/dbms/value.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/storage/paged_table.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dbscore;

/** Table rows: 5,556 data pages of 4 KiB. */
constexpr std::size_t kRows = 200000;
constexpr std::size_t kTrees = 8;
constexpr std::size_t kDepth = 8;
/** Rows the forest trains on (a separate seeded HIGGS sample). */
constexpr std::size_t kTrainRows = 4000;
/** The buffer pool holds this fraction of the data pages. */
constexpr std::size_t kPoolDivisor = 4;
/**
 * Rows per INSERT batch. One batch per six statements grows the table
 * by about 0.1% per second of statement time.
 */
constexpr std::size_t kInsertRows = 100;
/**
 * A run measures in this many segments, each after a fresh set-up.
 * Set-up clears the kernel autotune cache, and the autotuner picks by
 * wall clock, so segments average over several picks instead of
 * letting one process's pick decide the whole run.
 */
constexpr int kSegments = 3;
/** sp_score_model @top range. */
constexpr std::size_t kTopMin = 100;
constexpr std::size_t kTopMax = 400;

enum class Kind { kAvg, kCount, kFilter, kTop, kProc, kInsert };
constexpr Kind kReadKinds[] = {Kind::kAvg, Kind::kCount, Kind::kFilter,
                               Kind::kTop, Kind::kProc};

const char*
KindName(Kind kind)
{
    switch (kind) {
      case Kind::kAvg: return "avg_score";
      case Kind::kCount: return "count_threshold";
      case Kind::kFilter: return "adhoc_filter";
      case Kind::kTop: return "adhoc_top";
      case Kind::kProc: return "sp_score_model";
      case Kind::kInsert: return "insert";
    }
    return "?";
}

struct Statement {
    Kind kind = Kind::kAvg;
    std::string sql;
    std::size_t top = 0;          ///< kProc: @top
    std::size_t insert_rows = 0;  ///< kInsert: rows in the batch
};

/** Everything a run derives from its seed, outside the timed region. */
struct Inputs {
    Dataset data;             ///< the table's rows, clustered on kin_0
    Dataset inserts;          ///< rows the INSERT batches draw from
    TreeEnsemble ensemble;    ///< the stored model
    RandomForest forest;      ///< same model, for the reference kernel
    float theta = 0.5F;       ///< SCORE threshold of the count shape
    std::size_t rows_per_page = 0;
    std::size_t pool_pages = 0;
};

/** @p data's rows sorted by kin_0 and relabelled as a regression task. */
Dataset
ClusteredRegression(const Dataset& data)
{
    const std::size_t rows = data.num_rows();
    const std::size_t cols = data.num_features();
    std::vector<std::size_t> order(rows);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return data.At(a, 0) < data.At(b, 0);
                     });
    std::vector<float> values(rows * cols);
    std::vector<float> labels(rows);
    for (std::size_t r = 0; r < rows; ++r) {
        std::memcpy(&values[r * cols], data.Row(order[r]),
                    cols * sizeof(float));
        labels[r] = data.Label(order[r]);
    }
    Dataset out(data.name(), Task::kRegression, cols, 0);
    out.Assign(std::move(values), std::move(labels));
    out.feature_names() = data.feature_names();
    return out;
}

Inputs
MakeInputs(const Options& options)
{
    Inputs in;
    in.data = ClusteredRegression(
        MakeHiggs(kRows, StreamSeed(options.seed, 1)));
    in.inserts = MakeHiggs(4096, StreamSeed(options.seed, 2));
    ForestTrainerConfig trainer;
    trainer.num_trees = kTrees;
    trainer.max_depth = kDepth;
    trainer.seed = StreamSeed(options.seed, 3);
    in.forest = TrainForest(
        ClusteredRegression(MakeHiggs(kTrainRows, StreamSeed(options.seed, 4))),
        trainer);
    in.ensemble = TreeEnsemble::FromForest(in.forest);

    // The count shape's threshold sits at the 70th percentile of the
    // model's own scores, so its selectivity is the same per seed.
    std::vector<float> sample;
    const std::size_t stride = in.data.num_rows() / 2048;
    for (std::size_t r = 0; r < in.data.num_rows(); r += stride) {
        sample.push_back(in.forest.Predict(in.data.Row(r)));
    }
    std::sort(sample.begin(), sample.end());
    in.theta = sample[sample.size() * 7 / 10];

    const std::string probe =
        (std::filesystem::path(options.scratch) / "probe.dbpages")
            .string();
    std::vector<std::string> columns = in.data.feature_names();
    columns.push_back("label");
    auto store = storage::PagedTable::Create(probe, columns,
                                             columns.size() - 1);
    in.rows_per_page = store->rows_per_page();
    store.reset();
    std::filesystem::remove(probe);
    const std::size_t pages =
        (kRows + in.rows_per_page - 1) / in.rows_per_page;
    in.pool_pages = std::max<std::size_t>(4, pages / kPoolDivisor);
    return in;
}

/** The seeded statement stream: blocks of one shuffled shape each. */
class Mix {
 public:
    Mix(const Inputs& in, bool writes, std::uint64_t seed)
        : in_(in), writes_(writes), rng_(seed)
    {
    }

    Statement Next()
    {
        if (pending_.empty()) {
            pending_.assign(std::begin(kReadKinds), std::end(kReadKinds));
            if (writes_) {
                pending_.push_back(Kind::kInsert);
            }
            rng_.Shuffle(pending_);
        }
        const Kind kind = pending_.back();
        pending_.pop_back();
        return Make(kind);
    }

    Statement Make(Kind kind)
    {
        Statement s;
        s.kind = kind;
        switch (kind) {
          case Kind::kAvg:
            s.sql = "SELECT AVG(SCORE(m)) FROM higgs";
            break;
          case Kind::kCount:
            s.sql = StrFormat("SELECT COUNT(*) FROM higgs WHERE SCORE(m) > %.9g",
                              static_cast<double>(in_.theta));
            break;
          case Kind::kFilter:
            // kin_0 above a fresh cut between its 90th and 99th
            // percentile: 1-10% of rows, a handful of unpruned pages.
            do {
                const double q = 0.90 + 0.09 * rng_.NextDouble();
                const float cut = in_.data.At(
                    static_cast<std::size_t>(
                        q * static_cast<double>(in_.data.num_rows())),
                    0);
                s.sql = StrFormat(
                    "SELECT COUNT(*) FROM higgs WHERE kin_0 > %.9g AND "
                    "SCORE(m) > %.9g",
                    static_cast<double>(cut),
                    static_cast<double>(in_.theta));
            } while (!used_.insert(s.sql).second);
            break;
          case Kind::kTop:
            do {
                s.sql = StrFormat(
                    "SELECT TOP %llu kin_0, SCORE(m) FROM higgs "
                    "ORDER BY SCORE(m) DESC",
                    static_cast<unsigned long long>(16 + rng_.NextBelow(4081)));
            } while (!used_.insert(s.sql).second);
            break;
          case Kind::kProc:
            s.top = kTopMin + rng_.NextBelow(kTopMax - kTopMin + 1);
            s.sql = StrFormat(
                "EXEC sp_score_model @model = 'm', @data = 'higgs', "
                "@top = %zu",
                s.top);
            break;
          case Kind::kInsert:
            s.insert_rows = kInsertRows;
            s.sql = "INSERT INTO higgs VALUES ";
            for (std::size_t r = 0; r < kInsertRows; ++r) {
                const std::size_t row = next_insert_++ % in_.inserts.num_rows();
                s.sql += r == 0 ? "(" : ", (";
                for (std::size_t c = 0; c < in_.inserts.num_features(); ++c) {
                    s.sql += StrFormat(
                        "%.9g, ", static_cast<double>(in_.inserts.At(row, c)));
                }
                s.sql += StrFormat(
                    "%.9g)", static_cast<double>(in_.inserts.Label(row)));
            }
            break;
        }
        return s;
    }

 private:
    const Inputs& in_;
    bool writes_;
    Rng rng_;
    std::vector<Kind> pending_;
    std::set<std::string> used_;
    std::size_t next_insert_ = 0;
};

/** One set-up instance: database, pipeline and engine. */
struct Session {
    std::unique_ptr<Database> db;
    std::unique_ptr<ScoringPipeline> pipeline;
    std::unique_ptr<QueryEngine> engine;
    Table* table = nullptr;
    std::shared_ptr<storage::PagedTable> store;

    /** Tears down in dependency order (the engine refers to the db). */
    void Reset()
    {
        engine.reset();
        pipeline.reset();
        store.reset();
        table = nullptr;
        db.reset();
    }
};

bool
SameRows(const QueryResult& a, const QueryResult& b)
{
    if (a.rows.size() != b.rows.size()) {
        return false;
    }
    for (std::size_t r = 0; r < a.rows.size(); ++r) {
        if (a.rows[r].size() != b.rows[r].size()) {
            return false;
        }
        for (std::size_t c = 0; c < a.rows[r].size(); ++c) {
            if (CompareValues(a.rows[r][c], b.rows[r][c]) != 0) {
                return false;
            }
        }
    }
    return true;
}

/** Storage counters summed over the statements of a pass. */
struct StorageCounters {
    double pages_scanned = 0, pages_pruned = 0;
    double pool_hits = 0, pool_misses = 0, evictions = 0, write_backs = 0;
    double reads = 0, writes = 0, syncs = 0, checksum_failures = 0;

    static StorageCounters Of(const storage::PagedTable& store)
    {
        StorageCounters c;
        const storage::StorageStats s = store.Stats();
        c.pages_scanned = static_cast<double>(s.pages_scanned);
        c.pages_pruned = static_cast<double>(s.pages_pruned);
        c.pool_hits = static_cast<double>(s.pool.hits);
        c.pool_misses = static_cast<double>(s.pool.misses);
        c.evictions = static_cast<double>(s.pool.evictions);
        c.write_backs = static_cast<double>(s.pool.write_backs);
        c.reads = static_cast<double>(s.pager.reads);
        c.writes = static_cast<double>(s.pager.writes);
        c.syncs = static_cast<double>(s.pager.syncs);
        c.checksum_failures = static_cast<double>(s.pager.checksum_failures);
        return c;
    }

    /** Adds (after - before). */
    void Accumulate(const StorageCounters& before,
                    const StorageCounters& after)
    {
        pages_scanned += after.pages_scanned - before.pages_scanned;
        pages_pruned += after.pages_pruned - before.pages_pruned;
        pool_hits += after.pool_hits - before.pool_hits;
        pool_misses += after.pool_misses - before.pool_misses;
        evictions += after.evictions - before.evictions;
        write_backs += after.write_backs - before.write_backs;
        reads += after.reads - before.reads;
        writes += after.writes - before.writes;
        syncs += after.syncs - before.syncs;
        checksum_failures += after.checksum_failures - before.checksum_failures;
    }
};

/** Everything one pass over the statement stream measured. */
struct Pass {
    std::vector<double> read_ms;
    std::map<Kind, std::vector<double>> by_kind;
    std::size_t writes = 0;
    std::size_t rows_inserted = 0;
    double user_bytes = 0.0;  ///< float32 cells the INSERTs carried
    double write_ms = 0.0;
    double cpu_ms = 0.0;  ///< process CPU inside the timed statements

    // Traced pass only: layer probes and counter deltas.
    std::vector<double> plan_miss_ms, plan_hit_ms, build_ms;
    std::vector<double> scan_ms, scan_mb_per_s, chunked_ms, batch_ms;
    std::vector<double> rows_per_s, residual_ms;
    std::vector<double> model_load_ms, engine_build_ms, pipeline_ms;
    std::vector<double> append_ms, commit_ms;
    std::size_t probed_scans = 0;
    double kernel_calls = 0.0;
    double scanned_rows = 0.0;
    ThresholdStats threshold;
    StorageCounters storage;
    std::uint64_t plan_hits = 0, plan_misses = 0;

    std::size_t statements() const { return read_ms.size() + writes; }

    double statement_ms() const
    {
        double total = write_ms;
        for (double v : read_ms) {
            total += v;
        }
        return total;
    }
};

class SqlRun {
 public:
    SqlRun(const Options& options, const Inputs& in, Outcome& out)
        : options_(options), in_(in), out_(out),
          profile_(HardwareProfile::Paper()),
          reference_(in.forest),
          reference_rows_(reference_.Predict(in.data.Row(0), kTopMax,
                                             in.data.num_features()))
    {
    }

    /** Builds a fresh warm session; returns its set-up seconds. */
    double Setup(int index, Mix& warm)
    {
        naive_.reset();
        session_.Reset();
        inserted_ = 0;
        AutotuneCacheClear();
        const Clock::time_point start = Clock::now();
        Session s;
        s.db = std::make_unique<Database>();
        s.db->StoreModel("m", in_.ensemble);
        storage::StorageOptions storage_options;
        storage_options.pool_pages = in_.pool_pages;
        const std::string path = (std::filesystem::path(options_.scratch) /
                                  StrFormat("higgs_%d.dbpages", index))
                                     .string();
        s.table = &s.db->StoreDatasetPaged("higgs", in_.data, path,
                                           storage_options);
        s.store = s.table->store();
        s.pipeline = std::make_unique<ScoringPipeline>(
            *s.db, profile_, ExternalRuntimeParams{});
        s.engine = std::make_unique<QueryEngine>(*s.db, *s.pipeline);
        session_ = std::move(s);
        plan::PlannerOptions naive;
        naive.optimize = false;
        naive.cache_capacity = 4;
        naive_ = std::make_unique<plan::Planner>(*session_.db, naive);
        // Warm: the first run of every read shape (plan compile and
        // kernel autotune included).
        SpanLog off(false);
        Pass scratch;
        for (Kind kind : kReadKinds) {
            Run(warm.Make(kind), off, scratch, /*probe=*/false);
        }
        return MsSince(start) / 1e3;
    }

    /**
     * Runs statements from @p mix until they have taken @p seconds.
     * Only statement time counts: the output checks and layer probes
     * between statements stretch the wall time instead of eating into
     * the sample.
     */
    void RunPass(Mix& mix, double seconds, SpanLog& spans, Pass& pass,
                 bool probe)
    {
        const plan::PlanCacheStats plan_start =
            session_.engine->planner().CacheStats();
        const double target_ms = pass.statement_ms() + seconds * 1e3;
        while (pass.statement_ms() < target_ms) {
            Run(mix.Next(), spans, pass, probe);
        }
        const plan::PlanCacheStats plan_end = session_.engine->planner().CacheStats();
        pass.plan_hits += plan_end.hits - plan_start.hits;
        pass.plan_misses += plan_end.misses - plan_start.misses;
    }

    /** End-of-session checks: row count and checksum failures. */
    void FinalChecks()
    {
        const std::size_t expected = in_.data.num_rows() + inserted_;
        if (session_.table->NumRows() != expected) {
            out_.Wrong(StrFormat("table has %zu rows, expected %zu",
                                 session_.table->NumRows(), expected));
        }
        if (session_.store->Stats().pager.checksum_failures != 0) {
            out_.Wrong("pager reported checksum failures");
        }
    }

 private:
    void Run(const Statement& st, SpanLog& spans, Pass& pass, bool probe)
    {
        ++out_.attempted;
        try {
            if (st.kind == Kind::kInsert) {
                Write(st, spans, pass);
            } else {
                Read(st, spans, pass, probe);
            }
        } catch (const std::exception& e) {
            out_.Wrong(std::string(KindName(st.kind)) + " threw: " + e.what());
        }
    }

    void Write(const Statement& st, SpanLog& spans, Pass& pass)
    {
        const StorageCounters before = StorageCounters::Of(*session_.store);
        const double cpu_start = ProcessCpuMs();
        const Clock::time_point start = Clock::now();
        double append = 0.0;
        {
            ScopedSpan stmt(spans, "write");
            {
                ScopedSpan s(spans, "storage.append");
                session_.engine->Execute(st.sql);
            }
            append = MsSince(start);
            ScopedSpan s(spans, "storage.commit");
            session_.store->Flush();
        }
        const double total = MsSince(start);
        pass.cpu_ms += ProcessCpuMs() - cpu_start;
        const double commit = total - append;
        pass.write_ms += total;
        ++pass.writes;
        pass.rows_inserted += st.insert_rows;
        pass.user_bytes += static_cast<double>(
            st.insert_rows * session_.table->NumColumns() * sizeof(float));
        inserted_ += st.insert_rows;
        if (spans.enabled()) {
            pass.append_ms.push_back(append);
            pass.commit_ms.push_back(commit);
            pass.storage.Accumulate(before,
                                    StorageCounters::Of(*session_.store));
        }
    }

    void Read(const Statement& st, SpanLog& spans, Pass& pass, bool probe)
    {
        Database& db = *session_.db;
        const StorageCounters before = StorageCounters::Of(*session_.store);
        std::shared_ptr<const plan::PhysicalPlan> plan;
        ThresholdStats threshold_before;
        QueryResult result;
        bool plan_missed = false;
        double exec_ms = 0.0;
        const double cpu_start = ProcessCpuMs();
        const Clock::time_point start = Clock::now();
        {
            ScopedSpan stmt(spans, "stmt");
            if (st.kind == Kind::kProc) {
                ScopedSpan s(spans, "pipeline");
                result = session_.engine->Execute(st.sql);
            } else {
                plan::Planner& planner = session_.engine->planner();
                const std::uint64_t misses = planner.CacheStats().misses;
                const Clock::time_point plan_start = Clock::now();
                {
                    ScopedSpan s(spans, "plan");
                    plan = planner.PlanQuery(st.sql);
                }
                const double plan_ms = MsSince(plan_start);
                plan_missed = planner.CacheStats().misses != misses;
                if (probe) {
                    (plan_missed ? pass.plan_miss_ms : pass.plan_hit_ms)
                        .push_back(plan_ms);
                    threshold_before = plan->threshold_stats();
                }
                const Clock::time_point exec_start = Clock::now();
                {
                    ScopedSpan s(spans, "exec");
                    result = plan->Execute(db);
                }
                exec_ms = MsSince(exec_start);
            }
        }
        const double ms = MsSince(start);
        pass.cpu_ms += ProcessCpuMs() - cpu_start;
        pass.read_ms.push_back(ms);
        pass.by_kind[st.kind].push_back(ms);

        // The storage counters are read before the output check: the
        // check re-runs the query through the naive plan on the same
        // store, which would otherwise count as this statement's pages.
        const StorageCounters after_stmt = StorageCounters::Of(*session_.store);
        Check(st, result);
        if (!probe) {
            return;
        }
        pass.storage.Accumulate(before, after_stmt);
        if (st.kind == Kind::kProc) {
            ProbePipeline(st, spans, pass);
            return;
        }
        const ThresholdStats after = plan->threshold_stats();
        pass.threshold.rows += after.rows - threshold_before.rows;
        pass.threshold.tree_traversals +=
            after.tree_traversals - threshold_before.tree_traversals;
        pass.threshold.tree_traversals_full +=
            after.tree_traversals_full - threshold_before.tree_traversals_full;
        if (plan_missed) {
            // The kernel compile a plan miss pays (autotune cached), timed
            // directly: ForestKernel::build_wall_ms() is only stamped on
            // v1 builds.
            const Clock::time_point t = Clock::now();
            {
                ScopedSpan s(spans, "forest.build");
                const ForestKernel kernel(in_.forest);
            }
            pass.build_ms.push_back(MsSince(t));
        }
        ProbeScan(*plan, exec_ms, spans, pass);
    }

    /** Output check, outside the timed region. */
    void Check(const Statement& st, const QueryResult& result)
    {
        if (st.kind == Kind::kProc) {
            bool ok = result.rows.size() == st.top;
            for (std::size_t i = 0; ok && i < st.top; ++i) {
                ok = ValueAsDouble(result.rows[i][1]) ==
                     static_cast<double>(reference_rows_[i]);
            }
            if (!ok) {
                out_.Wrong("sp_score_model differs from ForestKernel::Predict: " +
                           st.sql);
            }
            return;
        }
        const QueryResult naive =
            naive_->PlanQuery(st.sql)->Execute(*session_.db);
        if (!SameRows(naive, result)) {
            out_.Wrong("optimized plan differs from the naive plan: " + st.sql);
        }
    }

    /**
     * Layer probes for a scored SELECT: drain the scan with the plan's
     * zone predicate, then score the same rows through the plan's
     * kernel in page-sized calls and in one call.
     */
    void ProbeScan(const plan::PhysicalPlan& plan, double exec_ms,
                   SpanLog& spans, Pass& pass)
    {
        const Table& table = *session_.table;
        const plan::LogicalOp* scan =
            plan.logical().Find(plan::LogicalOpKind::kScan);
        const std::optional<storage::ScanPredicate> zone =
            scan != nullptr ? scan->zone_predicate : std::nullopt;

        const StorageCounters before = StorageCounters::Of(*session_.store);
        std::size_t chunks = 0;
        std::size_t rows = 0;
        const Clock::time_point start = Clock::now();
        {
            ScopedSpan s(spans, "storage.scan");
            storage::FeatureStream stream = table.ScanFeatures(zone);
            storage::StreamChunk chunk;
            while (stream.Next(chunk)) {
                ++chunks;
                rows += chunk.view.rows();
            }
        }
        const double scan_ms = MsSince(start);
        StorageCounters scanned;
        scanned.Accumulate(before, StorageCounters::Of(*session_.store));

        // The rows the kernel sees: the scan's rows that pass the plain
        // predicates, grouped by page as the executor streams them.
        const std::size_t cols = table.NumFeatureColumns();
        std::vector<float> values;
        std::vector<std::size_t> chunk_rows;
        {
            const plan::LogicalOp* filter =
                plan.logical().Find(plan::LogicalOpKind::kFilter);
            storage::FeatureStream stream = table.ScanFeatures(zone);
            storage::StreamChunk chunk;
            while (stream.Next(chunk)) {
                std::size_t kept = 0;
                for (std::size_t r = 0; r < chunk.view.rows(); ++r) {
                    if (filter != nullptr && !PassesFilter(*filter, chunk.view, r)) {
                        continue;
                    }
                    const float* row = chunk.view.Row(r);
                    values.insert(values.end(), row, row + cols);
                    ++kept;
                }
                if (kept > 0) {
                    chunk_rows.push_back(kept);
                }
            }
        }
        const RowBlock block(std::move(values), cols);
        const plan::CompiledScore& score = plan.scores().front();
        const bool threshold = !plan.score_predicates().empty() &&
                               plan.score_predicates().front().early_exit &&
                               score.threshold_kernel != nullptr;
        const float literal =
            threshold ? plan.score_predicates().front().literal : 0.0F;

        double chunked_ms = 0.0;
        if (!block.empty()) {
            const Clock::time_point t = Clock::now();
            ScopedSpan s(spans, "forest.chunked");
            std::size_t begin = 0;
            for (std::size_t n : chunk_rows) {
                const RowView view = block.View(begin, begin + n);
                if (threshold) {
                    (void)score.threshold_kernel->PredictThreshold(
                        view, ThresholdOp::kGt, literal);
                } else {
                    (void)score.kernel->Predict(view);
                }
                begin += n;
            }
            chunked_ms = MsSince(t);
        }
        double batch_ms = 0.0;
        if (!block.empty()) {
            const Clock::time_point t = Clock::now();
            ScopedSpan s(spans, "forest.batch");
            (void)score.kernel->Predict(block.View());
            batch_ms = MsSince(t);
        }

        ++pass.probed_scans;
        pass.kernel_calls += static_cast<double>(chunks);
        pass.scanned_rows += static_cast<double>(rows);
        pass.scan_ms.push_back(scan_ms);
        if (scan_ms > 0.0) {
            const double mb = scanned.pages_scanned *
                              static_cast<double>(storage::kDefaultPageSize) / 1e6;
            pass.scan_mb_per_s.push_back(mb / (scan_ms / 1e3));
        }
        pass.chunked_ms.push_back(chunked_ms);
        pass.batch_ms.push_back(batch_ms);
        if (batch_ms > 0.0) {
            pass.rows_per_s.push_back(static_cast<double>(block.rows()) /
                                      (batch_ms / 1e3));
        }
        pass.residual_ms.push_back(ResidualMs(exec_ms, scan_ms, chunked_ms));
    }

    /**
     * The plan's plain filter on one probe row. The mix filters only
     * with `kin_0 > c`; feature columns precede the label, so a table
     * column index is also the row's feature index.
     */
    static bool PassesFilter(const plan::LogicalOp& filter, const RowView& view,
                             std::size_t r)
    {
        for (const plan::ColumnPredicate& p : filter.predicates) {
            const double v = view.At(r, p.column);
            const double lit = ValueAsDouble(p.literal);
            if (p.op == CompareOp::kGt && !(v > lit)) {
                return false;
            }
        }
        return true;
    }

    /** Layer probes for sp_score_model. */
    void ProbePipeline(const Statement& st, SpanLog& spans, Pass& pass)
    {
        Database& db = *session_.db;
        Clock::time_point t = Clock::now();
        TreeEnsemble ensemble;
        RandomForest forest;
        {
            ScopedSpan s(spans, "pipeline.model_load");
            ensemble = db.LoadModel("m");
            forest = ensemble.ToForest();
        }
        pass.model_load_ms.push_back(MsSince(t));
        t = Clock::now();
        {
            ScopedSpan s(spans, "pipeline.engine_build");
            const RowView probe = RowView::Borrow(
                in_.data.Row(0), std::min<std::size_t>(st.top, 256),
                in_.data.num_features());
            const ModelStats stats = ComputeModelStats(forest, probe);
            auto engine = CreateLoadedEngine(BackendKind::kCpuSklearn,
                                             profile_, ensemble, stats);
        }
        pass.engine_build_ms.push_back(MsSince(t));
        t = Clock::now();
        {
            ScopedSpan s(spans, "pipeline.query");
            (void)session_.pipeline->RunScoringQuery(
                "m", "higgs", BackendKind::kCpuSklearn, st.top);
        }
        pass.pipeline_ms.push_back(MsSince(t));
    }

    const Options& options_;
    const Inputs& in_;
    Outcome& out_;
    HardwareProfile profile_;
    ForestKernel reference_;
    std::vector<float> reference_rows_;
    Session session_;
    std::size_t inserted_ = 0;  ///< rows this session's INSERTs added
    std::unique_ptr<plan::Planner> naive_;
};

double
Ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** End-to-end metrics of an untraced pass. */
void
EndToEnd(const Pass& pass, std::map<std::string, double>& m,
         JsonObject& record)
{
    const TailValue tail = Tail(pass.read_ms, 0.95);
    double read_total = 0.0;
    for (double v : pass.read_ms) {
        read_total += v;
    }
    m["latency_p50_ms"] = Median(pass.read_ms);
    m["latency_tail_ms"] = tail.value;
    m["throughput_per_s"] = Ratio(static_cast<double>(pass.read_ms.size()),
                                  read_total / 1e3);
    record.Num("reads", static_cast<double>(pass.read_ms.size()))
        .Num("tail_quantile", tail.quantile)
        .Num("writes", static_cast<double>(pass.writes))
        .Num("rows_inserted", static_cast<double>(pass.rows_inserted))
        .Num("ingest_rows_per_s",
             Ratio(static_cast<double>(pass.rows_inserted), pass.write_ms / 1e3))
        .Num("cpu_ms_per_op",
             Ratio(pass.cpu_ms, static_cast<double>(pass.statements())));
    JsonObject kinds;
    for (const auto& [kind, v] : pass.by_kind) {
        JsonObject k;
        k.Num("n", static_cast<double>(v.size()))
            .Num("p50_ms", Median(v))
            .Num("max_ms", *std::max_element(v.begin(), v.end()));
        kinds.Obj(KindName(kind), k);
    }
    record.Obj("by_shape", kinds);
}

void
PerLayer(const Pass& traced, const Pass& untraced, const SpanLog& spans,
         std::map<std::string, double>& m)
{
    const double statements = static_cast<double>(traced.statements());
    const StorageCounters& s = traced.storage;
    const double scans = static_cast<double>(traced.probed_scans);
    m["plan.miss_ms"] = Median(traced.plan_miss_ms);
    m["plan.hit_ms"] = Median(traced.plan_hit_ms);
    m["plan.cache_hit_ratio"] =
        Ratio(static_cast<double>(traced.plan_hits),
              static_cast<double>(traced.plan_hits + traced.plan_misses));
    m["exec.kernel_calls"] = Ratio(traced.kernel_calls, scans);
    m["exec.rows_per_call"] = Ratio(traced.scanned_rows, traced.kernel_calls);
    m["exec.residual_ms"] = Median(traced.residual_ms);
    m["stmt.self_ms"] = Median(spans.SelfTimes("stmt"));
    m["storage.scan_ms"] = Median(traced.scan_ms);
    m["storage.scan_mb_per_s"] = Median(traced.scan_mb_per_s);
    m["storage.pages_scanned"] = Ratio(s.pages_scanned, statements);
    m["storage.pages_pruned"] = Ratio(s.pages_pruned, statements);
    m["pool.hit_ratio"] = Ratio(s.pool_hits, s.pool_hits + s.pool_misses);
    m["pool.evictions"] = Ratio(s.evictions, statements);
    m["pool.write_backs"] = Ratio(s.write_backs, statements);
    m["pager.reads"] = Ratio(s.reads, statements);
    m["pager.writes"] = Ratio(s.writes, statements);
    m["pager.syncs"] = Ratio(s.syncs, statements);
    m["pager.checksum_failures"] = s.checksum_failures;
    m["storage.append_ms"] = Median(traced.append_ms);
    m["storage.commit_ms"] = Median(traced.commit_ms);
    m["storage.bytes_written_per_user_byte"] = Ratio(
        s.writes * static_cast<double>(storage::kDefaultPageSize),
        traced.user_bytes);
    m["storage.ingest_rows_per_s"] =
        Ratio(static_cast<double>(untraced.rows_inserted),
              untraced.write_ms / 1e3);
    m["forest.batch_ms"] = Median(traced.batch_ms);
    m["forest.rows_per_s"] = Median(traced.rows_per_s);
    m["forest.chunked_ms"] = Median(traced.chunked_ms);
    const ThresholdStats& t = traced.threshold;
    m["forest.threshold_skip_ratio"] =
        t.tree_traversals_full == 0
            ? 0.0
            : 1.0 - static_cast<double>(t.tree_traversals) /
                        static_cast<double>(t.tree_traversals_full);
    m["forest.build_ms"] = Median(traced.build_ms);
    m["pipeline.query_ms"] = Median(traced.pipeline_ms);
    m["pipeline.model_load_ms"] = Median(traced.model_load_ms);
    m["pipeline.engine_build_ms"] = Median(traced.engine_build_ms);
    m["trace.overhead_pct"] =
        OverheadPct(Median(untraced.read_ms), Median(traced.read_ms));
    m["proc.cpu_ms_per_op"] =
        Ratio(untraced.cpu_ms, static_cast<double>(untraced.statements()));
}

}  // namespace

Outcome
RunPagedMix(const Options& options)
{
    Outcome out;
    const Inputs in = MakeInputs(options);
    SqlRun run(options, in, out);
    // peak_rss_mb covers the program from here on, not the synthesis.
    out.record.Num("inputs_peak_rss_mb", ResetPeakRss());

    // Each segment runs on a fresh set-up, so the run averages over
    // several autotune picks instead of inheriting one.
    Mix mix(in, /*writes=*/true, StreamSeed(options.seed, 6));
    const double seconds =
        static_cast<double>(options.seconds) / kSegments /
        (options.trace ? 2 : 1);
    std::vector<double> setup_s;
    SpanLog off(false);
    SpanLog spans(true);
    Pass untraced;
    Pass traced;
    std::vector<JsonObject> segments;
    for (int seg = 0; seg < kSegments; ++seg) {
        Mix warm(in, false, StreamSeed(options.seed, 100 + seg));
        setup_s.push_back(run.Setup(seg, warm));
        const std::size_t first = untraced.read_ms.size();
        run.RunPass(mix, seconds, off, untraced, /*probe=*/false);
        // Per-segment p50 beside the segment's autotune pick, so a
        // spread between runs can be traced to the pick.
        JsonObject segment;
        segment.Num("setup_s", setup_s.back())
            .Num("reads", static_cast<double>(untraced.read_ms.size() - first))
            .Num("p50_ms", Median(std::vector<double>(
                               untraced.read_ms.begin() + first,
                               untraced.read_ms.end())))
            .Obj("autotune", AutotunePick(ForestKernel(in.forest)));
        segments.push_back(segment);
        if (options.trace) {
            run.RunPass(mix, seconds, spans, traced, /*probe=*/true);
        }
        run.FinalChecks();
    }
    out.end_to_end["setup_s"] = Median(setup_s);
    EndToEnd(untraced, out.end_to_end, out.record);
    if (options.trace) {
        PerLayer(traced, untraced, spans, out.per_layer);
        out.per_layer["failed_share"] =
            Ratio(static_cast<double>(out.failed),
                  static_cast<double>(out.attempted));
    }

    out.record.Raw("segments", JsonArray(segments))
        .Num("table_rows", static_cast<double>(in.data.num_rows()))
        .Num("pool_pages", static_cast<double>(in.pool_pages))
        .Num("rows_per_page", static_cast<double>(in.rows_per_page))
        .Num("trees", static_cast<double>(kTrees))
        .Num("depth", static_cast<double>(kDepth))
        .Num("theta", static_cast<double>(in.theta));
    return out;
}

}  // namespace perfbench
