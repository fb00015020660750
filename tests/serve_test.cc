/**
 * @file
 * Tests for dbscore::serve — the concurrent scoring service.
 *
 * The headline test replays one generated trace through two service
 * instances from 8 real client threads: micro-batching off (window 0)
 * and on. Coalescing must win on both modeled p95 latency and modeled
 * throughput, because the per-dispatch overheads the paper measures
 * (process invocation, DBMS<->process transfer, engine setup) are paid
 * once per batch instead of once per request.
 */
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <thread>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/batch_coalescer.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/serve/service_proc.h"
#include "dbscore/serve/service_stats.h"

namespace dbscore::serve {
namespace {

/** One trained HIGGS model shared by every test in this file. */
struct ServeFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    ServeFixture() : data(MakeHiggs(3000, 90))
    {
        ForestTrainerConfig config;
        config.num_trees = 64;
        config.max_depth = 10;
        config.seed = 90;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }

    std::unique_ptr<ScoringService>
    Service(ServiceConfig config) const
    {
        auto service = std::make_unique<ScoringService>(profile, config);
        service->RegisterModel("m", ensemble, stats);
        return service;
    }
};

const ServeFixture&
Fixture()
{
    static ServeFixture fixture;
    return fixture;
}

PendingRequest
MakePending(double arrival_ms, std::size_t rows)
{
    PendingRequest r;
    r.request.model_id = "m";
    r.request.num_rows = rows;
    r.request.arrival = SimTime::Millis(arrival_ms);
    r.handle = std::make_shared<PendingScore>();
    return r;
}

// -------------------------------------------------- batch coalescer --

TEST(BatchCoalescerTest, GroupsWithinWindowAndClosesOnMiss)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(5.0);
    BatchCoalescer coalescer(config);

    EXPECT_TRUE(coalescer.Add(MakePending(0.0, 10)).empty());
    EXPECT_TRUE(coalescer.Add(MakePending(2.0, 20)).empty());
    EXPECT_TRUE(coalescer.Add(MakePending(4.0, 30)).empty());
    EXPECT_EQ(coalescer.pending_requests(), 3u);

    // 20 ms misses the [0, 5] ms window: the open batch closes and the
    // newcomer starts a fresh one.
    auto closed = coalescer.Add(MakePending(20.0, 5));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].members.size(), 3u);
    EXPECT_EQ(closed[0].total_rows, 60u);
    EXPECT_DOUBLE_EQ(closed[0].open_arrival.millis(), 0.0);
    EXPECT_DOUBLE_EQ(closed[0].ready.millis(), 4.0);
    EXPECT_EQ(coalescer.pending_requests(), 1u);

    auto flushed = coalescer.Flush();
    ASSERT_EQ(flushed.size(), 1u);
    EXPECT_EQ(flushed[0].members.size(), 1u);
    EXPECT_EQ(coalescer.pending_requests(), 0u);
    EXPECT_EQ(coalescer.open_batches(), 0u);
}

TEST(BatchCoalescerTest, RequestCapClosesEagerly)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(100.0);
    config.max_batch_requests = 2;
    BatchCoalescer coalescer(config);

    EXPECT_TRUE(coalescer.Add(MakePending(0.0, 1)).empty());
    auto closed = coalescer.Add(MakePending(1.0, 1));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].members.size(), 2u);
    EXPECT_EQ(coalescer.pending_requests(), 0u);
}

TEST(BatchCoalescerTest, RowCapAndZeroWindow)
{
    CoalescerConfig config;
    config.window = SimTime::Millis(100.0);
    config.max_batch_rows = 50;
    BatchCoalescer row_capped(config);
    EXPECT_TRUE(row_capped.Add(MakePending(0.0, 30)).empty());
    // 30 + 40 would overflow the 50-row cap: old batch closes, the
    // newcomer (40 rows < 50) stays open.
    auto closed = row_capped.Add(MakePending(1.0, 40));
    ASSERT_EQ(closed.size(), 1u);
    EXPECT_EQ(closed[0].total_rows, 30u);
    EXPECT_EQ(row_capped.pending_requests(), 1u);

    CoalescerConfig solo;
    solo.window = SimTime();
    BatchCoalescer uncoalesced(solo);
    auto each = uncoalesced.Add(MakePending(0.0, 10));
    ASSERT_EQ(each.size(), 1u);
    EXPECT_EQ(each[0].members.size(), 1u);
    EXPECT_EQ(uncoalesced.pending_requests(), 0u);
}

TEST(BatchCoalescerTest, RejectsBadConfig)
{
    CoalescerConfig config;
    config.max_batch_requests = 0;
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
    config = CoalescerConfig{};
    config.max_batch_rows = 0;
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
    config = CoalescerConfig{};
    config.window = SimTime::Millis(-1.0);
    EXPECT_THROW(BatchCoalescer{config}, InvalidArgument);
}

// ----------------------------------------------------- service stats --

/** Every counter and summary of @p c is zero. */
void
ExpectZero(const ClassSnapshot& c)
{
    EXPECT_EQ(c.submitted, 0u);
    EXPECT_EQ(c.admitted, 0u);
    EXPECT_EQ(c.rejected, 0u);
    EXPECT_EQ(c.rejected_quota, 0u);
    EXPECT_EQ(c.expired, 0u);
    EXPECT_EQ(c.completed, 0u);
    EXPECT_EQ(c.failed, 0u);
    EXPECT_EQ(c.degraded, 0u);
    EXPECT_EQ(c.deadline_misses, 0u);
    EXPECT_EQ(c.latency.count, 0u);
    EXPECT_EQ(c.latency.p99, 0.0);
}

SimTime
Ms(double ms)
{
    return SimTime::Millis(ms);
}

TEST(ServiceStatsTest, OneClassCountsEveryTerminalState)
{
    ServiceStats stats;
    for (int i = 0; i < 5; ++i) {
        stats.RecordSubmitted(0);
    }
    for (int i = 0; i < 4; ++i) {
        stats.RecordAdmitted(0);
    }
    stats.RecordRejected(0, /*quota=*/false);
    stats.RecordExpired(0, Ms(1), Ms(3));
    stats.RecordFailed(0, Ms(2), Ms(9));
    stats.RecordCompleted(0, Ms(4), Ms(6), Ms(2), /*degraded=*/true,
                          /*deadline_miss=*/false);
    stats.RecordCompleted(0, Ms(5), Ms(8), Ms(3), /*degraded=*/false,
                          /*deadline_miss=*/false);
    stats.RecordBatch(2, 100);
    stats.RecordBatch(4, 300);

    ClassSnapshot cls;
    AccountingSnapshot snap;
    stats.Snapshot({&cls, 1}, snap);
    EXPECT_EQ(cls.submitted, 5u);
    EXPECT_EQ(cls.admitted, 4u);
    EXPECT_EQ(cls.rejected, 1u);
    EXPECT_EQ(cls.rejected_quota, 0u);
    EXPECT_EQ(cls.RejectedCapacity(), 1u);
    EXPECT_EQ(cls.expired, 1u);
    EXPECT_EQ(cls.failed, 1u);
    EXPECT_EQ(cls.completed, 2u);
    EXPECT_EQ(cls.degraded, 1u);
    EXPECT_EQ(cls.deadline_misses, 0u);
    EXPECT_EQ(cls.Goodput(), 2u);
    // Only completions enter the latency summary.
    EXPECT_EQ(cls.latency.count, 2u);
    EXPECT_DOUBLE_EQ(cls.latency.max, Ms(3).seconds());
    EXPECT_EQ(snap.batch_requests.count, 2u);
    EXPECT_DOUBLE_EQ(snap.batch_requests.mean, 3.0);
    EXPECT_DOUBLE_EQ(snap.batch_rows.mean, 200.0);
    // Expired and failed requests widen the span too.
    EXPECT_EQ(snap.first_arrival, Ms(1));
    EXPECT_EQ(snap.last_finish, Ms(9));
    EXPECT_EQ(snap.Makespan(), Ms(9) - Ms(1));
}

TEST(ServiceStatsTest, ThreeClassesSplitQuotaCapacityAndDeadlineMisses)
{
    ServiceStats stats(3);
    stats.RecordRejected(0, /*quota=*/true);
    stats.RecordRejected(0, /*quota=*/true);
    stats.RecordRejected(0, /*quota=*/false);
    stats.RecordRejected(2, /*quota=*/false);
    for (int i = 0; i < 4; ++i) {
        stats.RecordCompleted(0, Ms(0), Ms(10), Ms(10), /*degraded=*/false,
                              /*deadline_miss=*/i == 0);
    }
    stats.RecordCompleted(2, Ms(0), Ms(50), Ms(50), /*degraded=*/true,
                          /*deadline_miss=*/true);

    std::array<ClassSnapshot, 3> classes;
    AccountingSnapshot snap;
    stats.Snapshot(classes, snap);
    const ClassSnapshot& gold = classes[0];
    EXPECT_EQ(gold.rejected, 3u);
    EXPECT_EQ(gold.rejected_quota, 2u);
    EXPECT_EQ(gold.RejectedCapacity(), 1u);
    EXPECT_EQ(gold.completed, 4u);
    EXPECT_EQ(gold.deadline_misses, 1u);
    EXPECT_DOUBLE_EQ(gold.MissRate(), 0.25);
    EXPECT_EQ(gold.Goodput(), 3u);
    ExpectZero(classes[1]);
    const ClassSnapshot& bronze = classes[2];
    EXPECT_EQ(bronze.rejected, 1u);
    EXPECT_EQ(bronze.rejected_quota, 0u);
    EXPECT_EQ(bronze.RejectedCapacity(), 1u);
    EXPECT_EQ(bronze.degraded, 1u);
    EXPECT_DOUBLE_EQ(bronze.MissRate(), 1.0);
    EXPECT_EQ(bronze.Goodput(), 0u);
    // Classes keep separate latency summaries.
    EXPECT_DOUBLE_EQ(gold.latency.max, Ms(10).seconds());
    EXPECT_DOUBLE_EQ(bronze.latency.p50, Ms(50).seconds());
}

TEST(ServiceStatsTest, SpanCoversEveryClass)
{
    ServiceStats stats(3);
    stats.RecordSubmitted(0);
    ClassSnapshot none[3];
    AccountingSnapshot snap;
    stats.Snapshot(none, snap);
    EXPECT_TRUE(snap.Makespan().is_zero());  // no terminal state yet

    stats.RecordCompleted(0, Ms(10), Ms(20), Ms(10), false, false);
    stats.RecordExpired(1, Ms(5), Ms(12));
    stats.RecordFailed(2, Ms(15), Ms(40));
    ClassSnapshot classes[3];
    stats.Snapshot(classes, snap);
    EXPECT_EQ(snap.first_arrival, Ms(5));
    EXPECT_EQ(snap.last_finish, Ms(40));
    EXPECT_EQ(snap.Makespan(), Ms(40) - Ms(5));
}

TEST(ServiceStatsTest, LatencyQuantilesOnKnownSequence)
{
    // 1..101 ms recorded out of order: order statistics are exact.
    ServiceStats stats;
    for (int i = 0; i < 101; ++i) {
        const double ms = 1.0 + (i * 37) % 101;
        stats.RecordCompleted(0, Ms(0), Ms(ms), Ms(ms), false, false);
    }
    ClassSnapshot cls;
    AccountingSnapshot snap;
    stats.Snapshot({&cls, 1}, snap);
    EXPECT_EQ(cls.latency.count, 101u);
    EXPECT_NEAR(cls.latency.mean, 0.051, 1e-12);
    EXPECT_NEAR(cls.latency.p50, 0.051, 1e-12);
    EXPECT_NEAR(cls.latency.p95, 0.096, 1e-12);
    EXPECT_NEAR(cls.latency.p99, 0.100, 1e-12);
    EXPECT_NEAR(cls.latency.max, 0.101, 1e-12);
}

TEST(ServiceStatsTest, ResetZeroesEveryClass)
{
    ServiceStats stats(3);
    for (std::size_t c = 0; c < 3; ++c) {
        stats.RecordSubmitted(c);
        stats.RecordAdmitted(c);
        stats.RecordRejected(c, /*quota=*/c == 1);
        stats.RecordExpired(c, Ms(1), Ms(2));
        stats.RecordFailed(c, Ms(1), Ms(3));
        stats.RecordCompleted(c, Ms(1), Ms(4), Ms(3), true, true);
    }
    stats.RecordBatch(3, 30);
    stats.Reset();

    std::array<ClassSnapshot, 3> classes;
    AccountingSnapshot snap;
    stats.Snapshot(classes, snap);
    for (const ClassSnapshot& c : classes) {
        ExpectZero(c);
    }
    EXPECT_EQ(snap.batch_requests.count, 0u);
    EXPECT_EQ(snap.batch_rows.count, 0u);
    EXPECT_TRUE(snap.Makespan().is_zero());

    // The next phase's span starts from its own first arrival.
    stats.RecordCompleted(2, Ms(7), Ms(9), Ms(2), false, false);
    stats.Snapshot(classes, snap);
    EXPECT_EQ(snap.first_arrival, Ms(7));
    EXPECT_EQ(snap.Makespan(), Ms(9) - Ms(7));
    EXPECT_EQ(classes[2].completed, 1u);
    ExpectZero(classes[0]);
}

// --------------------------------------------------- admission queue --

TEST(ScoringServiceTest, BackpressureRejectsDeterministically)
{
    ServiceConfig config;
    config.admission_capacity = 4;
    auto service = Fixture().Service(config);

    // Not started: nothing drains the queue, so exactly the first 4 of
    // 10 submissions are admitted and the other 6 bounce.
    std::vector<PendingScorePtr> handles;
    for (int i = 0; i < 10; ++i) {
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 100;
        r.arrival = SimTime::Millis(static_cast<double>(i));
        handles.push_back(service->Submit(std::move(r)));
    }
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.submitted, 10u);
    EXPECT_EQ(snap.admitted, 4u);
    EXPECT_EQ(snap.rejected, 6u);
    for (int i = 4; i < 10; ++i) {
        ASSERT_TRUE(handles[i]->ready());
        EXPECT_EQ(handles[i]->Wait().status, RequestStatus::kRejected);
        EXPECT_EQ(handles[i]->Wait().error, "admission queue full");
    }

    // Stopping a never-started service must settle the queued four.
    service->Stop();
    for (int i = 0; i < 4; ++i) {
        ASSERT_TRUE(handles[i]->ready());
        EXPECT_EQ(handles[i]->Wait().status, RequestStatus::kRejected);
    }
    EXPECT_EQ(service->Stats().rejected, 10u);
}

TEST(ScoringServiceTest, RejectsUnknownModelAndZeroRows)
{
    auto service = Fixture().Service(ServiceConfig{});
    ScoreRequest bad;
    bad.model_id = "nope";
    bad.num_rows = 10;
    EXPECT_EQ(service->Submit(bad)->Wait().status,
              RequestStatus::kRejected);
    ScoreRequest zero;
    zero.model_id = "m";
    zero.num_rows = 0;
    EXPECT_EQ(service->Submit(zero)->Wait().status,
              RequestStatus::kRejected);
    EXPECT_EQ(service->Stats().rejected, 2u);
}

TEST(ScoringServiceTest, LifecycleGuards)
{
    const ServeFixture& f = Fixture();
    auto service = f.Service(ServiceConfig{});
    EXPECT_THROW(
        service->RegisterModel("m", f.ensemble, f.stats),
        InvalidArgument);  // duplicate id
    service->Start();
    EXPECT_TRUE(service->running());
    service->Start();  // idempotent
    EXPECT_THROW(service->RegisterModel("m2", f.ensemble, f.stats),
                 InvalidArgument);
    EXPECT_FALSE(service->BackendsFor("m").empty());
    EXPECT_THROW(service->BackendsFor("ghost"), NotFound);
    service->Stop();
    service->Stop();  // idempotent
    EXPECT_FALSE(service->running());
    EXPECT_THROW(service->Start(), InvalidArgument);  // no restart
}

// ------------------------------------------------- deadlines / expiry --

TEST(ScoringServiceTest, DeadlineExpiryIsCounted)
{
    ServiceConfig config;
    config.coalescer.window = SimTime();  // no coalescing
    config.policy = WorkloadPolicy::kAlwaysCpu;
    auto service = Fixture().Service(config);
    service->Start();

    // A 1M-row request parks the CPU for a long modeled time...
    ScoreRequest big;
    big.model_id = "m";
    big.num_rows = 1000000;
    big.arrival = SimTime();
    auto big_handle = service->Submit(big);

    // ...so a same-arrival request with a 1 ms deadline must expire.
    ScoreRequest impatient;
    impatient.model_id = "m";
    impatient.num_rows = 10;
    impatient.arrival = SimTime();
    impatient.deadline = SimTime::Millis(1.0);
    auto impatient_handle = service->Submit(impatient);

    service->Drain();
    EXPECT_EQ(big_handle->Wait().status, RequestStatus::kCompleted);
    const ScoreReply& expired = impatient_handle->Wait();
    EXPECT_EQ(expired.status, RequestStatus::kExpired);
    EXPECT_GT(expired.timing.latency.millis(), 1.0);

    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.completed, 1u);
    EXPECT_EQ(snap.expired, 1u);
    service->Stop();
}

// ----------------------------------------- coalescing under high load --

ServiceSnapshot
ReplayTrace(const std::vector<ScoreRequest>& requests, SimTime window)
{
    ServiceConfig config;
    config.coalescer.window = window;
    config.coalescer.max_batch_requests = 64;
    config.admission_capacity = 4096;
    auto service = Fixture().Service(config);
    service->Start();

    // 8 real client threads submit interleaved slices of the trace.
    constexpr int kClients = 8;
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&requests, &service, c] {
            for (std::size_t i = c; i < requests.size(); i += kClients) {
                service->Submit(requests[i]);
            }
        });
    }
    for (std::thread& t : clients) {
        t.join();
    }
    service->Drain();
    ServiceSnapshot snap = service->Stats();
    service->Stop();
    return snap;
}

TEST(ScoringServiceTest, CoalescingBeatsUncoalescedAtHighLoad)
{
    // Many small same-model requests arriving fast: the regime where
    // the paper's per-dispatch overheads dominate.
    WorkloadConfig wc;
    wc.num_queries = 320;
    wc.mean_interarrival = SimTime::Millis(1.0);
    wc.min_rows = 32;
    wc.max_rows = 512;
    wc.seed = 7;
    auto requests = RequestsFromWorkload(GenerateWorkload(wc), "m");

    ServiceSnapshot uncoalesced = ReplayTrace(requests, SimTime());
    ServiceSnapshot coalesced =
        ReplayTrace(requests, SimTime::Millis(10.0));

    ASSERT_EQ(uncoalesced.completed, 320u);
    ASSERT_EQ(coalesced.completed, 320u);
    EXPECT_EQ(uncoalesced.rejected, 0u);
    EXPECT_EQ(coalesced.rejected, 0u);

    // Micro-batching actually batched...
    EXPECT_DOUBLE_EQ(uncoalesced.batch_requests.mean, 1.0);
    EXPECT_GT(coalesced.batch_requests.mean, 2.0);
    EXPECT_LT(coalesced.batches, uncoalesced.batches);

    // ...and wins on both axes of the paper's Figure 9/10 tradeoff.
    EXPECT_LT(coalesced.latency.p95, uncoalesced.latency.p95);
    EXPECT_LT(coalesced.latency.p50, uncoalesced.latency.p50);
    EXPECT_GT(coalesced.ThroughputRps(), uncoalesced.ThroughputRps());

    // Per-request accounting stayed coherent: every completed request
    // carries stage shares that sum into the fleet totals.
    EXPECT_GT(coalesced.stage_totals.invocation.seconds(), 0.0);
    EXPECT_GT(coalesced.stage_totals.scoring.seconds(), 0.0);
    EXPECT_LT(coalesced.stage_totals.invocation.seconds(),
              uncoalesced.stage_totals.invocation.seconds());
}

TEST(ScoringServiceTest, SnapshotWhileRunningIsConsistent)
{
    WorkloadConfig wc;
    wc.num_queries = 64;
    wc.mean_interarrival = SimTime::Millis(1.0);
    wc.min_rows = 16;
    wc.max_rows = 128;
    auto requests = RequestsFromWorkload(GenerateWorkload(wc), "m");

    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(5.0);
    auto service = Fixture().Service(config);
    service->Start();
    std::thread client([&] {
        for (const ScoreRequest& r : requests) {
            service->Submit(r);
        }
    });
    // Snapshots taken mid-flight must always satisfy the invariants.
    for (int i = 0; i < 50; ++i) {
        ServiceSnapshot snap = service->Stats();
        EXPECT_LE(snap.admitted + snap.rejected, snap.submitted);
        EXPECT_LE(snap.completed + snap.expired, snap.admitted);
    }
    client.join();
    service->Drain();
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.submitted, 64u);
    EXPECT_EQ(snap.completed + snap.expired + snap.rejected, 64u);
    EXPECT_FALSE(snap.ToString().empty());
    service->Stop();
}

// ------------------------------------------------ functional scoring --

TEST(ScoringServiceTest, PayloadRequestsScoreThroughKernelCache)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    const std::size_t cols = f.data.num_features();
    const std::size_t n = 100;
    // Zero-copy payload: a view into the fixture dataset's storage.
    RowView payload = f.data.View(0, n);

    ScoreRequest r;
    r.model_id = "m";
    r.num_rows = n;
    r.rows = payload;
    ScoreReply reply = service->ScoreSync(r);
    ASSERT_EQ(reply.status, RequestStatus::kCompleted);
    ASSERT_EQ(reply.predictions.size(), n);

    // Real predictions, bit-identical to the reference scalar path of
    // the registered model.
    RandomForest reference = f.ensemble.ToForest();
    EXPECT_EQ(reply.predictions,
              reference.PredictBatchScalar(payload.data(), n, cols));

    // Payload-free requests stay modeled-only: no predictions.
    ScoreRequest modeled;
    modeled.model_id = "m";
    modeled.num_rows = 10;
    ScoreReply modeled_reply = service->ScoreSync(modeled);
    EXPECT_EQ(modeled_reply.status, RequestStatus::kCompleted);
    EXPECT_TRUE(modeled_reply.predictions.empty());
    service->Stop();
}

TEST(ScoringServiceTest, RejectsPayloadArityMismatch)
{
    auto service = Fixture().Service(ServiceConfig{});
    service->Start();
    ScoreRequest r;
    r.model_id = "m";
    r.num_rows = 10;
    // 3 floats per row, but the registered model wants 28.
    RowBlock bad(std::vector<float>(10 * 3, 0.0f), 3);
    r.rows = bad.View();
    ScoreReply reply = service->ScoreSync(r);
    EXPECT_EQ(reply.status, RequestStatus::kRejected);
    EXPECT_EQ(reply.error, "row payload arity mismatch");
    EXPECT_EQ(service->Stats().rejected, 1u);
    service->Stop();
}

TEST(ScoringServiceTest, StopSettlesEveryCoalescedRequest)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    // A wide window keeps batches open so Stop() races the coalescer
    // with requests still pending inside it: the shutdown-drain
    // contract says every one of them gets a terminal reply — flushed
    // and dispatched by the exit path, or failed loudly — and none is
    // silently dropped (a dropped handle would hang Wait() forever).
    config.coalescer.window = SimTime::Millis(500.0);
    config.coalescer.max_batch_requests = 64;
    auto service = f.Service(config);
    service->Start();

    std::vector<PendingScorePtr> handles;
    for (int i = 0; i < 24; ++i) {
        ScoreRequest r;
        r.model_id = "m";
        r.num_rows = 32;
        r.arrival = SimTime::Millis(static_cast<double>(i));
        handles.push_back(service->Submit(std::move(r)));
    }
    service->Stop();  // no Drain(): the stop path must settle them

    std::size_t terminal = 0;
    for (const PendingScorePtr& handle : handles) {
        const ScoreReply& reply = handle->Wait();
        EXPECT_NE(reply.status, RequestStatus::kRejected);
        ++terminal;
    }
    EXPECT_EQ(terminal, handles.size());
    ServiceSnapshot snap = service->Stats();
    EXPECT_EQ(snap.completed + snap.expired + snap.failed,
              handles.size());
}

// ------------------------------------------------- DBMS entry points --

TEST(ServeProcedureTest, SpScoreServiceAndStats)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterServeProcedures(sql, *service);

    QueryResult r = sql.Execute(
        "EXEC sp_score_service @model = 'm', @rows = 5000");
    ASSERT_EQ(r.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(r.rows[0][0]), "completed");
    EXPECT_GT(r.modeled_time.seconds(), 0.0);

    QueryResult stats = sql.Execute("EXEC sp_serve_stats");
    EXPECT_GE(stats.rows.size(), 10u);

    EXPECT_THROW(sql.Execute("EXEC sp_score_service @model = 'm'"),
                 InvalidArgument);
    EXPECT_THROW(
        sql.Execute(
            "EXEC sp_score_service @model = 'ghost', @rows = 10"),
        InvalidArgument);
    service->Stop();
}

TEST(ServeProcedureTest, SpServeStatsResetStartsFreshPhase)
{
    const ServeFixture& f = Fixture();
    ServiceConfig config;
    config.coalescer.window = SimTime::Millis(2.0);
    auto service = f.Service(config);
    service->Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterServeProcedures(sql, *service);

    sql.Execute("EXEC sp_score_service @model = 'm', @rows = 1000");
    auto metric = [](const QueryResult& r,
                     const std::string& name) -> double {
        for (const auto& row : r.rows) {
            if (std::get<std::string>(row[0]) == name) {
                return std::get<double>(row[1]);
            }
        }
        ADD_FAILURE() << "metric not found: " << name;
        return -1.0;
    };

    // The @reset call itself reports the phase that just ended...
    QueryResult phase1 =
        sql.Execute("EXEC sp_serve_stats @reset = 1");
    EXPECT_EQ(metric(phase1, "completed"), 1.0);
    EXPECT_NE(phase1.message.find("counters reset"), std::string::npos);

    // ...the next snapshot starts from zero, including the
    // trace-derived stage totals (rebaselined, not re-accumulated).
    QueryResult phase2 = sql.Execute("EXEC sp_serve_stats");
    EXPECT_EQ(metric(phase2, "submitted"), 0.0);
    EXPECT_EQ(metric(phase2, "completed"), 0.0);
    EXPECT_TRUE(service->Stats().stage_totals.scoring.is_zero());

    // Work after the reset lands in the new phase only.
    sql.Execute("EXEC sp_score_service @model = 'm', @rows = 1000");
    QueryResult phase3 = sql.Execute("EXEC sp_serve_stats");
    EXPECT_EQ(metric(phase3, "completed"), 1.0);
    EXPECT_GT(service->Stats().stage_totals.scoring.seconds(), 0.0);
    service->Stop();
}

}  // namespace
}  // namespace dbscore::serve
