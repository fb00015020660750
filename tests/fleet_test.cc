/**
 * @file
 * Tests for dbscore::fleet — multi-tenant registry, SLO scheduling,
 * and fleet-scale serving.
 *
 * The registry tests pin the re-warm tax contract: a model pays its
 * build cost exactly once per residency, eviction makes the next
 * Acquire pay it again, the trace counters (kRegistryHit /
 * kRegistryEvict / kKernelBuild spans) agree with the snapshot, and a
 * re-warmed kernel predicts bit-identically to the first build. The
 * chaos test mixes 8 submitting threads with concurrent eviction and
 * injected faults and asserts every request settles — the suite runs
 * under TSan and ASan in CI.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "dbscore/common/error.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/dbms/database.h"
#include "dbscore/dbms/query_engine.h"
#include "dbscore/fault/fault.h"
#include "dbscore/fleet/autoscaler.h"
#include "dbscore/fleet/fleet_proc.h"
#include "dbscore/fleet/fleet_service.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/fleet/wfq.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/trace/trace.h"

namespace dbscore::fleet {
namespace {

using serve::RequestStatus;

/** One trained HIGGS model shared by every test in this file. */
struct FleetFixture {
    Dataset data;
    TreeEnsemble ensemble;
    ModelStats stats;
    HardwareProfile profile = HardwareProfile::Paper();

    FleetFixture() : data(MakeHiggs(2000, 93))
    {
        ForestTrainerConfig config;
        config.num_trees = 32;
        config.max_depth = 8;
        config.seed = 93;
        RandomForest forest = TrainForest(data, config);
        ensemble = TreeEnsemble::FromForest(forest);
        stats = ComputeModelStats(forest, &data);
    }

    std::vector<float>
    Payload(std::size_t rows) const
    {
        const std::size_t cols = data.num_features();
        std::vector<float> payload(rows * cols);
        for (std::size_t r = 0; r < rows; ++r) {
            const float* row = data.Row(r);
            std::copy(row, row + cols, payload.begin() + r * cols);
        }
        return payload;
    }
};

const FleetFixture&
Fixture()
{
    static FleetFixture fixture;
    return fixture;
}

std::size_t
CountSpans(std::uint32_t domain, trace::StageKind stage,
           const char* name_prefix = nullptr)
{
    trace::TraceCollector::Get().Drain();
    std::size_t n = 0;
    for (const trace::SpanRecord& span :
         trace::TraceCollector::Get().SpansForDomain(domain)) {
        if (span.stage != stage) {
            continue;
        }
        if (name_prefix != nullptr &&
            std::string_view(span.name).substr(0, std::strlen(name_prefix)) !=
                name_prefix) {
            continue;
        }
        ++n;
    }
    return n;
}

// ------------------------------------------------------ token bucket --

TEST(TokenBucketTest, BurstThenRefillOverModeledTime)
{
    TokenBucket bucket(10.0, 4.0);
    const SimTime t0;
    for (int i = 0; i < 4; ++i) {
        EXPECT_TRUE(bucket.TryTake(t0)) << "burst token " << i;
    }
    EXPECT_FALSE(bucket.TryTake(t0));

    // 0.25s at 10/s refills 2.5 tokens: two takes pass, a third fails.
    const SimTime t1 = SimTime::Millis(250.0);
    EXPECT_TRUE(bucket.TryTake(t1));
    EXPECT_TRUE(bucket.TryTake(t1));
    EXPECT_FALSE(bucket.TryTake(t1));

    // A stale (earlier) stamp refills nothing.
    EXPECT_FALSE(bucket.TryTake(t0));
}

TEST(TokenBucketTest, ZeroRateIsUnlimited)
{
    TokenBucket bucket(0.0, 1.0);
    for (int i = 0; i < 100; ++i) {
        EXPECT_TRUE(bucket.TryTake(SimTime()));
    }
}

// ------------------------------------------------ weighted fair queue --

TEST(WfqTest, ServiceIsProportionalToWeights)
{
    WeightedFairQueue<int> wfq({8.0, 3.0, 1.0});
    for (int i = 0; i < 100; ++i) {
        wfq.Push(SloClass::kGold, i);
        wfq.Push(SloClass::kSilver, 100 + i);
        wfq.Push(SloClass::kBronze, 200 + i);
    }
    // Over the first 60 pops every class is continuously backlogged, so
    // SCFQ must serve ~8:3:1. Exact counts depend on tag tie-breaks;
    // the band below is what any correct SCFQ produces.
    std::array<int, kNumSloClasses> served{};
    for (int i = 0; i < 60; ++i) {
        const int item = *wfq.Pop();
        ++served[static_cast<int>(item / 100)];
    }
    EXPECT_GE(served[0], 36);  // gold: ~40 of 60
    EXPECT_GE(served[1], 12);  // silver: ~15 of 60
    EXPECT_GE(served[2], 3);   // bronze: ~5 of 60, never starved
    EXPECT_GT(served[0], served[1]);
    EXPECT_GT(served[1], served[2]);

    // FIFO within a class.
    WeightedFairQueue<int> fifo({1.0, 1.0, 1.0});
    fifo.Push(SloClass::kGold, 1);
    fifo.Push(SloClass::kGold, 2);
    fifo.Push(SloClass::kGold, 3);
    EXPECT_EQ(*fifo.Pop(), 1);
    EXPECT_EQ(*fifo.Pop(), 2);
    EXPECT_EQ(*fifo.Pop(), 3);
    EXPECT_FALSE(fifo.Pop().has_value());
}

TEST(WfqTest, IdleClassBuildsNoCredit)
{
    WeightedFairQueue<int> wfq({8.0, 3.0, 1.0});
    // Bronze serves alone for a while; gold then arrives and must not
    // owe bronze for the time it was idle (SCFQ, not raw virtual-clock
    // WFQ: finish tags start at the current virtual time).
    for (int i = 0; i < 50; ++i) {
        wfq.Push(SloClass::kBronze, i);
    }
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(*wfq.Pop(), i);
    }
    wfq.Push(SloClass::kGold, 1000);
    wfq.Push(SloClass::kBronze, 2000);
    EXPECT_EQ(*wfq.Pop(), 1000);
}

// ---------------------------------------------------------- autoscaler --

TEST(AutoscalerTest, PureDecisionRules)
{
    AutoscalerConfig config;
    config.min_lanes = 1;
    config.max_lanes = 8;
    config.cooldown = SimTime::Millis(100.0);

    DeviceLoadSignals s;
    s.lanes = 2;
    s.now = SimTime::Seconds(10.0);
    s.last_change = SimTime();

    // Backlog per lane above threshold: scale up.
    s.queue_depth = 9;  // 4.5 per lane > 4.0
    EXPECT_EQ(Autoscale(config, s).delta, 1);
    EXPECT_STREQ(Autoscale(config, s).reason, "backlog");

    // Deadline misses scale up even with a shallow queue.
    s.queue_depth = 2;
    s.window_completions = 10;
    s.window_deadline_misses = 2;  // 20% > 10%
    EXPECT_EQ(Autoscale(config, s).delta, 1);

    // Idle pool shrinks, but never below min_lanes.
    s.window_deadline_misses = 0;
    s.window_completions = 10;
    s.queue_depth = 0;
    EXPECT_EQ(Autoscale(config, s).delta, -1);
    s.lanes = config.min_lanes;
    EXPECT_EQ(Autoscale(config, s).delta, 0);

    // Cooldown and the max-lanes cap both hold.
    s.lanes = 2;
    s.queue_depth = 100;
    s.last_change = s.now - SimTime::Millis(50.0);
    EXPECT_EQ(Autoscale(config, s).delta, 0);
    s.last_change = SimTime();
    s.lanes = config.max_lanes;
    EXPECT_EQ(Autoscale(config, s).delta, 0);

    // Disabled holds everything.
    config.enabled = false;
    s.lanes = 2;
    EXPECT_EQ(Autoscale(config, s).delta, 0);
}

// ------------------------------------------------------ model registry --

TEST(ModelRegistryTest, WarmEvictRewarmPaysBuildCostExactlyOnce)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    // Budget holds exactly one model: acquiring the other evicts.
    config.memory_budget_bytes = f.stats.serialized_bytes +
                                 f.stats.serialized_bytes / 2;
    ModelRegistry registry(f.profile, config);
    registry.RegisterModel("a", f.ensemble, f.stats);
    registry.RegisterModel("b", f.ensemble, f.stats);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const std::uint32_t domain = tracer.NewDomain();
    const trace::SpanContext parent = tracer.NewRootContext(domain);

    // Cold build pays; the second acquire is free (warm).
    AcquireResult first = registry.Acquire("a", parent, SimTime());
    EXPECT_FALSE(first.hit);
    EXPECT_GT(first.build_cost.seconds(), 0.0);
    AcquireResult warm = registry.Acquire("a", parent, SimTime());
    EXPECT_TRUE(warm.hit);
    EXPECT_TRUE(warm.build_cost.is_zero());
    EXPECT_EQ(warm.model.get(), first.model.get());

    // "b" displaces "a"; re-acquiring "a" pays the build again, and
    // the modeled cost of a rebuild equals the first build exactly
    // (same serialized bytes through the same cost model).
    registry.Acquire("b", parent, SimTime());
    AcquireResult rewarm = registry.Acquire("a", parent, SimTime());
    EXPECT_FALSE(rewarm.hit);
    EXPECT_EQ(rewarm.build_cost, first.build_cost);
    EXPECT_NE(rewarm.model.get(), first.model.get());

    RegistrySnapshot snap = registry.Snapshot();
    EXPECT_EQ(snap.hits, 1u);
    EXPECT_EQ(snap.misses, 3u);    // a cold, b cold, a re-warm
    EXPECT_EQ(snap.rebuilds, 1u);  // only the re-warm of "a"
    EXPECT_EQ(snap.evictions, 2u); // a (by b), then b (by a)
    EXPECT_EQ(snap.resident_models, 1u);
    EXPECT_EQ(snap.build_cost_total, first.build_cost * 3.0);

    // The trace domain agrees with the snapshot counter for counter.
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kRegistryHit),
              snap.hits);
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kRegistryEvict),
              snap.evictions);
    // The kernel build itself also emits kKernelBuild spans (compile +
    // autotune), so count only the registry-level ones by name: one wall
    // span + one sim span per miss.
    EXPECT_EQ(CountSpans(domain, trace::StageKind::kKernelBuild,
                         "registry-build"),
              2 * snap.misses);

    // Bit-identity: the re-warmed kernel is a different object but an
    // identical function.
    const std::size_t rows = 64;
    std::vector<float> payload = f.Payload(rows);
    std::vector<float> before = first.model->forest.PredictBatch(
        payload.data(), rows, f.data.num_features());
    std::vector<float> after = rewarm.model->forest.PredictBatch(
        payload.data(), rows, f.data.num_features());
    ASSERT_EQ(before.size(), after.size());
    EXPECT_EQ(std::memcmp(before.data(), after.data(),
                          before.size() * sizeof(float)),
              0);
}

TEST(ModelRegistryTest, MissAddsKernelBuildWallTime)
{
    const FleetFixture& f = Fixture();
    ModelRegistry registry(f.profile, RegistryConfig{});
    registry.RegisterModel("a", f.ensemble, f.stats);
    const trace::SpanContext parent =
        trace::TraceCollector::Get().NewRootContext(0);

    AcquireResult miss = registry.Acquire("a", parent, SimTime());
    ASSERT_FALSE(miss.hit);
    EXPECT_GT(miss.model->build_wall_ms, 0.0);
    EXPECT_EQ(registry.Snapshot().build_wall_ms_total,
              miss.model->build_wall_ms);
    // A hit builds nothing and adds nothing.
    EXPECT_TRUE(registry.Acquire("a", parent, SimTime()).hit);
    EXPECT_EQ(registry.Snapshot().build_wall_ms_total,
              miss.model->build_wall_ms);
}

TEST(ModelRegistryTest, OverBudgetLoneModelStaysResident)
{
    const FleetFixture& f = Fixture();
    RegistryConfig config;
    config.memory_budget_bytes = 1;  // nothing "fits"
    ModelRegistry registry(f.profile, config);
    registry.RegisterModel("a", f.ensemble, f.stats);

    trace::TraceCollector& tracer = trace::TraceCollector::Get();
    const trace::SpanContext parent =
        tracer.NewRootContext(tracer.NewDomain());
    registry.Acquire("a", parent, SimTime());
    // The most-recently-used model is never evicted by its own
    // arrival, even over budget — otherwise a lone oversized model
    // would rebuild on every single acquire.
    EXPECT_TRUE(registry.Acquire("a", parent, SimTime()).hit);
    EXPECT_EQ(registry.Snapshot().resident_models, 1u);
}

TEST(ModelRegistryTest, UnknownAndDuplicateIdsThrow)
{
    const FleetFixture& f = Fixture();
    ModelRegistry registry(f.profile, RegistryConfig{});
    registry.RegisterModel("a", f.ensemble, f.stats);
    EXPECT_THROW(registry.RegisterModel("a", f.ensemble, f.stats),
                 InvalidArgument);
    const trace::SpanContext parent =
        trace::TraceCollector::Get().NewRootContext(0);
    EXPECT_THROW(registry.Acquire("ghost", parent, SimTime()), NotFound);
}

// ------------------------------------------------------- fleet service --

TEST(FleetServiceTest, ScoresForTenantsAndMatchesDirectKernel)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.RegisterTenant(2, "m", SloClass::kBronze);
    service.Start();

    const std::size_t rows = 32;
    std::vector<float> payload = f.Payload(rows);
    FleetRequest request;
    request.tenant_id = 1;
    request.num_rows = rows;
    request.rows = payload;
    FleetReply reply = service.ScoreSync(std::move(request));
    ASSERT_EQ(reply.status, RequestStatus::kCompleted);
    EXPECT_EQ(reply.slo, SloClass::kGold);
    EXPECT_TRUE(reply.registry_miss);  // first touch builds
    ASSERT_EQ(reply.predictions.size(), rows);

    RandomForest direct = f.ensemble.ToForest();
    std::vector<float> expected =
        direct.PredictBatch(payload.data(), rows, f.data.num_features());
    EXPECT_EQ(std::memcmp(reply.predictions.data(), expected.data(),
                          rows * sizeof(float)),
              0);

    // Re-warm after eviction: same bits, build paid again.
    service.EvictAllModels();
    FleetRequest again;
    again.tenant_id = 2;
    again.num_rows = rows;
    again.rows = payload;
    FleetReply rewarmed = service.ScoreSync(std::move(again));
    ASSERT_EQ(rewarmed.status, RequestStatus::kCompleted);
    EXPECT_EQ(rewarmed.slo, SloClass::kBronze);
    EXPECT_TRUE(rewarmed.registry_miss);
    EXPECT_EQ(std::memcmp(rewarmed.predictions.data(), expected.data(),
                          rows * sizeof(float)),
              0);
    EXPECT_EQ(service.registry().Snapshot().rebuilds, 1u);
    service.Stop();
}

TEST(FleetServiceTest, RejectsUnknownTenantAndEnforcesQuota)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_rps = 1.0;
    config.slo[static_cast<int>(SloClass::kBronze)].quota_burst = 2.0;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(7, "m", SloClass::kBronze);
    service.Start();

    FleetReply ghost = service.ScoreSync(FleetRequest{});
    EXPECT_EQ(ghost.status, RequestStatus::kRejected);
    EXPECT_EQ(ghost.error, "fleet: unknown tenant");

    // Burst of 2 admits; the third (same modeled arrival, no refill
    // elapsed) bounces on the tenant's bucket.
    std::vector<std::future<FleetReply>> futures;
    for (int i = 0; i < 3; ++i) {
        FleetRequest r;
        r.tenant_id = 7;
        r.arrival = SimTime();
        futures.push_back(service.Submit(std::move(r)));
    }
    std::size_t rejected = 0;
    for (auto& fut : futures) {
        if (fut.get().status == RequestStatus::kRejected) {
            ++rejected;
        }
    }
    EXPECT_EQ(rejected, 1u);
    FleetSnapshot snap = service.Stats();
    EXPECT_EQ(
        snap.classes[static_cast<int>(SloClass::kBronze)].rejected_quota,
        1u);
    service.Stop();

    FleetRequest stopped;
    stopped.tenant_id = 7;
    EXPECT_EQ(service.ScoreSync(std::move(stopped)).status,
              RequestStatus::kRejected);
}

TEST(FleetServiceTest, StatsAfterResetReportLiveTenantAndModelCounts)
{
    const FleetFixture& f = Fixture();
    FleetService service(f.profile, FleetConfig{});
    service.RegisterModel("a", f.ensemble, f.stats);
    service.RegisterModel("b", f.ensemble, f.stats);
    service.RegisterTenant(1, "a", SloClass::kGold);
    service.RegisterTenant(2, "b", SloClass::kSilver);
    service.RegisterTenant(3, "b", SloClass::kBronze);
    service.Start();
    FleetRequest request;
    request.tenant_id = 2;
    ASSERT_EQ(service.ScoreSync(std::move(request)).status,
              RequestStatus::kCompleted);

    service.ResetStats();
    // Tenants and models registered after the reset count too.
    service.RegisterModel("c", f.ensemble, f.stats);
    service.RegisterTenant(4, "c", SloClass::kGold);
    const FleetSnapshot snap = service.Stats();
    EXPECT_EQ(snap.tenants, 4u);
    EXPECT_EQ(snap.models, 3u);
    EXPECT_EQ(snap.Submitted(), 0u);
    EXPECT_EQ(snap.Completed(), 0u);
    EXPECT_TRUE(snap.Makespan().is_zero());
    service.Stop();
}

TEST(FleetServiceTest, GoldOutrunsBronzeUnderHeldBacklog)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.hold_dispatch = true;
    config.autoscaler.enabled = false;
    // One lane per device and an effectively unbounded dispatch
    // window: the held WFQ backlog drains in one deterministic pop
    // sequence, and completion order is (near-)monotone in dispatch
    // order. Keeping the window bound in play would make the test's
    // latencies depend on how fast real worker threads drain device
    // queues — flaky under sanitizers.
    config.initial_lanes = 1;
    config.window_per_lane = 1e6;
    // Long shared deadline and no admission quota: this test is about
    // ordering, not expiry or throttling. Policies must be in place
    // before RegisterTenant — each tenant's token bucket is built from
    // the class policy current at registration time.
    for (int c = 0; c < kNumSloClasses; ++c) {
        config.slo[c].deadline = SimTime::Seconds(600.0);
        config.slo[c].quota_rps = 0.0;
    }
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.RegisterTenant(2, "m", SloClass::kBronze);
    service.Start();

    // Interleave submissions so arrival order can't explain the gap.
    std::vector<std::future<FleetReply>> gold, bronze;
    for (int i = 0; i < 40; ++i) {
        FleetRequest g;
        g.tenant_id = 1;
        g.num_rows = 64;
        g.arrival = SimTime::Millis(static_cast<double>(i) * 0.01);
        gold.push_back(service.Submit(std::move(g)));
        FleetRequest b;
        b.tenant_id = 2;
        b.num_rows = 64;
        b.arrival = SimTime::Millis(static_cast<double>(i) * 0.01);
        bronze.push_back(service.Submit(std::move(b)));
    }
    service.ReleaseDispatch();
    service.Drain();

    std::vector<double> gold_lat, bronze_lat;
    std::vector<std::pair<double, bool>> finishes;  // (finish, is_gold)
    for (auto& fut : gold) {
        FleetReply r = fut.get();
        ASSERT_EQ(r.status, RequestStatus::kCompleted);
        gold_lat.push_back(r.Latency().seconds());
        finishes.emplace_back(r.finish.seconds(), true);
    }
    for (auto& fut : bronze) {
        FleetReply r = fut.get();
        ASSERT_EQ(r.status, RequestStatus::kCompleted);
        bronze_lat.push_back(r.Latency().seconds());
        finishes.emplace_back(r.finish.seconds(), false);
    }
    // Weight 8 vs 1: the WFQ pops all 40 gold requests within the
    // first 44 dispatches, so gold dominates the early finishers.
    std::sort(finishes.begin(), finishes.end());
    std::size_t gold_in_first_half = 0;
    for (std::size_t i = 0; i < finishes.size() / 2; ++i) {
        gold_in_first_half += finishes[i].second;
    }
    EXPECT_GE(gold_in_first_half, 30u);
    // ... and gold's median modeled latency sits well below bronze's
    // (the margin absorbs cold-start charges on the early, i.e. gold,
    // dispatches).
    std::sort(gold_lat.begin(), gold_lat.end());
    std::sort(bronze_lat.begin(), bronze_lat.end());
    EXPECT_LT(gold_lat[gold_lat.size() / 2] * 1.5,
              bronze_lat[bronze_lat.size() / 2]);
    service.Stop();
}

TEST(FleetServiceTest, EightThreadChaosSettlesEveryRequest)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.registry.memory_budget_bytes =
        f.stats.serialized_bytes * 2 + f.stats.serialized_bytes / 2;
    FleetService service(f.profile, config);
    for (int m = 0; m < 6; ++m) {
        service.RegisterModel("m" + std::to_string(m), f.ensemble,
                              f.stats);
    }
    constexpr int kTenants = 24;
    for (int t = 0; t < kTenants; ++t) {
        service.RegisterTenant(static_cast<std::uint64_t>(t),
                               "m" + std::to_string(t % 6),
                               static_cast<SloClass>(t % kNumSloClasses));
    }
    service.Start();

    fault::FaultPlan plan;
    plan.seed = 0xc4a05;
    for (int s = 0; s < fault::kNumFaultSites; ++s) {
        plan.sites[s].probability = 0.10;
    }
    fault::FaultInjector::Get().Install(plan);

    constexpr int kThreads = 8;
    constexpr int kPerThread = 30;
    std::atomic<std::size_t> settled{0};
    std::atomic<bool> evict_stop{false};
    // A ninth thread hammers eviction while requests are in flight:
    // in-flight WarmModelPtrs must keep their kernels alive.
    std::thread evictor([&] {
        while (!evict_stop.load()) {
            service.EvictAllModels();
            std::this_thread::yield();
        }
    });
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i) {
                FleetRequest r;
                r.tenant_id = static_cast<std::uint64_t>(
                    (t * kPerThread + i) % kTenants);
                r.num_rows = 16 + 16 * (i % 4);
                FleetReply reply = service.ScoreSync(std::move(r));
                (void)reply;  // any terminal status is legal under chaos
                settled.fetch_add(1);
            }
        });
    }
    for (std::thread& t : threads) {
        t.join();
    }
    evict_stop.store(true);
    evictor.join();
    service.Drain();
    fault::FaultInjector::Get().Clear();

    EXPECT_EQ(settled.load(),
              static_cast<std::size_t>(kThreads * kPerThread));
    FleetSnapshot snap = service.Stats();
    std::size_t class_settled = 0;
    std::size_t class_submitted = 0;
    for (const ClassSnapshot& c : snap.classes) {
        class_submitted += c.submitted;
        class_settled += c.completed + c.expired + c.failed +
                         c.rejected;
    }
    EXPECT_EQ(class_submitted,
              static_cast<std::size_t>(kThreads * kPerThread));
    EXPECT_EQ(class_settled, class_submitted);
    service.Stop();
}

// ------------------------------------------------- breaker lifecycle --

TEST(FleetFaultTest, BreakerOpensHalfOpensAndFailedProbeReopens)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    config.retry.max_attempts = 2;
    config.breaker.failure_threshold = 2;
    config.breaker.open_cooldown = SimTime::Millis(200.0);
    // A free FPGA lane at every arrival, so only the breaker keeps
    // work off the FPGA.
    config.autoscaler.enabled = false;
    config.initial_lanes = 4;
    // Leave room in the deadline for two faulted attempts and the CPU.
    config.slo[static_cast<int>(SloClass::kGold)].deadline =
        SimTime::Seconds(60.0);
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.RegisterTenant(1, "m", SloClass::kGold);
    service.Start();

    auto score = [&service](double arrival_s) {
        FleetRequest r;
        r.tenant_id = 1;
        r.num_rows = 200000;  // large enough that the FPGA finishes first
        r.arrival = SimTime::Seconds(arrival_s);
        return service.ScoreSync(std::move(r));
    };
    auto fpga = [&service] {
        return service.Stats().devices[static_cast<int>(DeviceClass::kFpga)];
    };
    auto breaker_spans = [&service](const char* name) {
        return CountSpans(service.trace_domain(), trace::StageKind::kBreaker,
                          name);
    };

    // Healthy, the request places on the FPGA.
    ASSERT_EQ(score(0.0).device, DeviceClass::kFpga);

    fault::FaultPlan plan;
    plan.At(fault::FaultSite::kFpgaSetup).probability = 1.0;
    plan.At(fault::FaultSite::kFpgaSetup).sticky = true;
    fault::FaultInjector::Get().Install(plan);

    // A: two faulted FPGA attempts open the breaker (threshold 2); the
    // request degrades to the CPU.
    FleetReply a = score(1.0);
    EXPECT_EQ(a.status, RequestStatus::kCompleted);
    EXPECT_TRUE(a.degraded);
    EXPECT_EQ(a.attempts, 3u);
    EXPECT_EQ(fpga().breaker, serve::BreakerState::kOpen);
    EXPECT_EQ(fpga().breaker_opens, 1u);

    // B, inside the cooldown: placement skips the FPGA.
    FleetReply b = score(1.05);
    EXPECT_EQ(b.status, RequestStatus::kCompleted);
    EXPECT_NE(b.device, DeviceClass::kFpga);
    EXPECT_EQ(b.attempts, 1u);

    // C, past the cooldown with the FPGA still failing: C is the
    // half-open probe, and its fault re-opens the breaker for a fresh
    // cooldown.
    FleetReply c = score(10.0);
    EXPECT_EQ(breaker_spans("breaker-half-open"), 1u);
    EXPECT_TRUE(c.degraded);
    EXPECT_EQ(c.attempts, 3u);
    EXPECT_EQ(fpga().breaker, serve::BreakerState::kOpen);
    EXPECT_EQ(fpga().breaker_opens, 2u);

    // D, inside the fresh cooldown: skipped again instead of probing
    // the failing device a second time.
    FleetReply d = score(10.05);
    EXPECT_NE(d.device, DeviceClass::kFpga);
    EXPECT_EQ(d.attempts, 1u);
    EXPECT_FALSE(d.degraded);

    // Healed, E past the cooldown probes the FPGA and closes the
    // breaker.
    fault::FaultInjector::Get().Clear();
    FleetReply e = score(20.0);
    EXPECT_EQ(e.device, DeviceClass::kFpga);
    EXPECT_EQ(e.attempts, 1u);
    EXPECT_FALSE(e.degraded);
    EXPECT_EQ(fpga().breaker, serve::BreakerState::kClosed);
    EXPECT_EQ(breaker_spans("breaker-half-open"), 2u);
    EXPECT_EQ(breaker_spans("breaker-close"), 1u);
    service.Stop();
}

// ------------------------------------------------- DBMS entry points --

TEST(FleetProcedureTest, TenantScoreAndStatsWithReset)
{
    const FleetFixture& f = Fixture();
    FleetConfig config;
    FleetService service(f.profile, config);
    service.RegisterModel("m", f.ensemble, f.stats);
    service.Start();

    Database db;
    ScoringPipeline pipeline(db, f.profile, ExternalRuntimeParams{});
    QueryEngine sql(db, pipeline);
    RegisterFleetProcedures(sql, service);

    QueryResult tenant = sql.Execute(
        "EXEC sp_fleet_tenant @tenant = 42, @model = 'm', "
        "@class = 'gold'");
    ASSERT_EQ(tenant.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(tenant.rows[0][2]), "gold");
    EXPECT_THROW(
        sql.Execute("EXEC sp_fleet_tenant @tenant = 43, @model = 'm', "
                    "@class = 'platinum'"),
        InvalidArgument);

    QueryResult score = sql.Execute(
        "EXEC sp_fleet_score @tenant = 42, @rows = 500");
    ASSERT_EQ(score.rows.size(), 1u);
    EXPECT_EQ(std::get<std::string>(score.rows[0][0]), "completed");
    EXPECT_GT(score.modeled_time.seconds(), 0.0);

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

    // Snapshot-then-reset: the reset call reports the ended phase...
    QueryResult stats = sql.Execute("EXEC sp_fleet_stats @reset = 1");
    EXPECT_EQ(metric(stats, "gold_completed"), 1.0);
    EXPECT_NE(stats.message.find("counters reset"), std::string::npos);
    // ...and the next phase starts from zero (registry state, a
    // current fact rather than history, survives).
    QueryResult fresh = sql.Execute("EXEC sp_fleet_stats");
    EXPECT_EQ(metric(fresh, "gold_completed"), 0.0);
    EXPECT_EQ(metric(fresh, "registry_resident"), 1.0);
    service.Stop();
}

}  // namespace
}  // namespace dbscore::fleet
