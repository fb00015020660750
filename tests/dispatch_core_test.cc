/**
 * @file
 * Direct tests for serve::DispatchCore, the dispatch loop ScoringService
 * and FleetService share: the backoff cap, jitter replay, the partial
 * cost a faulted attempt charges at each fault site, and one Run() that
 * drops a deadline-bound member on retry while its batchmate degrades
 * to the CPU and completes.
 */
#include <gtest/gtest.h>

#include <set>
#include <string>

#include "dbscore/data/synthetic.h"
#include "dbscore/fault/fault.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/dispatch_core.h"

namespace dbscore::serve {
namespace {

using fault::FaultPlan;
using fault::FaultSite;
using fault::ScopedFaultPlan;

constexpr std::size_t kGpu = static_cast<std::size_t>(DeviceClass::kGpu);
constexpr std::size_t kFpga = static_cast<std::size_t>(DeviceClass::kFpga);

TEST(DispatchCoreTest, BackoffIsCappedBeforeJitter)
{
    RetryPolicy policy;
    policy.initial_backoff = SimTime::Millis(1.0);
    policy.backoff_multiplier = 2.0;
    policy.max_backoff = SimTime::Millis(5.0);
    policy.jitter_frac = 0.0;
    // 1, 2, 4 ms, then the 8 ms and 16 ms steps clamp to the 5 ms cap.
    EXPECT_EQ(BackoffDelay(policy, kFpga, 0, 1), SimTime::Millis(1.0));
    EXPECT_EQ(BackoffDelay(policy, kFpga, 0, 3), SimTime::Millis(4.0));
    EXPECT_EQ(BackoffDelay(policy, kFpga, 0, 4), SimTime::Millis(5.0));
    EXPECT_EQ(BackoffDelay(policy, kFpga, 0, 5), SimTime::Millis(5.0));

    // Jitter is added on top of the capped value: a deep retry lands in
    // [cap, cap * (1 + frac)), never past it and never below it.
    policy.jitter_frac = 0.5;
    for (std::uint64_t seq = 0; seq < 64; ++seq) {
        const SimTime b = BackoffDelay(policy, kGpu, seq, 10);
        EXPECT_GE(b, SimTime::Millis(5.0));
        EXPECT_LT(b, SimTime::Millis(7.5));
    }
}

TEST(DispatchCoreTest, JitterReplaysPerDeviceAndSequence)
{
    const RetryPolicy policy;  // 20% jitter by default
    std::set<double> draws;
    for (std::size_t device = 0; device < DispatchCore::kNumDevices;
         ++device) {
        for (std::uint64_t seq = 0; seq < 8; ++seq) {
            const SimTime b = BackoffDelay(policy, device, seq, 1);
            // A replay of the same (seed, device, sequence) re-draws
            // the same jitter.
            EXPECT_EQ(b, BackoffDelay(policy, device, seq, 1));
            draws.insert(b.seconds());
        }
    }
    // Every (device, sequence) key draws its own jitter.
    EXPECT_EQ(draws.size(), 3u * 8u);

    RetryPolicy reseeded = policy;
    reseeded.jitter_seed = policy.jitter_seed + 1;
    EXPECT_NE(BackoffDelay(reseeded, kFpga, 0, 1),
              BackoffDelay(policy, kFpga, 0, 1));
}

TEST(DispatchCoreTest, FaultedOffloadCostChargesStagesBeforeTheSite)
{
    // Powers of two, so every partial sum is exact and distinct.
    OffloadBreakdown b;
    b.preprocessing = SimTime::Millis(1.0);
    b.input_transfer = SimTime::Millis(2.0);
    b.setup = SimTime::Millis(4.0);
    b.compute = SimTime::Millis(8.0);
    b.completion_signal = SimTime::Millis(16.0);
    b.result_transfer = SimTime::Millis(32.0);
    b.software_overhead = SimTime::Millis(64.0);  // never charged

    // FPGA sites: DMA-in, setup, completion, DMA-out.
    EXPECT_EQ(OffloadFaultSites(BackendKind::kFpga).size(), 4u);
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kFpga, 0),
              SimTime::Millis(3.0));
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kFpga, 1),
              SimTime::Millis(7.0));
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kFpga, 2),
              SimTime::Millis(31.0));
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kFpga, 3),
              SimTime::Millis(63.0));

    // GPU sites: DMA-in, launch, DMA-out — its third site is the
    // outbound DMA, which follows the full run.
    EXPECT_EQ(OffloadFaultSites(BackendKind::kGpuHummingbird).size(), 3u);
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kGpu, 0),
              SimTime::Millis(3.0));
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kGpu, 1),
              SimTime::Millis(7.0));
    EXPECT_EQ(FaultedOffloadCost(b, DeviceClass::kGpu, 2),
              SimTime::Millis(63.0));
}

TEST(DispatchCoreTest, RetryDropsDeadlineBoundMemberAndDegradesTheRest)
{
    const Dataset data = MakeHiggs(500, 41);
    ForestTrainerConfig trainer;
    trainer.num_trees = 8;
    trainer.max_depth = 6;
    trainer.seed = 41;
    const RandomForest forest = TrainForest(data, trainer);
    const ServedModel model(HardwareProfile::Paper(),
                            TreeEnsemble::FromForest(forest),
                            ComputeModelStats(forest, &data));

    RetryPolicy retry;
    retry.max_attempts = 2;
    BreakerPolicy breaker;
    breaker.failure_threshold = 100;  // keep the breaker closed
    DispatchCore core(retry, breaker, /*cpu_fallback=*/true,
                      ExternalRuntimeParams{}, /*lanes=*/2);

    FaultPlan plan;
    plan.At(FaultSite::kFpgaSetup).every_nth = 1;
    ScopedFaultPlan guard(plan);

    const SimTime start = SimTime::Millis(10.0);
    // Member 0 must dispatch by `start`, so it cannot ride a retry;
    // member 1 has no deadline.
    DispatchMember members[] = {
        DispatchMember(100, start, trace::SpanContext()),
        DispatchMember(60, std::nullopt, trace::SpanContext()),
    };
    DispatchTicket ticket;
    ticket.device = kFpga;
    ticket.lane = 1;
    ticket.kind = BackendKind::kFpga;
    ticket.start = start;
    ticket.costs = core.CostAttempt(kFpga, model, ticket.kind, 160);
    const DispatchOutcome out = core.Run(ticket, model, members);

    // Member 0 failed at the end of the first faulted attempt.
    ASSERT_TRUE(members[0].failed);
    EXPECT_GT(members[0].failed_at, start);
    EXPECT_EQ(members[0].attempts, 1u);
    EXPECT_FALSE(members[0].degraded);
    EXPECT_NE(std::string(members[0].error).find("deadline"),
              std::string::npos);

    // Member 1 retried once on the FPGA, then completed on the CPU.
    EXPECT_FALSE(members[1].failed);
    ASSERT_TRUE(out.completed);
    EXPECT_EQ(out.device, DispatchCore::kCpu);
    EXPECT_TRUE(out.degraded);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.members, 1u);
    EXPECT_EQ(out.rows, 60u);
    EXPECT_EQ(out.finish, out.start + out.costs.Service());

    const DispatchCounters fpga = core.Counters(kFpga);
    EXPECT_EQ(fpga.faults, 2u);
    EXPECT_EQ(fpga.retries, 1u);
    EXPECT_EQ(fpga.fallbacks, 1u);
    EXPECT_EQ(fpga.dispatches, 0u);
    EXPECT_EQ(fpga.breaker, BreakerState::kClosed);
    const DispatchCounters cpu = core.Counters(DispatchCore::kCpu);
    EXPECT_EQ(cpu.dispatches, 1u);
    EXPECT_EQ(cpu.requests, 1u);
    EXPECT_EQ(cpu.rows, 60u);
    EXPECT_EQ(cpu.lanes, 2u);

    // The FPGA lane the dispatch held is charged up to the fallback;
    // the other lane never moved.
    EXPECT_EQ(core.EarliestLane(kFpga).first, 0u);
    EXPECT_EQ(core.EarliestLane(kFpga).second, SimTime());
    EXPECT_EQ(core.device(kFpga).lanes[1], out.start);

    core.ResetCounters();
    EXPECT_EQ(core.Counters(kFpga).faults, 0u);
    EXPECT_EQ(core.Counters(kFpga).lanes, 2u);
}

}  // namespace
}  // namespace dbscore::serve
