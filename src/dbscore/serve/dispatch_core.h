/**
 * @file
 * The dispatch core shared by the serve and fleet front ends.
 *
 * The paper's lesson is that invocation, transfer and the dispatch
 * around the kernel decide whether an accelerator pays. DispatchCore
 * is the one place that dispatch logic lives: per-device state (warm
 * process pool, modeled lane horizons, circuit breaker, jitter
 * sequence, dispatch counters) and the attempt loop that runs one
 * dispatch under injected faults — retry with capped exponential
 * backoff and deterministic jitter, breaker transitions, and graceful
 * degradation to the CPU engine.
 *
 * Each front end keeps admission, coalescing or WFQ/SLO rules, the
 * registry and autoscaler, placement policy, its typed work queues and
 * its reply types. ScoringService dispatches coalesced batches of N
 * members over one lane per device; FleetService dispatches one-member
 * requests over an autoscaled lane pool. Lane and member counts are
 * data: the core never branches on which front end called it. It is a
 * concrete class on the hot path: no virtual interface or
 * std::function, and no heap allocation of its own per dispatch.
 */
#ifndef DBSCORE_SERVE_DISPATCH_CORE_H
#define DBSCORE_SERVE_DISPATCH_CORE_H

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "dbscore/common/sim_time.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/trace/trace.h"

namespace dbscore::serve {

/**
 * Per-dispatch retry policy for attempts lost to injected faults:
 * capped exponential backoff with deterministic jitter. Deadline-aware
 * — a member whose deadline precedes the retry's dispatch time fails
 * instead of riding a retry it could never use.
 */
struct RetryPolicy {
    /**
     * Dispatch attempts permitted per device, first try included.
     * A CPU fallback gets a fresh budget on the CPU device.
     */
    std::size_t max_attempts = 4;
    /** Backoff before the first retry. */
    SimTime initial_backoff = SimTime::Millis(1.0);
    /** Growth factor per additional retry. */
    double backoff_multiplier = 2.0;
    /** Cap on any single backoff (before jitter). */
    SimTime max_backoff = SimTime::Millis(50.0);
    /** Uniform jitter in [0, frac) of the backoff, added to it. */
    double jitter_frac = 0.2;
    /**
     * Seed of the jitter stream. Jitter is a pure function of
     * (seed, device, per-device attempt counter), so a replayed run
     * re-draws identical jitter.
     */
    std::uint64_t jitter_seed = 0x7e57;
};

/** Per-device circuit breaker policy. */
struct BreakerPolicy {
    /** Consecutive dispatch failures that open the breaker. */
    std::size_t failure_threshold = 5;
    /**
     * Modeled cooldown while open: work ready before open-time +
     * cooldown avoids the device; the first dispatch at or after it
     * runs as the half-open probe.
     */
    SimTime open_cooldown = SimTime::Millis(200.0);
};

/**
 * Circuit-breaker state of one device. Closed is healthy;
 * K consecutive dispatch failures open the breaker (placement avoids
 * the device); after a cooldown the next dispatch runs as a half-open
 * probe — success closes the breaker, another fault re-opens it.
 */
enum class BreakerState {
    kClosed,
    kOpen,
    kHalfOpen,
};

const char* BreakerStateName(BreakerState state);

/** Modeled stage costs of one dispatch attempt. */
struct AttemptCosts {
    InvocationCost invocation;
    /** Model deserialization, paid on cold invocations only. */
    SimTime model_pre;
    SimTime transfer_to;
    SimTime transfer_from;
    SimTime data_pre;
    OffloadBreakdown scoring;

    SimTime Transfer() const { return transfer_to + transfer_from; }
    /** Modeled service time of the attempt if it succeeds. */
    SimTime
    Service() const
    {
        return invocation.cost + model_pre + Transfer() + data_pre +
               scoring.Total();
    }
};

/**
 * A scoring-ready model as dispatch sees it: one loaded engine per
 * viable backend for costing, and the functional forest whose kernel
 * is compiled once here, so every dispatch scores through one plan.
 */
struct ServedModel {
    ServedModel(const HardwareProfile& profile, const TreeEnsemble& ensemble,
                const ModelStats& stats);

    RandomForest forest;
    OffloadScheduler scheduler;
    std::size_t num_cols = 0;
    std::uint64_t model_bytes = 0;
    /** Wall-clock kernel-compile cost, milliseconds. */
    double build_wall_ms = 0.0;
};

/**
 * Modeled engine time a faulted offload attempt consumed: every
 * breakdown component completed before the site that failed.
 * @p site_index is the position in OffloadFaultSites(kind) — FPGA
 * crosses {DMA-in, setup, completion, DMA-out}, GPU crosses
 * {DMA-in, launch, DMA-out}.
 */
SimTime FaultedOffloadCost(const OffloadBreakdown& b,
                           DeviceClass device_class, std::size_t site_index);

/**
 * Capped exponential backoff plus deterministic jitter before retry
 * number @p retry_index (1 = first retry): a pure function of
 * (policy, device, the device's attempt sequence number @p seq).
 */
SimTime BackoffDelay(const RetryPolicy& policy, std::size_t device,
                     std::uint64_t seq, std::size_t retry_index);

/**
 * Emits the stage spans of a successful attempt end to end from @p at
 * under @p parent: invocation, model preprocessing, transfer, data
 * preprocessing and scoring, with durations @p stages.
 */
void EmitStageChain(const trace::SpanContext& parent, SimTime at,
                    const std::array<SimTime, 5>& stages);

/**
 * A serve batch member or a fleet request riding one dispatch.
 * Run() fills the failure fields of members that drop out, and skips
 * members that enter it already failed.
 */
struct DispatchMember {
    DispatchMember(std::size_t rows, std::optional<SimTime> deadline_at,
                   const trace::SpanContext& trace)
        : rows(rows), deadline_at(deadline_at), trace(trace)
    {
    }

    std::size_t rows = 0;
    /** Latest modeled dispatch the member can use; unset = none. */
    std::optional<SimTime> deadline_at;
    trace::SpanContext trace;

    bool failed = false;
    SimTime failed_at;
    /** Attempts and degradation as of the failure. */
    std::size_t attempts = 0;
    bool degraded = false;
    const char* error = nullptr;
};

/** Where one dispatch attempt runs, when, and what it costs. */
struct DispatchTicket {
    std::size_t device = 0;
    /** Lane of the device's pool the dispatch occupies. */
    std::size_t lane = 0;
    BackendKind kind = BackendKind::kCpuSklearn;
    SimTime start;
    /** The dispatch left its chosen accelerator for the CPU. */
    bool degraded = false;
    AttemptCosts costs;
};

/** DispatchCore::Run's result: the ticket of the final attempt, plus: */
struct DispatchOutcome : DispatchTicket {
    /** The live members rode a successful attempt. */
    bool completed = false;
    std::size_t attempts = 0;
    /** start + costs.Service() when completed. */
    SimTime finish;
    /** Completed members and their rows. */
    std::size_t members = 0;
    std::size_t rows = 0;
};

/** Per-device dispatch accounting. */
struct DispatchCounters {
    /** Successful dispatches and what they carried. */
    std::size_t dispatches = 0;
    std::size_t requests = 0;
    std::size_t rows = 0;
    std::size_t cold_invocations = 0;
    /** Modeled service time of successful dispatches. */
    SimTime busy;
    /** Attempts lost to injected faults, and their modeled cost. */
    std::size_t faults = 0;
    SimTime fault_wasted;
    /** Re-dispatches after a fault, and the backoff they paid. */
    std::size_t retries = 0;
    SimTime retry_backoff;
    /** Dispatches moved off this device to the CPU engine. */
    std::size_t fallbacks = 0;
    /** Transitions into the open state. */
    std::size_t breaker_opens = 0;
    /** Current device facts, not history: they survive a reset. */
    BreakerState breaker = BreakerState::kClosed;
    std::size_t lanes = 0;

    /** One-line rendering for the front ends' snapshots. */
    std::string ToString() const;
};

/** Per-device dispatch state and the attempt loop; see file comment. */
class DispatchCore {
 public:
    static constexpr std::size_t kNumDevices = 3;
    static constexpr std::size_t kCpu =
        static_cast<std::size_t>(DeviceClass::kCpu);

    /**
     * One device. The front end keeps its work queue beside it,
     * guarded by @c mutex and signalled on @c cv, and may read or
     * resize @c lanes under the mutex; the rest is the core's.
     */
    struct Device {
        std::mutex mutex;
        std::condition_variable cv;
        /** This device's warm-process pool. */
        std::unique_ptr<ExternalScriptRuntime> runtime;
        /** Modeled free-at horizon of each lane. */
        std::vector<SimTime> lanes;
        /** The worker exits once set and its queue is drained. */
        bool stop = false;
        BreakerState breaker = BreakerState::kClosed;
        /** Consecutive faulted attempts since the last success. */
        std::size_t consecutive_failures = 0;
        /** While open: modeled time the half-open probe becomes legal. */
        SimTime breaker_open_until;
        /** Position in this device's deterministic jitter stream. */
        std::uint64_t attempt_seq = 0;
        DispatchCounters counters;
    };

    DispatchCore(const RetryPolicy& retry, const BreakerPolicy& breaker,
                 bool cpu_fallback, const ExternalRuntimeParams& runtime,
                 std::size_t lanes);

    Device& device(std::size_t d) { return devices_[d]; }

    /** @p d's earliest-free lane. Caller holds its mutex. */
    std::size_t EarliestLaneLocked(std::size_t d) const;
    /** @p d's earliest-free lane and its horizon. */
    std::pair<std::size_t, SimTime> EarliestLane(std::size_t d) const;

    /**
     * The placement gate, pure: whether @p d's breaker is open with its
     * cooldown running past @p ready. The CPU is every fallback's
     * target, so its breaker never gates.
     */
    bool Blocked(std::size_t d, SimTime ready) const;
    /**
     * Applied to the device a dispatch actually goes to: an open
     * breaker whose cooldown elapsed by @p ready turns half-open, and
     * this dispatch is its probe.
     */
    void AdmitProbe(std::size_t d, SimTime ready,
                    const trace::SpanContext& parent);
    /** Counts work a blocked @p from re-routes to the CPU. */
    void NoteReroute(std::size_t from, SimTime at,
                     const trace::SpanContext& parent);

    /**
     * Costs one attempt against @p d's runtime: invocation, model
     * preprocessing when cold, both transfers, data preprocessing and
     * the engine estimate — the order that fixes the pool's warm/cold
     * sequence.
     */
    AttemptCosts CostAttempt(std::size_t d, const ServedModel& model,
                             BackendKind kind, std::size_t rows);

    /**
     * Runs one dispatch from @p ticket (its first attempt already
     * costed) until an attempt succeeds or every permitted attempt is
     * spent. A faulted attempt charges its partial cost, may open the
     * breaker, and retries on the same device after backoff — members
     * whose deadline rules out the retry fail first. Exhausted
     * accelerator attempts degrade to the CPU (when enabled) with a
     * fresh budget. Lanes, breakers and counters update as it goes.
     */
    DispatchOutcome Run(const DispatchTicket& ticket,
                        const ServedModel& model,
                        std::span<DispatchMember> members);

    /** Sets every device's stop flag and wakes its worker. */
    void StopWorkers();

    DispatchCounters Counters(std::size_t d) const;
    /** Zeroes the counters; breaker states and lanes survive. */
    void ResetCounters();

 private:
    void OnFault(std::size_t d, SimTime wasted, SimTime now,
                 const trace::SpanContext& parent);

    const RetryPolicy retry_;
    const BreakerPolicy breaker_;
    const bool cpu_fallback_;
    /** Mutable so const queries can take the device locks. */
    mutable std::array<Device, kNumDevices> devices_;
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_DISPATCH_CORE_H
