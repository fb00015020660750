/**
 * @file
 * Multi-tenant fleet serving: registry + SLO scheduling + autoscaling.
 *
 * FleetService is the layer above ScoringService's single-tenant
 * front door: thousands of tenants, each bound to a model and an SLO
 * class, share three simulated devices. The pieces:
 *
 *  - **ModelRegistry** keeps hot models' kernels warm under a byte
 *    budget; a request for an evicted model pays the modeled rebuild
 *    (the paper's model-deserialization overhead, amortized only as
 *    well as the cache lets it be).
 *  - **Admission** charges each tenant's token bucket (per-class
 *    quota) and bounds the central queue; rejects are immediate
 *    backpressure, split by cause (quota vs capacity).
 *  - **Weighted fair queueing** orders the central backlog so gold
 *    outruns bronze under overload without starving it.
 *  - **Placement** picks the earliest-finishing device lane from each
 *    model's per-backend estimates, skipping open breakers. Dispatch
 *    itself — retry with backoff, breaker transitions, CPU
 *    degradation — runs in the serve::DispatchCore that ScoringService
 *    uses too.
 *  - **Autoscaling** grows and shrinks each device's modeled lane
 *    pool from queue-depth and deadline-miss signals.
 *
 * Concurrency vs. time follows the house rule: machinery real (one
 * scheduler thread, one worker thread per device class, real CVs),
 * latencies modeled (SimTime lane horizons), results machine-
 * independent. Predictions are always computed through the registry's
 * cached kernel, so a reply is bit-identical whether it was served
 * warm, re-warmed after eviction, or degraded to the CPU path.
 */
#ifndef DBSCORE_FLEET_FLEET_SERVICE_H
#define DBSCORE_FLEET_FLEET_SERVICE_H

#include <array>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "dbscore/common/thread_pool.h"
#include "dbscore/core/scheduler.h"
#include "dbscore/dbms/external_runtime.h"
#include "dbscore/fleet/autoscaler.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/fleet/wfq.h"
#include "dbscore/serve/dispatch_core.h"
#include "dbscore/serve/request.h"
#include "dbscore/serve/scoring_service.h"
#include "dbscore/serve/service_stats.h"

namespace dbscore::fleet {

/** Fleet configuration. */
struct FleetConfig {
    RegistryConfig registry;
    /** Per-class SLO ladder; defaults to DefaultSloPolicy. */
    std::array<SloPolicy, kNumSloClasses> slo = {
        DefaultSloPolicy(SloClass::kGold),
        DefaultSloPolicy(SloClass::kSilver),
        DefaultSloPolicy(SloClass::kBronze),
    };
    AutoscalerConfig autoscaler;
    serve::RetryPolicy retry;
    serve::BreakerPolicy breaker;
    /** Stage costs of each device worker's external runtime. */
    ExternalRuntimeParams runtime_params;
    /** Central WFQ capacity; past it admissions reject (capacity). */
    std::size_t queue_capacity = 4096;
    /** Modeled lanes each device starts with. */
    std::size_t initial_lanes = 2;
    /**
     * Dispatch window: a device accepts up to lanes × this many
     * undispatched requests. The bound is what lets a WFQ backlog
     * form centrally (where class weights matter) instead of FIFO
     * piling up on devices (where they no longer do).
     */
    double window_per_lane = 2.0;
    /** Degrade to CPU after exhausted accelerator retries. */
    bool cpu_fallback = true;
    /**
     * Start with dispatch gated: requests admit and queue but nothing
     * dispatches until ReleaseDispatch(). Lets benches and tests load
     * the weighted fair queue to a known backlog first, making the
     * gold/bronze differentiation deterministic.
     */
    bool hold_dispatch = false;
};

using serve::ClassSnapshot;

/** One device's dispatch accounting, autoscaler activity included. */
using FleetDeviceSnapshot = serve::DispatchCounters;

/**
 * A consistent copy of every fleet counter at one instant: one
 * ClassSnapshot per SLO class, plus the registry and the live tenant
 * and model counts.
 */
struct FleetSnapshot : serve::AccountingSnapshot {
    std::array<ClassSnapshot, kNumSloClasses> classes;
    RegistrySnapshot registry;

    std::size_t tenants = 0;
    std::size_t models = 0;

    std::size_t Submitted() const;
    std::size_t Completed() const;
    /** Completed-within-deadline per modeled second over the makespan. */
    double GoodputRps() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

/** One tenant-scoped scoring request. */
struct FleetRequest {
    std::uint64_t tenant_id = 0;
    /** Modeled batch size (used for costing even when rows is empty). */
    std::size_t num_rows = 1;
    /**
     * Optional row-major payload (num_rows × the model's columns).
     * When present, the reply carries functional predictions.
     */
    std::vector<float> rows;
    /** Modeled arrival; unset = stamped with the fleet clock. */
    std::optional<SimTime> arrival;
};

/** Terminal reply for one fleet request. */
struct FleetReply {
    serve::RequestStatus status = serve::RequestStatus::kRejected;
    SloClass slo = SloClass::kBronze;
    /** Device that produced the answer (valid when completed). */
    DeviceClass device = DeviceClass::kCpu;
    BackendKind backend = BackendKind::kCpuSklearn;
    /** Served by the CPU degradation path after accelerator faults. */
    bool degraded = false;
    /** Completed, but after the class deadline. */
    bool deadline_miss = false;
    /** The dispatch that answered re-built an evicted/cold model. */
    bool registry_miss = false;
    std::size_t attempts = 0;
    SimTime arrival;
    SimTime finish;
    std::vector<float> predictions;
    std::string error;

    SimTime Latency() const { return finish - arrival; }
};

/** The multi-tenant fleet front door; see file comment. */
class FleetService {
 public:
    FleetService(const HardwareProfile& profile, FleetConfig config);
    ~FleetService();

    FleetService(const FleetService&) = delete;
    FleetService& operator=(const FleetService&) = delete;

    /**
     * Registers a model spec with the registry (cheap; nothing is
     * compiled until a request needs it). Callable any time.
     */
    void RegisterModel(const std::string& id, const TreeEnsemble& model,
                       const ModelStats& stats);

    /**
     * Binds @p tenant_id to @p model_id with service class @p cls.
     * Callable any time. @throws NotFound on an unknown model,
     * InvalidArgument on a duplicate tenant.
     */
    void RegisterTenant(std::uint64_t tenant_id, const std::string& model_id,
                        SloClass cls);

    std::size_t NumTenants() const;

    /**
     * Replaces one class's SLO policy. Must precede Start(). Tenants
     * already registered keep the token bucket built from the policy
     * that was current at their RegisterTenant call; register tenants
     * after their class policy is final (or set it via FleetConfig).
     */
    void SetSloPolicy(SloClass cls, const SloPolicy& policy);

    /** Launches the scheduler and device worker threads. */
    void Start();

    /** Drains in-flight work, then stops every thread. Idempotent. */
    void Stop();

    /** Blocks until every submitted request reached a terminal state. */
    void Drain();

    bool running() const;

    /**
     * Opens the dispatch gate (no-op unless config.hold_dispatch).
     * Admission is never gated — only dispatch.
     */
    void ReleaseDispatch();

    /**
     * Submits one request; the future resolves at its terminal state.
     * Unknown tenants, quota breaches, and a full central queue
     * reject immediately. Thread-safe.
     */
    std::future<FleetReply> Submit(FleetRequest request);

    /** Submit + wait convenience. */
    FleetReply ScoreSync(FleetRequest request);

    /** Metrics snapshot (counters + registry), callable while running. */
    FleetSnapshot Stats() const;

    /** Zeroes counters for a fresh measurement phase. */
    void ResetStats();

    /** Evicts every resident model (tests: force the re-warm tax). */
    void EvictAllModels();

    const ModelRegistry& registry() const { return registry_; }
    const FleetConfig& config() const { return config_; }
    std::uint32_t trace_domain() const { return trace_domain_; }

 private:
    struct Pending {
        FleetRequest request;
        SloClass cls = SloClass::kBronze;
        std::uint32_t model_idx = 0;
        SimTime arrival;
        trace::SpanContext trace;
        std::promise<FleetReply> promise;
    };
    using PendingPtr = std::unique_ptr<Pending>;

    /** A placed request waiting on one device's queue. */
    struct DeviceWork {
        PendingPtr pending;
        WarmModelPtr model;
        /** Earliest modeled dispatch (arrival + any registry build). */
        SimTime ready;
        bool registry_miss = false;
        /**
         * Device, lane, modeled start and first-attempt costs fixed by
         * the scheduler at dispatch time. Charging the lane horizon
         * up front keeps modeled placement (and thus latencies)
         * independent of how fast real worker threads drain queues;
         * the core only tops the lane up when faults stretch the
         * actual finish past the reservation.
         */
        serve::DispatchTicket ticket;
    };

    /**
     * The fleet's side of one device, guarded by the core device's
     * mutex: its work queue, dispatch window and autoscaler samples.
     */
    struct DeviceQueue {
        std::deque<DeviceWork> queue;
        /** In-flight dispatches (popped, not yet settled). */
        std::size_t inflight = 0;
        /** Autoscaler sampling window. */
        std::size_t window_completions = 0;
        std::size_t window_deadline_misses = 0;
        SimTime last_scale_change;
    };

    void SchedulerLoop();
    void WorkerLoop(std::size_t device);
    void ExecuteOne(DeviceWork work);
    void MaybeAutoscale(SimTime now, std::size_t central_backlog);
    /** Whether @p device's dispatch window has room. Caller holds its mutex. */
    bool HasRoomLocked(std::size_t device);
    /**
     * Settles @p p with its terminal @p reply: class stats, the
     * request span, the promise, and the count Drain() waits on.
     */
    void Finish(Pending& p, FleetReply reply);

    HardwareProfile profile_;
    FleetConfig config_;
    /** Device lanes, breakers and the fault-attempt loop. */
    serve::DispatchCore core_;
    std::uint32_t trace_domain_;
    ModelRegistry registry_;
    /** Request accounting, one traffic class per SLO class. */
    serve::ServiceStats stats_;

    /** Compact per-tenant record; sized for 10^6-tenant fleets. */
    struct TenantState {
        std::uint32_t model_idx = 0;
        SloClass cls = SloClass::kBronze;
        TokenBucket bucket;
    };

    mutable std::mutex admission_mutex_;
    std::condition_variable scheduler_cv_;
    /** Built at Start() so SetSloPolicy weights take effect. */
    std::unique_ptr<WeightedFairQueue<PendingPtr>> wfq_;
    std::unordered_map<std::uint64_t, TenantState> tenants_;
    std::vector<std::string> model_ids_;
    std::unordered_map<std::string, std::uint32_t> model_index_;
    bool running_ = false;
    bool stop_requested_ = false;
    bool dispatch_held_ = false;
    /** Fleet modeled clock: max arrival stamped so far. */
    SimTime modeled_clock_;
    std::size_t submitted_ = 0;

    mutable std::mutex settle_mutex_;
    std::condition_variable settle_cv_;
    std::size_t settled_ = 0;

    std::array<DeviceQueue, serve::DispatchCore::kNumDevices> queues_;
    std::unique_ptr<ThreadPool> threads_;
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_SERVICE_H
