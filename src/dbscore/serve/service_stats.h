/**
 * @file
 * Thread-safe request accounting for the serve and fleet front ends.
 *
 * ServiceStats is the one accumulator of request terminal states:
 * per traffic class (one for ScoringService, one per SLO class for
 * FleetService) it counts admissions, rejections, expiries, failures
 * and completions and keeps the end-to-end latency quantiles; the
 * classes share one modeled [first arrival, last finish] span. The
 * snapshots add the per-device dispatch and fault accounting the
 * DispatchCore keeps. Any thread may record; any thread may snapshot
 * while the service runs — the accumulator's part is a consistent
 * copy taken under one lock.
 */
#ifndef DBSCORE_SERVE_SERVICE_STATS_H
#define DBSCORE_SERVE_SERVICE_STATS_H

#include <array>
#include <cstddef>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "dbscore/common/stats.h"
#include "dbscore/serve/dispatch_core.h"

namespace dbscore::serve {

/** Count + moments + tail quantiles of one recorded distribution. */
struct DistSummary {
    std::size_t count = 0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double max = 0.0;
};

/** Summary of one distribution recorded into @p stats and @p sketch. */
DistSummary Summarize(const RunningStats& stats, const QuantileSketch& sketch);

/** One traffic class's terminal-state and latency accounting. */
struct ClassSnapshot {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    /** Rejections of every cause; rejected_quota counts the quota ones. */
    std::size_t rejected = 0;
    std::size_t rejected_quota = 0;
    std::size_t expired = 0;
    std::size_t completed = 0;
    /** Requests that exhausted every permitted retry (kFailed). */
    std::size_t failed = 0;
    /** Completed answers produced by the CPU degradation path. */
    std::size_t degraded = 0;
    /** Completed answers that finished past the class deadline. */
    std::size_t deadline_misses = 0;
    /** End-to-end modeled latency of completed requests, seconds. */
    DistSummary latency;

    /** Rejections for want of capacity (queue full, stopped, invalid). */
    std::size_t RejectedCapacity() const { return rejected - rejected_quota; }
    /** Deadline misses over completed answers (0 when none). */
    double MissRate() const;
    /** Completed strictly within deadline (the fleet bench's goodput). */
    std::size_t Goodput() const;
};

/** What the serve and fleet snapshots share beside their classes. */
struct AccountingSnapshot {
    /** Indexed by DeviceClass (kCpu, kGpu, kFpga); kept by the core. */
    std::array<DispatchCounters, DispatchCore::kNumDevices> devices;
    /**
     * Requests and rows per coalesced batch. Only ScoringService
     * coalesces; the fleet dispatches requests singly and records none.
     */
    DistSummary batch_requests;
    DistSummary batch_rows;
    /** Earliest arrival and latest terminal state seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    /** last_finish - first_arrival; zero before the first terminal state. */
    SimTime Makespan() const;
};

/**
 * Fleet-wide modeled time spent in each pipeline stage. Derived from
 * the trace subsystem (the single source of truth for stage
 * attribution): ScoringService::Stats() sums the simulated durations
 * of the service's per-request stage spans. Only completed requests
 * contribute — expired members emit no share spans.
 */
struct StageTotals {
    SimTime coalesce_delay;
    SimTime queue_wait;
    SimTime invocation;
    SimTime model_preprocessing;
    SimTime transfer;
    SimTime data_preprocessing;
    SimTime scoring;
};

/** ScoringService's snapshot: its one class plus the shared part. */
struct ServiceSnapshot : ClassSnapshot, AccountingSnapshot {
    /** Successful dispatches, summed over devices. */
    std::size_t batches = 0;
    /** Dispatch attempts aborted by an injected fault. */
    std::size_t fault_attempts = 0;
    /** Re-dispatches after a faulted attempt (excludes the first try). */
    std::size_t retries = 0;
    /** Batches re-routed to the CPU engine (fallback or open breaker). */
    std::size_t fallback_batches = 0;
    /** Closed -> open breaker transitions. */
    std::size_t breaker_opens = 0;
    /** Modeled time lost to faulted attempts (partial stage costs). */
    SimTime fault_wasted;
    /** Modeled backoff delay paid before retries. */
    SimTime retry_backoff;

    StageTotals stage_totals;

    /** Completed requests per modeled second over the makespan. */
    double ThroughputRps() const;

    /** Scored rows per modeled second over the makespan. */
    double RowThroughput() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

/** Thread-safe accumulator behind both front ends' snapshots. */
class ServiceStats {
 public:
    /** Traffic classes are indexed [0, @p num_classes). */
    explicit ServiceStats(std::size_t num_classes = 1);

    void RecordSubmitted(std::size_t cls);
    void RecordAdmitted(std::size_t cls);
    /** @p quota: the class's admission quota turned it away. */
    void RecordRejected(std::size_t cls, bool quota);
    void RecordExpired(std::size_t cls, SimTime arrival, SimTime finish);
    /** One request that exhausted every permitted retry. */
    void RecordFailed(std::size_t cls, SimTime arrival, SimTime finish);
    /**
     * One completed request with end-to-end @p latency. @p degraded:
     * answered by the CPU degradation path; @p deadline_miss: finished
     * past its class deadline.
     */
    void RecordCompleted(std::size_t cls, SimTime arrival, SimTime finish,
                         SimTime latency, bool degraded, bool deadline_miss);

    /**
     * Size of one coalesced dispatch. Per-device dispatch and fault
     * counters live in the DispatchCore; the front ends merge them
     * into their snapshots.
     */
    void RecordBatch(std::size_t num_requests, std::size_t num_rows);

    /**
     * One consistent copy under the lock: class c into @p classes[c]
     * (one entry per class), the span and batch shape into @p snap.
     */
    void Snapshot(std::span<ClassSnapshot> classes,
                  AccountingSnapshot& snap) const;

    /**
     * Zeroes every class, the span and the batch shape for a fresh
     * measurement phase. In-flight requests settle into the new
     * phase's counters, so a snapshot taken mid-flight can show
     * completions without admissions.
     */
    void Reset();

 private:
    struct ClassAccum {
        ClassSnapshot counts;
        RunningStats latency_stats;
        QuantileSketch latency_sketch;
    };

    mutable std::mutex mutex_;
    std::vector<ClassAccum> classes_;
    RunningStats batch_request_stats_;
    QuantileSketch batch_request_sketch_;
    RunningStats batch_row_stats_;
    QuantileSketch batch_row_sketch_;
    bool any_arrival_ = false;
    SimTime first_arrival_;
    SimTime last_finish_;

    /** Widens the modeled [first arrival, last finish] span. */
    void TouchSpanLocked(SimTime arrival, SimTime finish);
};

}  // namespace dbscore::serve

#endif  // DBSCORE_SERVE_SERVICE_STATS_H
