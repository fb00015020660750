/**
 * @file
 * Fleet-wide serving metrics, sliced per SLO class and per device.
 *
 * Mirrors serve::ServiceStats but answers the fleet questions: did
 * gold's tail stay ahead of bronze's under overload (per-class latency
 * and deadline-miss counters), how often did the registry re-pay model
 * builds, and what did the autoscaler do. Thread-safe accumulator;
 * Snapshot() is a consistent copy under one lock; Reset() rebaselines
 * for per-phase measurements.
 */
#ifndef DBSCORE_FLEET_FLEET_STATS_H
#define DBSCORE_FLEET_FLEET_STATS_H

#include <array>
#include <cstddef>
#include <mutex>
#include <string>

#include "dbscore/common/stats.h"
#include "dbscore/engines/scoring_engine.h"
#include "dbscore/fleet/model_registry.h"
#include "dbscore/fleet/slo.h"
#include "dbscore/serve/service_stats.h"

namespace dbscore::fleet {

/** One SLO class's terminal-state and latency accounting. */
struct ClassSnapshot {
    std::size_t submitted = 0;
    std::size_t admitted = 0;
    /** Rejections split by cause. */
    std::size_t rejected_quota = 0;
    std::size_t rejected_capacity = 0;
    std::size_t completed = 0;
    std::size_t expired = 0;
    std::size_t failed = 0;
    /** Completed answers produced by the CPU degradation path. */
    std::size_t degraded = 0;
    /** Completed answers that finished past the class deadline. */
    std::size_t deadline_misses = 0;
    /** End-to-end modeled latency of completed requests, seconds. */
    serve::DistSummary latency;

    /** Deadline misses over completed answers (0 when none). */
    double MissRate() const;
    /** Completed strictly within deadline (the bench's goodput). */
    std::size_t Goodput() const;
};

/**
 * One device's dispatch accounting: the serve::DispatchCore's counters
 * (dispatches, faults, retries, fallbacks, breaker, lanes) plus the
 * autoscaler's activity.
 */
struct FleetDeviceSnapshot : serve::DispatchCounters {
    std::size_t scale_ups = 0;
    std::size_t scale_downs = 0;
};

/** A consistent copy of every fleet counter at one instant. */
struct FleetSnapshot {
    std::array<ClassSnapshot, kNumSloClasses> classes;
    /** Indexed by DeviceClass (kCpu, kGpu, kFpga). */
    std::array<FleetDeviceSnapshot, 3> devices;
    RegistrySnapshot registry;

    std::size_t tenants = 0;
    std::size_t models = 0;

    /** Earliest arrival and latest completion seen (modeled). */
    SimTime first_arrival;
    SimTime last_finish;

    std::size_t Submitted() const;
    std::size_t Completed() const;
    /** Completed-within-deadline per modeled second over the makespan. */
    double GoodputRps() const;
    SimTime Makespan() const;

    /** Multi-line human-readable rendering. */
    std::string ToString() const;
};

/** Thread-safe accumulator behind FleetSnapshot. */
class FleetStats {
 public:
    void RecordSubmitted(SloClass cls);
    void RecordAdmitted(SloClass cls);
    void RecordRejectedQuota(SloClass cls);
    void RecordRejectedCapacity(SloClass cls);
    void RecordExpired(SloClass cls, SimTime arrival, SimTime finish);
    void RecordFailed(SloClass cls, SimTime arrival, SimTime finish);
    void RecordCompleted(SloClass cls, SimTime arrival, SimTime finish,
                         bool degraded, bool deadline_miss);

    /** One autoscaler decision that changed @p device's lane count. */
    void RecordScale(DeviceClass device, int delta);

    FleetSnapshot Snapshot() const;

    /** Zeroes every counter and distribution. */
    void Reset();

 private:
    struct ClassAccum {
        ClassSnapshot totals;
        RunningStats latency_stats;
        QuantileSketch latency_sketch;
    };

    mutable std::mutex mutex_;
    FleetSnapshot totals_;
    std::array<ClassAccum, kNumSloClasses> classes_;
    bool any_arrival_ = false;

    void TouchSpanLocked(SimTime arrival, SimTime finish);
};

}  // namespace dbscore::fleet

#endif  // DBSCORE_FLEET_FLEET_STATS_H
