#include "dbscore/serve/service_stats.h"

#include <sstream>

#include "dbscore/common/error.h"
#include "dbscore/common/string_util.h"

namespace dbscore::serve {

DistSummary
Summarize(const RunningStats& stats, const QuantileSketch& sketch)
{
    DistSummary s;
    s.count = stats.count();
    if (s.count == 0) {
        return s;
    }
    s.mean = stats.mean();
    s.max = stats.max();
    s.p50 = sketch.Quantile(0.50);
    s.p95 = sketch.Quantile(0.95);
    s.p99 = sketch.Quantile(0.99);
    return s;
}

double
ClassSnapshot::MissRate() const
{
    return completed == 0 ? 0.0
                          : static_cast<double>(deadline_misses) /
                                static_cast<double>(completed);
}

std::size_t
ClassSnapshot::Goodput() const
{
    return completed - deadline_misses;
}

SimTime
AccountingSnapshot::Makespan() const
{
    if (last_finish <= first_arrival) {
        return SimTime();
    }
    return last_finish - first_arrival;
}

double
ServiceSnapshot::ThroughputRps() const
{
    SimTime span = Makespan();
    if (span.is_zero()) {
        return 0.0;
    }
    return static_cast<double>(completed) / span.seconds();
}

double
ServiceSnapshot::RowThroughput() const
{
    SimTime span = Makespan();
    if (span.is_zero()) {
        return 0.0;
    }
    std::size_t rows = 0;
    for (const DispatchCounters& d : devices) {
        rows += d.rows;
    }
    return static_cast<double>(rows) / span.seconds();
}

std::string
ServiceSnapshot::ToString() const
{
    std::ostringstream os;
    os << StrFormat(
        "requests: %zu submitted, %zu admitted, %zu completed, "
        "%zu rejected, %zu expired, %zu failed\n",
        submitted, admitted, completed, rejected, expired, failed);
    if (fault_attempts + retries + fallback_batches + breaker_opens > 0) {
        os << StrFormat(
            "faults:   %zu faulted attempts, %zu retries, "
            "%zu fallback batches, %zu breaker opens, "
            "%zu degraded completions, wasted ",
            fault_attempts, retries, fallback_batches, breaker_opens,
            degraded)
           << fault_wasted << ", backoff " << retry_backoff << "\n";
    }
    os << StrFormat(
        "batches:  %zu dispatched, mean %.1f requests / %.0f rows, "
        "p95 %.0f requests\n",
        batches, batch_requests.mean, batch_rows.mean, batch_requests.p95);
    os << "latency:  p50 " << SimTime::Seconds(latency.p50)
       << ", p95 " << SimTime::Seconds(latency.p95)
       << ", p99 " << SimTime::Seconds(latency.p99)
       << ", max " << SimTime::Seconds(latency.max) << "\n";
    os << StrFormat(
        "load:     %.1f req/s, %.3g rows/s over makespan ",
        ThroughputRps(), RowThroughput())
       << Makespan() << "\n";
    static const char* kDeviceNames[3] = {"CPU ", "GPU ", "FPGA"};
    for (int d = 0; d < 3; ++d) {
        if (devices[d].dispatches + devices[d].faults > 0) {
            os << kDeviceNames[d] << ":     " << devices[d].ToString()
               << "\n";
        }
    }
    return os.str();
}

ServiceStats::ServiceStats(std::size_t num_classes) : classes_(num_classes)
{
}

void
ServiceStats::TouchSpanLocked(SimTime arrival, SimTime finish)
{
    if (!any_arrival_ || arrival < first_arrival_) {
        first_arrival_ = arrival;
        any_arrival_ = true;
    }
    last_finish_ = Max(last_finish_, finish);
}

void
ServiceStats::RecordSubmitted(std::size_t cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[cls].counts.submitted;
}

void
ServiceStats::RecordAdmitted(std::size_t cls)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[cls].counts.admitted;
}

void
ServiceStats::RecordRejected(std::size_t cls, bool quota)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassSnapshot& c = classes_[cls].counts;
    ++c.rejected;
    if (quota) {
        ++c.rejected_quota;
    }
}

void
ServiceStats::RecordExpired(std::size_t cls, SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[cls].counts.expired;
    TouchSpanLocked(arrival, finish);
}

void
ServiceStats::RecordFailed(std::size_t cls, SimTime arrival, SimTime finish)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ++classes_[cls].counts.failed;
    TouchSpanLocked(arrival, finish);
}

void
ServiceStats::RecordCompleted(std::size_t cls, SimTime arrival,
                              SimTime finish, SimTime latency,
                              bool degraded, bool deadline_miss)
{
    std::lock_guard<std::mutex> lock(mutex_);
    ClassAccum& accum = classes_[cls];
    ++accum.counts.completed;
    if (degraded) {
        ++accum.counts.degraded;
    }
    if (deadline_miss) {
        ++accum.counts.deadline_misses;
    }
    accum.latency_stats.Add(latency.seconds());
    accum.latency_sketch.Add(latency.seconds());
    TouchSpanLocked(arrival, finish);
}

void
ServiceStats::RecordBatch(std::size_t num_requests, std::size_t num_rows)
{
    std::lock_guard<std::mutex> lock(mutex_);
    batch_request_stats_.Add(static_cast<double>(num_requests));
    batch_request_sketch_.Add(static_cast<double>(num_requests));
    batch_row_stats_.Add(static_cast<double>(num_rows));
    batch_row_sketch_.Add(static_cast<double>(num_rows));
}

void
ServiceStats::Snapshot(std::span<ClassSnapshot> classes,
                       AccountingSnapshot& snap) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    DBS_ASSERT(classes.size() == classes_.size());
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        classes[c] = classes_[c].counts;
        classes[c].latency =
            Summarize(classes_[c].latency_stats, classes_[c].latency_sketch);
    }
    snap.batch_requests =
        Summarize(batch_request_stats_, batch_request_sketch_);
    snap.batch_rows = Summarize(batch_row_stats_, batch_row_sketch_);
    snap.first_arrival = first_arrival_;
    snap.last_finish = last_finish_;
}

void
ServiceStats::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (ClassAccum& accum : classes_) {
        accum = ClassAccum();
    }
    batch_request_stats_ = RunningStats();
    batch_request_sketch_ = QuantileSketch();
    batch_row_stats_ = RunningStats();
    batch_row_sketch_ = QuantileSketch();
    any_arrival_ = false;
    first_arrival_ = SimTime();
    last_finish_ = SimTime();
}

}  // namespace dbscore::serve
