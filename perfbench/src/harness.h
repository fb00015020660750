/**
 * @file
 * Shared plumbing for the workloads: run options, seeded input streams,
 * the benchmark's own span log, metric collection and the JSON output.
 */
#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "dbscore/common/rng.h"
#include "stats.h"

namespace dbscore {
class ForestKernel;
}

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
MsBetween(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from).count();
}

inline double
MsSince(Clock::time_point from)
{
    return MsBetween(from, Clock::now());
}

/** Command-line options of one run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    int seconds = 10;
    /** Per-layer run: the benchmark's spans and layer probes on. */
    bool trace = false;
    /** Directory for page files; created and removed by the run. */
    std::string scratch;
    /** Provenance strings handed in by the launcher. */
    std::string git_sha;
    std::string source_sha;
};

/** Integer in [lo, hi] with log(value) uniform, drawn from @p rng. */
std::uint64_t LogUniform(dbscore::Rng& rng, std::uint64_t lo, std::uint64_t hi);

/** Seed for one input stream of a run (data, model, order, ...). */
std::uint64_t StreamSeed(std::uint64_t run_seed, std::uint64_t stream);

/**
 * Spans the benchmark records around its own calls into each layer.
 * Single-threaded; disabled spans read no clock and store nothing.
 */
class SpanLog {
 public:
    struct Span {
        std::string name;
        double begin_ms = 0.0;
        double end_ms = 0.0;
        int parent = -1;

        double ms() const { return end_ms - begin_ms; }
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    bool enabled() const { return enabled_; }
    /** Opens a span under the innermost open one; returns its id or -1. */
    int Begin(const std::string& name);
    void End(int id);

    const std::vector<Span>& spans() const { return spans_; }
    /** Durations of every span called @p name, ms. */
    std::vector<double> Durations(const std::string& name) const;
    /** Self time (SelfTime) of every span called @p name, ms. */
    std::vector<double> SelfTimes(const std::string& name) const;

 private:
    bool enabled_;
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII wrapper over SpanLog::Begin/End. */
class ScopedSpan {
 public:
    ScopedSpan(SpanLog& log, const std::string& name)
        : log_(log), id_(log.Begin(name))
    {
    }
    ~ScopedSpan() { log_.End(id_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
    SpanLog& log_;
    int id_;
};

/** One metric of BENCHMARK.json: name, unit and which way is better. */
struct MetricDef {
    const char* name;
    const char* unit;
    const char* better;
};

/** The end-to-end metrics, reported by every workload's measured run. */
extern const std::vector<MetricDef> kEndToEnd;
/**
 * The per-layer metrics, reported by every workload's traced run; a
 * layer the workload does not cross reads 0.
 */
extern const std::vector<MetricDef> kPerLayer;

/** Minimal JSON rendering helpers. */
std::string JsonString(const std::string& s);
std::string JsonNumber(double v);

/** An insertion-ordered JSON object of pre-rendered values. */
class JsonObject {
 public:
    JsonObject& Raw(const std::string& key, std::string rendered);
    JsonObject& Str(const std::string& key, const std::string& v)
    {
        return Raw(key, JsonString(v));
    }
    JsonObject& Num(const std::string& key, double v)
    {
        return Raw(key, JsonNumber(v));
    }
    JsonObject& Obj(const std::string& key, const JsonObject& v)
    {
        return Raw(key, v.Render());
    }
    std::string Render() const;

 private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** What one workload run produced. */
struct Outcome {
    std::uint64_t attempted = 0;
    /** Errors and wrong results (load shed by the program is not here). */
    std::uint64_t failed = 0;
    /** One line per wrong result; any entry makes the run incorrect. */
    std::vector<std::string> wrong;
    /** Values by MetricDef name (kEndToEnd / kPerLayer). */
    std::map<std::string, double> end_to_end;
    std::map<std::string, double> per_layer;
    /** Workload accounting and provenance for the run record. */
    JsonObject record;

    void Wrong(const std::string& what);
};

/** A JSON array of @p items. */
std::string JsonArray(const std::vector<JsonObject>& items);

/** {"0": v0, "1": v1, ...} for a list of samples. */
JsonObject SampleList(const std::vector<double>& samples);

/** The autotuner's pick for @p kernel (tuned_lane_rows, ...). */
JsonObject AutotunePick(const dbscore::ForestKernel& kernel);

/** User + system CPU time of this process, ms. */
double ProcessCpuMs();
/**
 * Peak resident set size of this process since the last ResetPeakRss(),
 * MB (VmHWM; ru_maxrss where /proc is missing).
 */
double PeakRssMb();
/**
 * Resets the peak to the current resident set, so that peak_rss_mb
 * leaves out the input synthesis before it. Returns the peak before
 * the reset, or -1 when the kernel does not allow the reset.
 */
double ResetPeakRss();
/** CPU brand string (CPUID where available). */
std::string CpuModel();

/**
 * Provenance every record carries: launcher-supplied SHAs, compiler and
 * flags, the kernel's SIMD backend, nproc and the CPU model.
 */
JsonObject Provenance(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H
