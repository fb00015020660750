#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "dbscore/forest/forest_kernel.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s", "lower"},
    {"latency_p50_ms", "ms", "lower"},
    {"latency_tail_ms", "ms", "lower"},
    {"throughput_per_s", "1/s", "higher"},
    {"peak_rss_mb", "MB", "lower"},
};

const std::vector<MetricDef> kPerLayer = {
    {"plan.miss_ms", "ms", "lower"},
    {"plan.hit_ms", "ms", "lower"},
    {"plan.cache_hit_ratio", "ratio", "higher"},
    {"exec.kernel_calls", "count/op", "lower"},
    {"exec.rows_per_call", "rows", "higher"},
    {"exec.residual_ms", "ms", "lower"},
    {"stmt.self_ms", "ms", "lower"},
    {"storage.scan_ms", "ms", "lower"},
    {"storage.scan_mb_per_s", "MB/s", "higher"},
    {"storage.pages_scanned", "count/op", "lower"},
    {"storage.pages_pruned", "count/op", "higher"},
    {"pool.hit_ratio", "ratio", "higher"},
    {"pool.evictions", "count/op", "lower"},
    {"pool.write_backs", "count/op", "lower"},
    {"pager.reads", "count/op", "lower"},
    {"pager.writes", "count/op", "lower"},
    {"pager.syncs", "count/op", "lower"},
    {"pager.checksum_failures", "count", "lower"},
    {"storage.append_ms", "ms", "lower"},
    {"storage.commit_ms", "ms", "lower"},
    {"storage.bytes_written_per_user_byte", "ratio", "lower"},
    {"storage.ingest_rows_per_s", "rows/s", "higher"},
    {"forest.batch_ms", "ms", "lower"},
    {"forest.rows_per_s", "rows/s", "higher"},
    {"forest.chunked_ms", "ms", "lower"},
    {"forest.threshold_skip_ratio", "ratio", "higher"},
    {"forest.build_ms", "ms", "lower"},
    {"pipeline.query_ms", "ms", "lower"},
    {"pipeline.model_load_ms", "ms", "lower"},
    {"pipeline.engine_build_ms", "ms", "lower"},
    {"serve.max_rps_within_slo", "1/s", "higher"},
    {"serve.capacity_per_s", "1/s", "higher"},
    {"serve.submit_us", "us", "lower"},
    {"serve.batch_requests", "count", "higher"},
    {"serve.batch_rows", "rows", "higher"},
    {"serve.kernel_ms", "ms", "lower"},
    {"serve.rejected", "count", "lower"},
    {"serve.expired", "count", "lower"},
    {"serve.failed", "count", "lower"},
    {"registry.hit_ratio", "ratio", "higher"},
    {"registry.rebuilds", "count", "lower"},
    {"registry.evictions", "count", "lower"},
    {"registry.build_wall_ms", "ms", "lower"},
    {"fleet.lanes", "count", "lower"},
    {"fleet.expired", "count", "lower"},
    {"trace.overhead_pct", "%", "lower"},
    {"trace.dropped", "count", "lower"},
    {"proc.cpu_ms_per_op", "ms", "lower"},
    {"gen.late_max_ms", "ms", "lower"},
    {"failed_share", "ratio", "lower"},
};

std::uint64_t
LogUniform(dbscore::Rng& rng, std::uint64_t lo, std::uint64_t hi)
{
    const double l = std::log(static_cast<double>(lo));
    const double h = std::log(static_cast<double>(hi) + 1.0);
    const auto v =
        static_cast<std::uint64_t>(std::exp(l + rng.NextDouble() * (h - l)));
    return std::min(std::max(v, lo), hi);
}

std::uint64_t
StreamSeed(std::uint64_t run_seed, std::uint64_t stream)
{
    return dbscore::Rng(run_seed * 0x100000001b3ULL + stream).Next();
}

int
SpanLog::Begin(const std::string& name)
{
    if (!enabled_) {
        return -1;
    }
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.begin_ms = MsSince(origin_);
    spans_.push_back(std::move(span));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
}

void
SpanLog::End(int id)
{
    if (id < 0) {
        return;
    }
    spans_[static_cast<std::size_t>(id)].end_ms = MsSince(origin_);
    if (!open_.empty() && open_.back() == id) {
        open_.pop_back();
    }
}

std::vector<double>
SpanLog::Durations(const std::string& name) const
{
    std::vector<double> out;
    for (const Span& s : spans_) {
        if (s.name == name) {
            out.push_back(s.ms());
        }
    }
    return out;
}

std::vector<double>
SpanLog::SelfTimes(const std::string& name) const
{
    std::vector<std::vector<Interval>> children(spans_.size());
    for (const Span& s : spans_) {
        if (s.parent >= 0) {
            children[static_cast<std::size_t>(s.parent)].push_back(
                {s.begin_ms, s.end_ms});
        }
    }
    std::vector<double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (spans_[i].name == name) {
            out.push_back(SelfTime({spans_[i].begin_ms, spans_[i].end_ms},
                                   children[i]));
        }
    }
    return out;
}

std::string
JsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
JsonNumber(double v)
{
    if (!std::isfinite(v)) {
        return "null";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

JsonObject&
JsonObject::Raw(const std::string& key, std::string rendered)
{
    fields_.emplace_back(key, std::move(rendered));
    return *this;
}

std::string
JsonObject::Render() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
        if (i > 0) {
            out += ", ";
        }
        out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
}

void
Outcome::Wrong(const std::string& what)
{
    ++failed;
    if (wrong.size() < 20) {
        wrong.push_back(what);
    }
}

std::string
JsonArray(const std::vector<JsonObject>& items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        out += (i > 0 ? ", " : "") + items[i].Render();
    }
    return out + "]";
}

JsonObject
SampleList(const std::vector<double>& samples)
{
    JsonObject o;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        o.Num(std::to_string(i), samples[i]);
    }
    return o;
}

JsonObject
AutotunePick(const dbscore::ForestKernel& kernel)
{
    JsonObject o;
    o.Num("tuned_lane_rows", static_cast<double>(kernel.tuned_lane_rows()))
        .Num("tuned_row_block", static_cast<double>(kernel.tuned_row_block()))
        .Num("tuned_tile_node_budget",
             static_cast<double>(kernel.tuned_tile_node_budget()))
        .Num("simd_groups", static_cast<double>(kernel.simd_groups()))
        .Raw("autotuned", kernel.autotuned() ? "true" : "false");
    return o;
}

double
ProcessCpuMs()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto ms = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) * 1e3 +
               static_cast<double>(tv.tv_usec) / 1e3;
    };
    return ms(usage.ru_utime) + ms(usage.ru_stime);
}

double
PeakRssMb()
{
    std::FILE* f = std::fopen("/proc/self/status", "r");
    if (f != nullptr) {
        char line[256];
        double kib = -1.0;
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::strncmp(line, "VmHWM:", 6) == 0) {
                kib = std::strtod(line + 6, nullptr);
                break;
            }
        }
        std::fclose(f);
        if (kib >= 0.0) {
            return kib / 1024.0;
        }
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double
ResetPeakRss()
{
    const double before = PeakRssMb();
    // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux).
    std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
    if (f == nullptr) {
        return -1.0;
    }
    const bool ok = std::fputs("5", f) >= 0;
    return std::fclose(f) == 0 && ok ? before : -1.0;
}

std::string
CpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const auto first = s.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : s.substr(first);
    }
#endif
    return "unknown";
}

JsonObject
Provenance(const Options& options)
{
    JsonObject p;
    p.Str("git_sha", options.git_sha)
        .Str("source_sha256", options.source_sha)
        .Str("compiler", PERFBENCH_COMPILER)
        .Str("flags", PERFBENCH_FLAGS)
        .Str("simd_backend", dbscore::ForestKernel::SimdBackend())
        .Num("nproc", std::thread::hardware_concurrency())
        .Str("cpu_model", CpuModel());
    return p;
}

}  // namespace perfbench
