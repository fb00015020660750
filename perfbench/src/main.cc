/**
 * @file
 * perfbench: the dbscore benchmark binary.
 *
 *   perfbench --workload <paged_mix|serve_ladder>
 *             --seed <n> --seconds <s> --trace <0|1> --scratch <dir>
 *             [--git-sha <sha>] [--source-sha <sha256>]
 *
 * Prints one run-record line ("record: {...}": provenance, accounting
 * and every metric) and, last, the result object: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. Exits 1
 * when an output was wrong, 2 on bad arguments or a run error.
 */
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <set>
#include <string>

#include "dbscore/trace/trace.h"
#include "harness.h"
#include "workloads.h"

namespace {

using perfbench::JsonObject;
using perfbench::JsonNumber;
using perfbench::JsonString;

bool
ParseArgs(int argc, char** argv, perfbench::Options& options)
{
    bool have_trace = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload") {
                options.workload = value;
            } else if (key == "--seed") {
                options.seed = std::stoull(value);
            } else if (key == "--seconds") {
                options.seconds = std::stoi(value);
            } else if (key == "--trace") {
                if (value != "0" && value != "1") {
                    return false;
                }
                options.trace = value == "1";
                have_trace = true;
            } else if (key == "--scratch") {
                options.scratch = value;
            } else if (key == "--git-sha") {
                options.git_sha = value;
            } else if (key == "--source-sha") {
                options.source_sha = value;
            } else {
                return false;
            }
        } catch (const std::exception&) {
            return false;
        }
    }
    return argc % 2 == 1 && have_trace && !options.workload.empty() &&
           options.seconds >= 1 && options.seconds <= 60 &&
           !options.scratch.empty();
}

std::string
RenderMetrics(const std::map<std::string, double>& values,
              const std::vector<perfbench::MetricDef>& defs)
{
    JsonObject metrics;
    for (const perfbench::MetricDef& def : defs) {
        JsonObject m;
        m.Num("value", values.at(def.name)).Str("unit", def.unit);
        metrics.Obj(def.name, m);
    }
    return metrics.Render();
}

/** Every value must be a catalogued name; returns false otherwise. */
bool
Catalogued(const std::map<std::string, double>& values,
           const std::vector<perfbench::MetricDef>& defs)
{
    std::set<std::string> names;
    for (const perfbench::MetricDef& def : defs) {
        names.insert(def.name);
    }
    for (const auto& [name, value] : values) {
        if (names.count(name) == 0) {
            std::cerr << "perfbench: uncatalogued metric " << name << "\n";
            return false;
        }
    }
    return true;
}

}  // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    if (!ParseArgs(argc, argv, options)) {
        std::cerr << "usage: perfbench --workload <name> --seed <n> "
                     "--seconds <1..60> --trace <0|1> --scratch <dir> "
                     "[--git-sha <sha>] [--source-sha <sha>]\n";
        return 2;
    }

    perfbench::Outcome outcome;
    std::error_code ec;
    std::filesystem::remove_all(options.scratch, ec);
    std::filesystem::create_directories(options.scratch);
    try {
        if (options.workload == "paged_mix") {
            outcome = perfbench::RunPagedMix(options);
        } else if (options.workload == "serve_ladder") {
            outcome = perfbench::RunServeLadder(options);
        } else {
            std::cerr << "perfbench: unknown workload '" << options.workload
                      << "'\n";
            std::filesystem::remove_all(options.scratch, ec);
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: run failed: " << e.what() << "\n";
        std::filesystem::remove_all(options.scratch, ec);
        return 2;
    }
    std::filesystem::remove_all(options.scratch, ec);

    outcome.end_to_end["peak_rss_mb"] = perfbench::PeakRssMb();
    if (options.trace) {
        outcome.per_layer["trace.dropped"] = static_cast<double>(
            dbscore::trace::TraceCollector::Get().TotalDropped());
        for (const perfbench::MetricDef& def : perfbench::kPerLayer) {
            outcome.per_layer.emplace(def.name, 0.0);
        }
    }
    if (!Catalogued(outcome.end_to_end, perfbench::kEndToEnd) ||
        !Catalogued(outcome.per_layer, perfbench::kPerLayer)) {
        return 2;
    }
    const auto& shown = options.trace ? perfbench::kPerLayer
                                      : perfbench::kEndToEnd;
    const auto& values =
        options.trace ? outcome.per_layer : outcome.end_to_end;
    for (const perfbench::MetricDef& def : shown) {
        if (values.count(def.name) == 0) {
            std::cerr << "perfbench: workload did not report " << def.name
                      << "\n";
            return 2;
        }
    }

    const bool correct = outcome.wrong.empty();
    for (const std::string& w : outcome.wrong) {
        std::cerr << "perfbench: WRONG: " << w << "\n";
    }
    std::string wrong_list = "[";
    for (std::size_t i = 0; i < outcome.wrong.size(); ++i) {
        wrong_list += (i > 0 ? ", " : "") + JsonString(outcome.wrong[i]);
    }
    wrong_list += "]";

    JsonObject record;
    record.Str("workload", options.workload)
        .Num("seed", static_cast<double>(options.seed))
        .Num("seconds", options.seconds)
        .Num("trace", options.trace ? 1 : 0)
        .Obj("provenance", perfbench::Provenance(options))
        .Obj("workload_record", outcome.record)
        .Raw("wrong", wrong_list)
        .Raw("metrics", RenderMetrics(values, shown));
    std::cout << "record: " << record.Render() << "\n";

    JsonObject result;
    result.Raw("correct", correct ? "true" : "false")
        .Raw("attempted", std::to_string(outcome.attempted))
        .Raw("failed", std::to_string(outcome.failed))
        .Raw("metrics", RenderMetrics(values, shown));
    std::cout << result.Render() << std::endl;
    return correct ? 0 : 1;
}
