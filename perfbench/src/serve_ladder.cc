/**
 * @file
 * serve_ladder: a live ScoringService under an open-loop rate ladder.
 *
 * One generator thread sends requests on a fixed schedule at each
 * rung's rate (250 to 64,000 req/s, doubling); each carries 1-256 rows
 * drawn log-uniform from a payload block, as a zero-copy view. Replies
 * are timed from their due time. A rung meets the limit when its p99
 * is within kLimitMs and nothing was rejected, expired, failed or
 * wrong; a rung whose generator fell behind is invalid and fails.
 *
 * In the traced run, a closed-loop saturation phase after the untraced
 * ladder keeps kInFlight requests outstanding and measures the
 * service's capacity in completions per second.
 */
#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/common/string_util.h"
#include "dbscore/core/calibration.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/kernel_autotune.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "dbscore/serve/scoring_service.h"
#include "open_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dbscore;

/**
 * Offered rates, doubling. The top rung sits above the service's
 * capacity (it sheds load there), so the ladder never caps
 * max_rps_within_slo.
 */
constexpr double kRates[] = {250,  500,  1000,  2000, 4000,
                             8000, 16000, 32000, 64000};
constexpr double kReferenceRate = 1000.0;
constexpr double kLimitMs = 10.0;
/**
 * A rung is invalid when the generator fell behind: more than a tenth
 * of its sends left over this late. (Isolated stalls of a shared
 * machine delay a few sends; they show in latency, not here.)
 */
constexpr double kMaxLateMs = 1.0;
constexpr std::size_t kPayloadRows = 16384;
constexpr std::size_t kMaxRequestRows = 256;
/**
 * Rungs send for max(kMinSends / rate, kMinRungSeconds) seconds, scaled
 * to the run's budget: at a 10 s budget the low rungs send about 1000
 * requests, enough for a p99 with ten samples beyond it.
 */
constexpr double kMinSends = 1000.0;
constexpr double kMinRungSeconds = 0.5;
/** Requests the saturation phase keeps outstanding (admission takes 1024). */
constexpr std::size_t kInFlight = 256;
/** Share of the untraced pass the saturation phase takes. */
constexpr double kSaturationShare = 0.25;

/**
 * Set-ups per run for serve_ladder, whose set-up takes tens of
 * milliseconds; setup_s is the median of all set-ups in a run.
 */
constexpr int kServiceSetups = 9;

struct Inputs {
    RandomForest forest;
    TreeEnsemble ensemble;
    RowBlock payload;
    std::vector<float> reference;  ///< ForestKernel::Predict of payload
};

Inputs
MakeInputs(const Options& options)
{
    Inputs in;
    ForestTrainerConfig trainer;
    trainer.num_trees = 32;
    trainer.max_depth = 8;
    trainer.seed = StreamSeed(options.seed, 3);
    in.forest = TrainForest(MakeHiggs(4000, StreamSeed(options.seed, 4)),
                            trainer);
    in.ensemble = TreeEnsemble::FromForest(in.forest);
    const Dataset rows = MakeHiggs(kPayloadRows, StreamSeed(options.seed, 1));
    in.payload = RowBlock::Copy(rows.Row(0), rows.num_rows(),
                                rows.num_features());
    in.reference = ForestKernel(in.forest).Predict(in.payload.View());
    return in;
}

/** What the collector saw of one request. */
struct Reply {
    serve::RequestStatus status = serve::RequestStatus::kRejected;
    double latency_ms = 0.0;
    double done_ms = 0.0;  ///< reply time from the rung's first due time
    bool right = false;
};

/** One rate's accounting. */
struct Rung {
    LadderStep step;
    std::uint64_t wrong = 0;
    double seconds = 0.0;   ///< scheduled send time
    double span_ms = 0.0;   ///< first due time to last reply
    std::vector<double> latencies;  ///< completed requests only
    std::vector<double> late;       ///< generator lateness per send

    // Summarize() fills these from the samples.
    double p50_ms = 0.0;
    TailValue tail;
    TailValue late_tail;
    double late_max_ms = 0.0;
    /** Completions per second from the first due time to the last reply. */
    double completed_per_s = 0.0;

    void Summarize()
    {
        p50_ms = Median(latencies);
        tail = Tail(latencies, 0.99);
        step.tail_ms = tail.value;
        late_tail = Tail(late, 0.99);
        late_max_ms = late.empty() ? 0.0
                                   : *std::max_element(late.begin(), late.end());
        step.valid = Tail(late, 0.90).value <= kMaxLateMs;
        completed_per_s =
            span_ms > 0.0 ? static_cast<double>(step.completed) / (span_ms / 1e3)
                          : 0.0;
    }
};

/** The closed-loop saturation phase's accounting. */
struct Saturation {
    LadderStep step;
    std::uint64_t wrong = 0;
    double seconds = 0.0;
    double per_s = 0.0;  ///< completions per wall second
};

class Ladder {
 public:
    Ladder(const Inputs& in, Outcome& out) : in_(in), out_(out) {}

    double Setup()
    {
        if (service_ != nullptr) {
            service_->Stop();
            service_.reset();
        }
        AutotuneCacheClear();
        const Clock::time_point start = Clock::now();
        service_ = std::make_unique<serve::ScoringService>(
            HardwareProfile::Paper(), serve::ServiceConfig{});
        service_->RegisterModel(
            "m", in_.ensemble,
            ComputeModelStats(in_.forest, in_.payload.View(0, 2048)));
        service_->Start();
        serve::ScoreRequest warm;
        warm.model_id = "m";
        warm.num_rows = 8;
        warm.rows = in_.payload.View(0, 8);
        const serve::ScoreReply reply = service_->ScoreSync(warm);
        const double seconds = MsSince(start) / 1e3;
        if (reply.status != serve::RequestStatus::kCompleted ||
            !Matches(reply, 0, 8)) {
            out_.Wrong("warm-up request did not score correctly");
        }
        return seconds;
    }

    /** Runs every rung, lowest rate first, within about @p budget s. */
    std::vector<Rung> Run(double budget, Rng& rng, SpanLog& spans)
    {
        double base = 0.0;
        for (double rate : kRates) {
            base += std::max(kMinSends / rate, kMinRungSeconds);
        }
        std::vector<Rung> rungs;
        for (double rate : kRates) {
            const double seconds =
                std::max(kMinSends / rate, kMinRungSeconds) * budget / base;
            rungs.push_back(RunRung(rate, seconds, rng, spans));
            rungs.back().Summarize();
        }
        return rungs;
    }

    /**
     * Closed-loop saturation: keeps kInFlight requests outstanding for
     * @p seconds and counts completions per wall second. The service,
     * not the offered rate, sets this figure.
     */
    Saturation Saturate(double seconds, Rng& rng)
    {
        Saturation sat;
        std::deque<std::pair<serve::PendingScorePtr, std::size_t>> inflight;
        std::vector<std::size_t> sizes;
        std::vector<std::size_t> offsets;
        const Clock::time_point start = Clock::now();
        const auto settle = [&]() {
            auto [handle, i] = std::move(inflight.front());
            inflight.pop_front();
            const serve::ScoreReply& r = handle->Wait();
            switch (r.status) {
              case serve::RequestStatus::kCompleted:
                ++sat.step.completed;
                if (!Matches(r, offsets[i], sizes[i])) {
                    ++sat.wrong;
                }
                break;
              case serve::RequestStatus::kRejected: ++sat.step.rejected; break;
              case serve::RequestStatus::kExpired: ++sat.step.expired; break;
              case serve::RequestStatus::kFailed: ++sat.step.failed; break;
            }
        };
        const Clock::time_point stop =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(seconds));
        while (Clock::now() < stop) {
            const std::size_t i = sizes.size();
            sizes.push_back(LogUniform(rng, 1, kMaxRequestRows));
            offsets.push_back(rng.NextBelow(kPayloadRows - sizes[i] + 1));
            serve::ScoreRequest request;
            request.model_id = "m";
            request.num_rows = sizes[i];
            request.rows =
                in_.payload.View(offsets[i], offsets[i] + sizes[i]);
            if (inflight.size() == kInFlight) {
                settle();
            }
            inflight.emplace_back(service_->Submit(std::move(request)), i);
        }
        while (!inflight.empty()) {
            settle();
        }
        sat.seconds = MsSince(start) / 1e3;
        sat.step.sent = sizes.size();
        sat.step.failed += sat.wrong;
        sat.per_s = static_cast<double>(sat.step.completed) / sat.seconds;
        return sat;
    }

    serve::ScoringService& service() { return *service_; }

    void Stop()
    {
        if (service_ != nullptr) {
            service_->Stop();
        }
    }

 private:
    bool Matches(const serve::ScoreReply& reply, std::size_t offset,
                 std::size_t rows) const
    {
        return reply.predictions.size() == rows &&
               std::memcmp(reply.predictions.data(),
                           in_.reference.data() + offset,
                           rows * sizeof(float)) == 0;
    }

    Rung RunRung(double rate, double seconds, Rng& rng, SpanLog& spans)
    {
        const auto sends = static_cast<std::size_t>(rate * seconds);
        std::vector<std::size_t> sizes(sends);
        std::vector<std::size_t> offsets(sends);
        for (std::size_t i = 0; i < sends; ++i) {
            sizes[i] = LogUniform(rng, 1, kMaxRequestRows);
            offsets[i] = rng.NextBelow(kPayloadRows - sizes[i] + 1);
        }
        std::vector<Reply> replies(sends);
        std::vector<double> late(sends);
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(2);

        using Collector = ReplyCollector<serve::PendingScorePtr>;
        Collector collector(
            [](serve::PendingScorePtr& h) { return h->ready(); },
            [&](Collector::Item& item, Clock::time_point at) {
                const serve::ScoreReply& r = item.handle->Wait();
                Reply& reply = replies[item.index];
                reply.status = r.status;
                reply.latency_ms = MsBetween(item.due, at);
                reply.done_ms = MsBetween(start, at);
                reply.right = r.status != serve::RequestStatus::kCompleted ||
                              Matches(r, offsets[item.index],
                                      sizes[item.index]);
            });
        for (std::size_t i = 0; i < sends; ++i) {
            serve::ScoreRequest request;
            request.model_id = "m";
            request.num_rows = sizes[i];
            request.rows = in_.payload.View(offsets[i], offsets[i] + sizes[i]);
            const Clock::time_point due = DueAt(start, i, rate);
            WaitUntil(due);
            late[i] = MsSince(due);
            serve::PendingScorePtr handle;
            {
                ScopedSpan s(spans, "serve.submit");
                handle = service_->Submit(std::move(request));
            }
            collector.Add({std::move(handle), due, i});
        }
        collector.Finish();

        Rung rung;
        rung.seconds = seconds;
        rung.step.rate = rate;
        rung.step.sent = sends;
        rung.late = std::move(late);
        for (const Reply& r : replies) {
            rung.span_ms = std::max(rung.span_ms, r.done_ms);
            switch (r.status) {
              case serve::RequestStatus::kCompleted:
                ++rung.step.completed;
                rung.latencies.push_back(r.latency_ms);
                break;
              case serve::RequestStatus::kRejected: ++rung.step.rejected; break;
              case serve::RequestStatus::kExpired: ++rung.step.expired; break;
              case serve::RequestStatus::kFailed: ++rung.step.failed; break;
            }
            if (!r.right) {
                ++rung.wrong;
            }
        }
        rung.step.failed += rung.wrong;
        return rung;
    }

    const Inputs& in_;
    Outcome& out_;
    std::unique_ptr<serve::ScoringService> service_;
};

const Rung&
ReferenceRung(const std::vector<Rung>& rungs)
{
    for (const Rung& r : rungs) {
        if (r.step.rate == kReferenceRate) {
            return r;
        }
    }
    return rungs.front();
}

std::string
RungsJson(const std::vector<Rung>& rungs)
{
    std::string s = "[";
    for (std::size_t i = 0; i < rungs.size(); ++i) {
        const Rung& r = rungs[i];
        JsonObject o;
        o.Num("rate", r.step.rate)
            .Num("seconds", r.seconds)
            .Num("completed_per_s", r.completed_per_s)
            .Num("sent", static_cast<double>(r.step.sent))
            .Num("completed", static_cast<double>(r.step.completed))
            .Num("rejected", static_cast<double>(r.step.rejected))
            .Num("expired", static_cast<double>(r.step.expired))
            .Num("failed", static_cast<double>(r.step.failed))
            .Num("wrong", static_cast<double>(r.wrong))
            .Num("p50_ms", r.p50_ms)
            .Num("p99_ms", r.tail.value)
            .Num("p99_quantile", r.tail.quantile)
            .Num("late_p99_ms", r.late_tail.value)
            .Num("late_max_ms", r.late_max_ms)
            .Raw("valid", r.step.valid ? "true" : "false")
            .Raw("meets_slo", StepMeetsSlo(r.step, kLimitMs) ? "true" : "false");
        s += (i > 0 ? ", " : "") + o.Render();
    }
    return s + "]";
}

/**
 * Adds one phase's accounting to @p out; returns its shed + failed
 * count. @p where names the phase in a wrong-result message.
 */
std::uint64_t
AccountStep(const LadderStep& step, std::uint64_t wrong,
            const std::string& where, Outcome& out)
{
    out.attempted += step.sent;
    out.failed += step.failed;
    if (wrong > 0) {
        out.wrong.push_back(StrFormat(
            "%llu replies %s differ from ForestKernel::Predict",
            static_cast<unsigned long long>(wrong), where.c_str()));
    }
    return step.failed + step.rejected + step.expired;
}

/** Sums the accounting of every rung into @p out; returns shed + failed. */
std::uint64_t
Account(const std::vector<Rung>& rungs, Outcome& out)
{
    std::uint64_t lost = 0;
    for (const Rung& r : rungs) {
        lost += AccountStep(r.step, r.wrong,
                            StrFormat("at %g req/s", r.step.rate), out);
    }
    return lost;
}

}  // namespace

Outcome
RunServeLadder(const Options& options)
{
    Outcome out;
    const Inputs in = MakeInputs(options);
    Ladder ladder(in, out);
    // peak_rss_mb covers the program from here on, not the synthesis.
    out.record.Num("inputs_peak_rss_mb", ResetPeakRss());

    // One ladder after the last set-up. The ladder is not split into
    // segments: its latencies are set by the coalescer's fill time, not
    // by the kernel the autotuner tunes, and shorter rungs would add
    // end-of-rung partial batches.
    std::vector<double> setup_s;
    for (int i = 0; i < kServiceSetups; ++i) {
        setup_s.push_back(ladder.Setup());
    }
    Rng rng(StreamSeed(options.seed, 6));
    const double budget =
        static_cast<double>(options.seconds) / (options.trace ? 2 : 1);
    SpanLog off(false);
    SpanLog spans(true);
    std::vector<Rung> traced;
    serve::ServiceSnapshot snap;
    const double cpu_start = ProcessCpuMs();
    // The traced run also measures the service's capacity, in a
    // closed-loop saturation phase after the untraced ladder.
    const std::vector<Rung> rungs = ladder.Run(
        options.trace ? budget * (1.0 - kSaturationShare) : budget, rng, off);
    const double cpu_ms = ProcessCpuMs() - cpu_start;
    Saturation sat;
    if (options.trace) {
        sat = ladder.Saturate(budget * kSaturationShare, rng);
        ladder.service().ResetStats();
        traced = ladder.Run(budget, rng, spans);
        snap = ladder.service().Stats();
    }
    ladder.Stop();
    out.end_to_end["setup_s"] = Median(setup_s);

    std::vector<LadderStep> steps;
    for (const Rung& r : rungs) {
        steps.push_back(r.step);
    }
    std::uint64_t lost = Account(rungs, out);
    const double sent = static_cast<double>(out.attempted);
    const Rung& ref = ReferenceRung(rungs);
    out.end_to_end["latency_p50_ms"] = ref.p50_ms;
    out.end_to_end["latency_tail_ms"] = ref.tail.value;
    // Throughput is the goodput at the reference rate. It only echoes
    // the offered rate while the service keeps up, so it moves only when
    // the service falls behind at 1,000 req/s. The service's capacity
    // is the per-layer serve.capacity_per_s: between runs on a shared
    // 4-core machine it spreads by about 0.16 (interquartile range over
    // median), too close to any bound this benchmark may set.
    const double max_rps = MaxRpsWithinSlo(steps, kLimitMs);
    out.end_to_end["throughput_per_s"] = ref.completed_per_s;
    out.record.Raw("rungs", RungsJson(rungs))
        .Num("max_rps_within_slo", max_rps)
        .Num("reference_rate", kReferenceRate)
        .Num("limit_ms", kLimitMs);

    if (options.trace) {
        lost += Account(traced, out) +
                AccountStep(sat.step, sat.wrong, "at saturation", out);
        out.record.Raw("traced_rungs", RungsJson(traced))
            .Num("saturation_seconds", sat.seconds)
            .Num("saturation_sent", static_cast<double>(sat.step.sent))
            .Num("saturation_rejected", static_cast<double>(sat.step.rejected));

        std::map<std::string, double>& m = out.per_layer;
        m["serve.max_rps_within_slo"] = max_rps;
        m["serve.capacity_per_s"] = sat.per_s;
        m["serve.submit_us"] = Median(spans.Durations("serve.submit")) * 1e3;
        m["serve.batch_requests"] = snap.batch_requests.mean;
        m["serve.batch_rows"] = snap.batch_rows.mean;
        const auto mean_rows = std::max<std::size_t>(
            1, static_cast<std::size_t>(snap.batch_rows.mean + 0.5));
        const ForestKernel kernel(in.forest);
        std::vector<double> kernel_ms;
        for (int i = 0; i < 21; ++i) {
            const Clock::time_point t = Clock::now();
            (void)kernel.Predict(in.payload.View(0, mean_rows));
            kernel_ms.push_back(MsSince(t));
        }
        m["serve.kernel_ms"] = Median(kernel_ms);
        m["serve.rejected"] = static_cast<double>(snap.rejected);
        m["serve.expired"] = static_cast<double>(snap.expired);
        m["serve.failed"] = static_cast<double>(snap.failed);
        m["trace.overhead_pct"] =
            OverheadPct(ref.p50_ms, ReferenceRung(traced).p50_ms);
        m["proc.cpu_ms_per_op"] = sent > 0.0 ? cpu_ms / sent : 0.0;
        double late_max = 0.0;
        for (const Rung& r : rungs) {
            if (r.step.rate <= kReferenceRate) {
                late_max = std::max(late_max, r.late_max_ms);
            }
        }
        m["gen.late_max_ms"] = late_max;
        lost += MeasureFleetLayer(options, budget, out);
        m["failed_share"] = static_cast<double>(lost) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, out.attempted));
    }

    out.record.Obj("setup_s", SampleList(setup_s))
        .Obj("autotune", AutotunePick(ForestKernel(in.forest)));
    return out;
}

}  // namespace perfbench
