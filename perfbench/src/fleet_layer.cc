/**
 * @file
 * The fleet layer probe: a multi-tenant FleetService at one fixed
 * open-loop rate, run inside serve_ladder's traced run.
 *
 * 32 model ids share a registry budget of 6.5 models; 10k tenants bind
 * to models by Zipf(0.8) and split 10% gold / 30% silver / 60% bronze.
 * Requests pick a tenant uniformly, so most land on cold models and
 * the registry rebuilds them on the request path. Each request carries
 * 64 rows; its modeled arrival is stamped from the send schedule so the
 * fleet's modeled deadlines see the real spacing.
 *
 * It is not a workload of its own: on a shared 4-core machine its
 * request latency, tail and peak RSS spread by 10-60% between runs
 * (each registry miss rebuilds a model for about 4 ms on the scheduler
 * thread, and stalls queue behind it), too wide for an end-to-end
 * bound. Its per-layer metrics are still reported.
 */
#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "dbscore/common/string_util.h"
#include "dbscore/core/calibration.h"
#include "dbscore/data/synthetic.h"
#include "dbscore/fleet/fleet_service.h"
#include "dbscore/forest/forest.h"
#include "dbscore/forest/forest_kernel.h"
#include "dbscore/forest/model_stats.h"
#include "dbscore/forest/trainer.h"
#include "open_loop.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace dbscore;

constexpr std::size_t kModels = 32;
/** Registry budget, in models. */
constexpr double kResidentModels = 6.5;
constexpr double kZipfTheta = 0.8;
constexpr std::size_t kTenants = 10000;
constexpr std::size_t kRequestRows = 64;
/**
 * About a sixth of the fleet's wall capacity on a 4-core VM (each
 * registry miss rebuilds a model for about 4 ms on the scheduler
 * thread). At 120 req/s about 2.5% of requests already expire on the
 * default 500 ms modeled deadline, even with stamped arrivals; at this
 * rate none do.
 */
constexpr double kRate = 60.0;
constexpr std::size_t kPayloadRows = 8192;

struct Inputs {
    RandomForest forest;
    TreeEnsemble ensemble;
    ModelStats stats;
    Dataset payload;
    std::vector<float> reference;     ///< ForestKernel::Predict of payload
    std::vector<std::size_t> binding;  ///< tenant -> model index
};

/** Model index for each tenant, drawn from Zipf(kZipfTheta). */
std::vector<std::size_t>
BindTenants(Rng& rng)
{
    std::vector<double> cdf(kModels);
    double total = 0.0;
    for (std::size_t m = 0; m < kModels; ++m) {
        total += 1.0 / std::pow(static_cast<double>(m + 1), kZipfTheta);
        cdf[m] = total;
    }
    std::vector<std::size_t> binding(kTenants);
    for (std::size_t& b : binding) {
        const double u = rng.NextDouble() * total;
        b = static_cast<std::size_t>(
            std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
        b = std::min(b, kModels - 1);
    }
    return binding;
}

Inputs
MakeInputs(const Options& options)
{
    Inputs in;
    const Dataset train = MakeHiggs(2000, StreamSeed(options.seed, 4));
    ForestTrainerConfig trainer;
    trainer.num_trees = 32;
    trainer.max_depth = 8;
    trainer.seed = StreamSeed(options.seed, 3);
    in.forest = TrainForest(train, trainer);
    in.ensemble = TreeEnsemble::FromForest(in.forest);
    in.stats = ComputeModelStats(in.forest, &train);
    in.payload = MakeHiggs(kPayloadRows, StreamSeed(options.seed, 1));
    in.reference = ForestKernel(in.forest).Predict(
        in.payload.Row(0), kPayloadRows, in.payload.num_features());
    Rng rng(StreamSeed(options.seed, 7));
    in.binding = BindTenants(rng);
    return in;
}

fleet::SloClass
ClassOf(std::size_t tenant)
{
    const std::size_t slot = tenant % 10;
    if (slot == 0) {
        return fleet::SloClass::kGold;
    }
    return slot < 4 ? fleet::SloClass::kSilver : fleet::SloClass::kBronze;
}

struct Reply {
    serve::RequestStatus status = serve::RequestStatus::kRejected;
    double latency_ms = 0.0;
    bool right = false;
};

/** The fixed-rate schedule's accounting. */
struct Phase {
    std::uint64_t sent = 0, completed = 0, rejected = 0, expired = 0;
    std::uint64_t failed = 0, wrong = 0;
    std::vector<double> latencies;  ///< completed requests only
    // Registry counter deltas and lanes at the end of the phase.
    double hits = 0, misses = 0, rebuilds = 0, evictions = 0, lanes = 0;

    JsonObject Json() const
    {
        JsonObject o;
        o.Num("rate", kRate)
            .Num("sent", static_cast<double>(sent))
            .Num("completed", static_cast<double>(completed))
            .Num("rejected", static_cast<double>(rejected))
            .Num("expired", static_cast<double>(expired))
            .Num("failed", static_cast<double>(failed))
            .Num("wrong", static_cast<double>(wrong))
            .Num("p50_ms", Median(latencies))
            .Num("p99_ms", Tail(latencies, 0.99).value);
        return o;
    }
};

class Churn {
 public:
    Churn(const Inputs& in, Outcome& out) : in_(in), out_(out) {}
    ~Churn()
    {
        if (fleet_ != nullptr) {
            fleet_->Stop();
        }
    }
    Churn(const Churn&) = delete;
    Churn& operator=(const Churn&) = delete;

    void Setup()
    {
        fleet::FleetConfig config;
        config.registry.memory_budget_bytes = static_cast<std::uint64_t>(
            static_cast<double>(in_.stats.serialized_bytes) * kResidentModels);
        fleet_ = std::make_unique<fleet::FleetService>(HardwareProfile::Paper(),
                                                       config);
        for (std::size_t m = 0; m < kModels; ++m) {
            fleet_->RegisterModel(ModelId(m), in_.ensemble, in_.stats);
        }
        for (std::size_t t = 0; t < kTenants; ++t) {
            fleet_->RegisterTenant(t, ModelId(in_.binding[t]), ClassOf(t));
        }
        fleet_->Start();
        const fleet::FleetReply reply = fleet_->ScoreSync(Request(0, 0));
        if (reply.status != serve::RequestStatus::kCompleted ||
            !Matches(reply, 0)) {
            out_.Wrong("fleet warm-up request did not score correctly");
        }
    }

    /** Sends the fixed-rate schedule for @p seconds. */
    Phase Run(double seconds, Rng& rng)
    {
        const auto sends = static_cast<std::size_t>(kRate * seconds);
        std::vector<std::size_t> tenants(sends);
        std::vector<std::size_t> offsets(sends);
        for (std::size_t i = 0; i < sends; ++i) {
            tenants[i] = rng.NextBelow(kTenants);
            offsets[i] = rng.NextBelow(kPayloadRows - kRequestRows + 1);
        }
        std::vector<Reply> replies(sends);
        const fleet::RegistrySnapshot before = fleet_->registry().Snapshot();

        using Handle = std::future<fleet::FleetReply>;
        using Collector = ReplyCollector<Handle>;
        Collector collector(
            [](Handle& h) {
                return h.wait_for(std::chrono::seconds(0)) ==
                       std::future_status::ready;
            },
            [&](Collector::Item& item, Clock::time_point at) {
                const fleet::FleetReply r = item.handle.get();
                Reply& reply = replies[item.index];
                reply.status = r.status;
                reply.latency_ms = MsBetween(item.due, at);
                reply.right = r.status != serve::RequestStatus::kCompleted ||
                              Matches(r, offsets[item.index]);
            });
        // Modeled arrivals start a second after the warm-up request.
        const Clock::time_point start =
            Clock::now() + std::chrono::milliseconds(2);
        for (std::size_t i = 0; i < sends; ++i) {
            fleet::FleetRequest request = Request(tenants[i], offsets[i]);
            request.arrival =
                SimTime::Seconds(1.0 + static_cast<double>(i) / kRate);
            const Clock::time_point due = DueAt(start, i, kRate);
            WaitUntil(due);
            collector.Add({fleet_->Submit(std::move(request)), due, i});
        }
        collector.Finish();

        Phase phase;
        const fleet::RegistrySnapshot after = fleet_->registry().Snapshot();
        phase.hits = static_cast<double>(after.hits - before.hits);
        phase.misses = static_cast<double>(after.misses - before.misses);
        phase.rebuilds = static_cast<double>(after.rebuilds - before.rebuilds);
        phase.evictions =
            static_cast<double>(after.evictions - before.evictions);
        for (const fleet::FleetDeviceSnapshot& d : fleet_->Stats().devices) {
            phase.lanes += static_cast<double>(d.lanes);
        }
        phase.sent = sends;
        for (const Reply& r : replies) {
            switch (r.status) {
              case serve::RequestStatus::kCompleted:
                ++phase.completed;
                phase.latencies.push_back(r.latency_ms);
                break;
              case serve::RequestStatus::kRejected: ++phase.rejected; break;
              case serve::RequestStatus::kExpired: ++phase.expired; break;
              case serve::RequestStatus::kFailed: ++phase.failed; break;
            }
            if (!r.right) {
                ++phase.wrong;
            }
        }
        return phase;
    }

 private:
    static std::string ModelId(std::size_t m)
    {
        std::string id = "m";
        id += std::to_string(m);
        return id;
    }

    fleet::FleetRequest Request(std::size_t tenant, std::size_t offset) const
    {
        fleet::FleetRequest r;
        r.tenant_id = tenant;
        r.num_rows = kRequestRows;
        const std::size_t cols = in_.payload.num_features();
        const float* first = in_.payload.Row(offset);
        r.rows.assign(first, first + kRequestRows * cols);
        return r;
    }

    bool Matches(const fleet::FleetReply& reply, std::size_t offset) const
    {
        return reply.predictions.size() == kRequestRows &&
               std::memcmp(reply.predictions.data(),
                           in_.reference.data() + offset,
                           kRequestRows * sizeof(float)) == 0;
    }

    const Inputs& in_;
    Outcome& out_;
    std::unique_ptr<fleet::FleetService> fleet_;
};

}  // namespace

std::uint64_t
MeasureFleetLayer(const Options& options, double seconds, Outcome& out)
{
    const Inputs in = MakeInputs(options);
    Phase phase;
    {
        Churn churn(in, out);
        churn.Setup();
        Rng rng(StreamSeed(options.seed, 8));
        phase = churn.Run(seconds, rng);
    }
    out.attempted += phase.sent;
    out.failed += phase.failed + phase.wrong;
    if (phase.wrong > 0) {
        out.wrong.push_back(StrFormat(
            "%llu fleet replies differ from ForestKernel::Predict",
            static_cast<unsigned long long>(phase.wrong)));
    }
    out.record.Obj("fleet_layer", phase.Json());

    std::map<std::string, double>& m = out.per_layer;
    const double lookups = phase.hits + phase.misses;
    m["registry.hit_ratio"] = lookups > 0 ? phase.hits / lookups : 0.0;
    m["registry.rebuilds"] = phase.rebuilds;
    m["registry.evictions"] = phase.evictions;
    // What one registry miss builds, timed directly: the registry's own
    // build_wall_ms_total stays 0 because ForestKernel only stamps
    // build_wall_ms() on v1 builds.
    std::vector<double> build_ms;
    for (int i = 0; i < 11; ++i) {
        const Clock::time_point t = Clock::now();
        const fleet::WarmModel warm(HardwareProfile::Paper(), "probe",
                                    in.ensemble, in.stats, SimTime());
        build_ms.push_back(MsSince(t));
    }
    m["registry.build_wall_ms"] = Median(build_ms);
    m["fleet.lanes"] = phase.lanes;
    m["fleet.expired"] = static_cast<double>(phase.expired);
    return phase.rejected + phase.expired + phase.failed + phase.wrong;
}

}  // namespace perfbench
