#include "dbscore/serve/dispatch_core.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "dbscore/common/error.h"
#include "dbscore/common/rng.h"
#include "dbscore/common/string_util.h"
#include "dbscore/fault/fault.h"

namespace dbscore::serve {

using trace::SpanContext;
using trace::StageKind;
using trace::TraceCollector;

namespace {

/** Raises @p lane's horizon to @p t. Caller holds the device mutex. */
void
ChargeLaneLocked(DispatchCore::Device& device, std::size_t lane, SimTime t)
{
    // The autoscaler may have retired the lane mid-dispatch.
    if (lane < device.lanes.size()) {
        device.lanes[lane] = Max(device.lanes[lane], t);
    }
}

}  // namespace

const char*
BreakerStateName(BreakerState state)
{
    switch (state) {
      case BreakerState::kClosed: return "closed";
      case BreakerState::kOpen: return "open";
      case BreakerState::kHalfOpen: return "half-open";
    }
    return "?";
}

std::string
DispatchCounters::ToString() const
{
    std::ostringstream os;
    os << StrFormat("%zu dispatches, %zu requests, %zu rows, %zu cold, busy ",
                    dispatches, requests, rows, cold_invocations)
       << busy;
    if (faults + fallbacks + breaker_opens > 0 ||
        breaker != BreakerState::kClosed) {
        os << StrFormat(", %zu faults, %zu retries, %zu fallbacks, "
                        "%zu breaker opens, breaker %s",
                        faults, retries, fallbacks, breaker_opens,
                        BreakerStateName(breaker));
    }
    return os.str();
}

SimTime
FaultedOffloadCost(const OffloadBreakdown& b, DeviceClass device_class,
                   std::size_t site_index)
{
    SimTime t = b.preprocessing + b.input_transfer;
    if (site_index == 0) {
        return t;  // the inbound DMA itself failed
    }
    t += b.setup;
    if (site_index == 1) {
        return t;  // setup / kernel launch failed
    }
    t += b.compute + b.completion_signal;
    if (device_class == DeviceClass::kFpga && site_index == 2) {
        return t;  // completion interrupt lost after a full run
    }
    return t + b.result_transfer;  // the outbound DMA failed
}

SimTime
BackoffDelay(const RetryPolicy& policy, std::size_t device,
             std::uint64_t seq, std::size_t retry_index)
{
    DBS_ASSERT(retry_index >= 1);
    double backoff_s = policy.initial_backoff.seconds() *
                       std::pow(policy.backoff_multiplier,
                                static_cast<double>(retry_index - 1));
    backoff_s = std::min(backoff_s, policy.max_backoff.seconds());
    if (policy.jitter_frac > 0.0 && backoff_s > 0.0) {
        // One draw from a stream keyed by (seed, device, sequence): a
        // replayed run re-draws identical jitter. The SplitMix64
        // seeding inside Rng decorrelates the nearby keys.
        Rng jitter(policy.jitter_seed ^
                   (0x9e3779b97f4a7c15ULL *
                    (static_cast<std::uint64_t>(device) + 1)) ^
                   (0xbf58476d1ce4e5b9ULL * (seq + 1)));
        backoff_s += backoff_s * policy.jitter_frac * jitter.NextDouble();
    }
    return SimTime::Seconds(backoff_s);
}

void
EmitStageChain(const SpanContext& parent, SimTime at,
               const std::array<SimTime, 5>& stages)
{
    static constexpr std::pair<StageKind, const char*> kStages[] = {
        {StageKind::kInvocation, "invocation"},
        {StageKind::kModelPreproc, "model-preproc"},
        {StageKind::kMarshal, "transfer"},
        {StageKind::kDataPreproc, "data-preproc"},
        {StageKind::kScoring, "scoring"},
    };
    TraceCollector& tracer = TraceCollector::Get();
    for (std::size_t i = 0; i < stages.size(); ++i) {
        tracer.EmitSim(kStages[i].first, kStages[i].second, parent, at,
                       stages[i]);
        at += stages[i];
    }
}

ServedModel::ServedModel(const HardwareProfile& profile,
                         const TreeEnsemble& ensemble, const ModelStats& stats)
    : forest(ensemble.ToForest()),
      scheduler(profile, ensemble, stats),
      num_cols(stats.num_features),
      model_bytes(stats.serialized_bytes)
{
    // Prewarm the kernel cache so the first dispatch never pays (or
    // races on) compilation.
    if (ForestKernel::Supports(forest)) {
        build_wall_ms = forest.Kernel()->build_wall_ms();
    }
}

DispatchCore::DispatchCore(const RetryPolicy& retry,
                           const BreakerPolicy& breaker, bool cpu_fallback,
                           const ExternalRuntimeParams& runtime,
                           std::size_t lanes)
    : retry_(retry), breaker_(breaker), cpu_fallback_(cpu_fallback)
{
    DBS_ASSERT(lanes > 0);
    for (Device& d : devices_) {
        d.runtime = std::make_unique<ExternalScriptRuntime>(runtime);
        d.lanes.assign(lanes, SimTime());
    }
}

std::size_t
DispatchCore::EarliestLaneLocked(std::size_t d) const
{
    const std::vector<SimTime>& lanes = devices_[d].lanes;
    return static_cast<std::size_t>(
        std::min_element(lanes.begin(), lanes.end()) - lanes.begin());
}

std::pair<std::size_t, SimTime>
DispatchCore::EarliestLane(std::size_t d) const
{
    std::lock_guard<std::mutex> lock(devices_[d].mutex);
    const std::size_t lane = EarliestLaneLocked(d);
    return {lane, devices_[d].lanes[lane]};
}

bool
DispatchCore::Blocked(std::size_t d, SimTime ready) const
{
    Device& dev = devices_[d];
    std::lock_guard<std::mutex> lock(dev.mutex);
    return d != kCpu && dev.breaker == BreakerState::kOpen &&
           ready < dev.breaker_open_until;
}

void
DispatchCore::AdmitProbe(std::size_t d, SimTime ready,
                         const SpanContext& parent)
{
    if (d == kCpu) {
        return;
    }
    Device& dev = devices_[d];
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        if (dev.breaker != BreakerState::kOpen ||
            ready < dev.breaker_open_until) {
            return;
        }
        dev.breaker = BreakerState::kHalfOpen;
    }
    TraceCollector::Get().EmitSim(
        StageKind::kBreaker, "breaker-half-open", parent, ready, SimTime(),
        {{"device", static_cast<double>(d)},
         {"state", static_cast<double>(BreakerState::kHalfOpen)}});
}

void
DispatchCore::NoteReroute(std::size_t from, SimTime at,
                          const SpanContext& parent)
{
    {
        std::lock_guard<std::mutex> lock(devices_[from].mutex);
        ++devices_[from].counters.fallbacks;
    }
    TraceCollector::Get().EmitSim(StageKind::kFallback, "breaker-reroute",
                                  parent, at, SimTime(),
                                  {{"from", static_cast<double>(from)}});
}

AttemptCosts
DispatchCore::CostAttempt(std::size_t d, const ServedModel& model,
                          BackendKind kind, std::size_t rows)
{
    ExternalScriptRuntime& runtime = *devices_[d].runtime;
    AttemptCosts c;
    c.invocation = runtime.Invoke();
    c.model_pre = c.invocation.cold
                      ? runtime.ModelPreprocessing(model.model_bytes)
                      : SimTime();
    c.transfer_to = runtime.TransferToProcess(
        static_cast<std::uint64_t>(rows) * model.num_cols * sizeof(float));
    c.transfer_from = runtime.TransferFromProcess(
        static_cast<std::uint64_t>(rows) * sizeof(float));
    c.data_pre = runtime.DataPreprocessing(rows, model.num_cols);
    c.scoring = model.scheduler.EstimateFor(kind, rows);
    return c;
}

void
DispatchCore::OnFault(std::size_t d, SimTime wasted, SimTime now,
                      const SpanContext& parent)
{
    Device& dev = devices_[d];
    BreakerState before;
    BreakerState after;
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        ++dev.counters.faults;
        dev.counters.fault_wasted += wasted;
        before = dev.breaker;
        ++dev.consecutive_failures;
        // A failed half-open probe goes straight back to open for a
        // fresh cooldown; a closed breaker opens at the threshold.
        if (dev.breaker == BreakerState::kHalfOpen ||
            (dev.breaker == BreakerState::kClosed &&
             dev.consecutive_failures >= breaker_.failure_threshold)) {
            dev.breaker = BreakerState::kOpen;
            dev.breaker_open_until = now + breaker_.open_cooldown;
            ++dev.counters.breaker_opens;
        }
        after = dev.breaker;
    }
    if (after == before) {
        return;
    }
    TraceCollector::Get().EmitSim(
        StageKind::kBreaker, "breaker-open", parent, now, SimTime(),
        {{"device", static_cast<double>(d)},
         {"state", static_cast<double>(after)}});
}

DispatchOutcome
DispatchCore::Run(const DispatchTicket& ticket, const ServedModel& model,
                  std::span<DispatchMember> members)
{
    TraceCollector& tracer = TraceCollector::Get();
    fault::FaultInjector& injector = fault::FaultInjector::Get();

    // The outcome doubles as the loop cursor: its ticket is the current
    // attempt's. Faulted attempts advance `start` by the partial stage
    // costs they consumed, retries by their backoff, a CPU fallback by
    // the CPU lane's horizon. `lead` is the first live member, which
    // parents the dispatch-level spans.
    DispatchOutcome out;
    static_cast<DispatchTicket&>(out) = ticket;
    for (const DispatchMember& m : members) {
        if (!m.failed) {
            ++out.members;
            out.rows += m.rows;
        }
    }
    std::size_t device_attempts = 0;
    std::size_t lead = 0;
    while (out.members > 0 && members[lead].failed) {
        ++lead;
    }

    auto fail = [&out](DispatchMember& m, const char* why) {
        m.failed = true;
        m.failed_at = out.start;
        m.attempts = out.attempts;
        m.degraded = out.degraded;
        m.error = why;
        --out.members;
        out.rows -= m.rows;
    };

    while (out.members > 0) {
        ++out.attempts;
        ++device_attempts;
        if (out.attempts > 1) {
            out.costs = CostAttempt(out.device, model, out.kind, out.rows);
        }
        const AttemptCosts& c = out.costs;

        // This attempt's fate: the external process can crash during
        // invocation; otherwise the offload crosses its hardware fault
        // sites in operation order. EstimateFor stays pure, so the
        // dispatch consumes the same per-site fault stream a
        // functional engine Score would.
        bool faulted = c.invocation.crashed;
        fault::FaultSite fault_site = fault::FaultSite::kExternalInvoke;
        SimTime wasted = c.invocation.cost;
        const auto sites = OffloadFaultSites(out.kind);
        for (std::size_t i = 0; !faulted && i < sites.size(); ++i) {
            if (injector.ShouldFail(sites[i])) {
                faulted = true;
                fault_site = sites[i];
                wasted = c.invocation.cost + c.model_pre + c.transfer_to +
                         c.data_pre +
                         FaultedOffloadCost(
                             c.scoring, static_cast<DeviceClass>(out.device),
                             i);
            }
        }
        if (!faulted) {
            out.completed = true;
            break;
        }

        const SpanContext& parent = members[lead].trace;
        tracer.EmitSim(StageKind::kFault, fault::FaultSiteName(fault_site),
                       parent, out.start, wasted,
                       {{"device", static_cast<double>(out.device)},
                        {"attempt", static_cast<double>(out.attempts)}});
        out.start += wasted;
        OnFault(out.device, wasted, out.start, parent);
        Device& dev = devices_[out.device];

        if (device_attempts < retry_.max_attempts) {
            // Retry on the same device after backoff — but never
            // dispatch a member past its deadline: those members fail
            // now instead of riding a retry they could never use.
            std::uint64_t seq;
            {
                std::lock_guard<std::mutex> lock(dev.mutex);
                seq = dev.attempt_seq++;
            }
            const SimTime backoff =
                BackoffDelay(retry_, out.device, seq, device_attempts);
            const SimTime redispatch = out.start + backoff;
            for (DispatchMember& m : members) {
                if (!m.failed && m.deadline_at.has_value() &&
                    redispatch > *m.deadline_at) {
                    fail(m, "fault: deadline precludes retry");
                }
            }
            if (out.members == 0) {
                break;
            }
            while (members[lead].failed) {
                ++lead;
            }
            tracer.EmitSim(StageKind::kRetryBackoff, "retry-backoff",
                           members[lead].trace, out.start, backoff,
                           {{"attempt", static_cast<double>(out.attempts)}});
            {
                std::lock_guard<std::mutex> lock(dev.mutex);
                ++dev.counters.retries;
                dev.counters.retry_backoff += backoff;
            }
            out.start = redispatch;
            continue;
        }

        if (cpu_fallback_ && out.device != kCpu) {
            // Graceful degradation: release the accelerator lane (it
            // burned the attempts so far) and hand the work to the CPU
            // engine with a fresh attempt budget.
            {
                std::lock_guard<std::mutex> lock(dev.mutex);
                ChargeLaneLocked(dev, out.lane, out.start);
                ++dev.counters.fallbacks;
            }
            const auto from = static_cast<double>(out.device);
            auto cpu_best =
                BestOfClass(model.scheduler, DeviceClass::kCpu, out.rows);
            DBS_ASSERT(cpu_best.has_value());
            out.device = kCpu;
            out.kind = cpu_best->kind;
            out.degraded = true;
            device_attempts = 0;
            {
                std::lock_guard<std::mutex> lock(devices_[kCpu].mutex);
                out.lane = EarliestLaneLocked(kCpu);
                out.start = Max(out.start, devices_[kCpu].lanes[out.lane]);
            }
            tracer.EmitSim(StageKind::kFallback, "cpu-fallback", parent,
                           out.start, SimTime(), {{"from", from}});
            continue;
        }

        // No retries and no fallback left: the live members fail.
        break;
    }

    Device& dev = devices_[out.device];
    if (!out.completed) {
        {
            std::lock_guard<std::mutex> lock(dev.mutex);
            ChargeLaneLocked(dev, out.lane, out.start);
        }
        for (DispatchMember& m : members) {
            if (!m.failed) {
                fail(m, "injected faults exhausted every retry");
            }
        }
        out.finish = out.start;
        return out;
    }

    out.finish = out.start + out.costs.Service();
    BreakerState before;
    {
        std::lock_guard<std::mutex> lock(dev.mutex);
        ChargeLaneLocked(dev, out.lane, out.finish);
        before = dev.breaker;
        dev.consecutive_failures = 0;
        dev.breaker = BreakerState::kClosed;
        DispatchCounters& c = dev.counters;
        ++c.dispatches;
        c.requests += out.members;
        c.rows += out.rows;
        c.busy += out.costs.Service();
        c.cold_invocations += out.costs.invocation.cold ? 1 : 0;
    }
    if (before != BreakerState::kClosed) {
        tracer.EmitSim(
            StageKind::kBreaker, "breaker-close", members[lead].trace,
            out.finish, SimTime(),
            {{"device", static_cast<double>(out.device)},
             {"state", static_cast<double>(BreakerState::kClosed)}});
    }
    return out;
}

void
DispatchCore::StopWorkers()
{
    for (Device& d : devices_) {
        {
            std::lock_guard<std::mutex> lock(d.mutex);
            d.stop = true;
        }
        d.cv.notify_all();
    }
}

DispatchCounters
DispatchCore::Counters(std::size_t d) const
{
    std::lock_guard<std::mutex> lock(devices_[d].mutex);
    DispatchCounters c = devices_[d].counters;
    c.breaker = devices_[d].breaker;
    c.lanes = devices_[d].lanes.size();
    return c;
}

void
DispatchCore::ResetCounters()
{
    for (Device& d : devices_) {
        std::lock_guard<std::mutex> lock(d.mutex);
        d.counters = DispatchCounters();
    }
}

}  // namespace dbscore::serve
