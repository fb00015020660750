#include "dbscore/fleet/fleet_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "dbscore/common/error.h"
#include "dbscore/engines/scoring_engine.h"

namespace dbscore::fleet {

using serve::DispatchCore;
using serve::RequestStatus;
using trace::ScopedSpan;
using trace::StageKind;
using trace::TraceCollector;

namespace {

/** Lanes each device starts with. @throws InvalidArgument on zero. */
std::size_t
InitialLanes(const FleetConfig& config)
{
    if (config.initial_lanes == 0) {
        throw InvalidArgument("fleet: zero initial lanes");
    }
    return std::max(config.autoscaler.enabled ? config.autoscaler.min_lanes
                                              : config.initial_lanes,
                    config.initial_lanes);
}

}  // namespace

FleetService::FleetService(const HardwareProfile& profile, FleetConfig config)
    : profile_(profile),
      config_(std::move(config)),
      core_(config_.retry, config_.breaker, config_.cpu_fallback,
            config_.runtime_params, InitialLanes(config_)),
      trace_domain_(TraceCollector::Get().NewDomain()),
      registry_(profile, config_.registry)
{
    if (config_.queue_capacity == 0) {
        throw InvalidArgument("fleet: zero queue capacity");
    }
    if (config_.window_per_lane < 1.0) {
        throw InvalidArgument("fleet: window_per_lane must be >= 1");
    }
    dispatch_held_ = config_.hold_dispatch;
}

FleetService::~FleetService()
{
    Stop();
}

void
FleetService::RegisterModel(const std::string& id, const TreeEnsemble& model,
                            const ModelStats& stats)
{
    registry_.RegisterModel(id, model, stats);
    std::lock_guard<std::mutex> lock(admission_mutex_);
    model_index_.emplace(id, static_cast<std::uint32_t>(model_ids_.size()));
    model_ids_.push_back(id);
}

void
FleetService::RegisterTenant(std::uint64_t tenant_id,
                             const std::string& model_id, SloClass cls)
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    auto model_it = model_index_.find(model_id);
    if (model_it == model_index_.end()) {
        throw NotFound("fleet: unknown model: " + model_id);
    }
    if (tenants_.count(tenant_id) != 0) {
        throw InvalidArgument("fleet: duplicate tenant id");
    }
    const SloPolicy& policy = config_.slo[static_cast<int>(cls)];
    TenantState state;
    state.model_idx = model_it->second;
    state.cls = cls;
    state.bucket = TokenBucket(policy.quota_rps, policy.quota_burst);
    tenants_.emplace(tenant_id, std::move(state));
}

std::size_t
FleetService::NumTenants() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return tenants_.size();
}

void
FleetService::SetSloPolicy(SloClass cls, const SloPolicy& policy)
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        throw InvalidArgument("fleet: SetSloPolicy while running");
    }
    if (policy.weight <= 0.0) {
        throw InvalidArgument("fleet: SLO weight must be positive");
    }
    config_.slo[static_cast<int>(cls)] = policy;
}

void
FleetService::Start()
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    if (running_) {
        return;
    }
    if (stop_requested_ || threads_ != nullptr) {
        throw InvalidArgument("fleet: cannot restart a stopped service");
    }
    wfq_ = std::make_unique<WeightedFairQueue<PendingPtr>>(
        std::array<double, kNumSloClasses>{
            config_.slo[0].weight, config_.slo[1].weight,
            config_.slo[2].weight});
    running_ = true;
    threads_ = std::make_unique<ThreadPool>(4);
    threads_->Submit([this] { SchedulerLoop(); });
    for (std::size_t d = 0; d < DispatchCore::kNumDevices; ++d) {
        threads_->Submit([this, d] { WorkerLoop(d); });
    }
}

void
FleetService::Stop()
{
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        if (!running_ && threads_ == nullptr) {
            return;
        }
        stop_requested_ = true;
        // A held gate must not outlive Stop: the scheduler drains the
        // central queue on its way out.
        dispatch_held_ = false;
    }
    scheduler_cv_.notify_all();
    threads_.reset();  // joins scheduler + workers
    std::lock_guard<std::mutex> lock(admission_mutex_);
    running_ = false;
}

void
FleetService::Drain()
{
    std::size_t target;
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        target = submitted_;
    }
    std::unique_lock<std::mutex> lock(settle_mutex_);
    settle_cv_.wait(lock, [&] { return settled_ >= target; });
}

bool
FleetService::running() const
{
    std::lock_guard<std::mutex> lock(admission_mutex_);
    return running_;
}

void
FleetService::ReleaseDispatch()
{
    {
        std::lock_guard<std::mutex> lock(admission_mutex_);
        dispatch_held_ = false;
    }
    scheduler_cv_.notify_all();
}

std::future<FleetReply>
FleetService::Submit(FleetRequest request)
{
    TraceCollector& tracer = TraceCollector::Get();
    std::promise<FleetReply> promise;
    std::future<FleetReply> future = promise.get_future();

    std::unique_lock<std::mutex> lock(admission_mutex_);
    const SimTime arrival = request.arrival.value_or(modeled_clock_);
    modeled_clock_ = Max(modeled_clock_, arrival);

    auto reject = [&](SloClass cls, std::string why) {
        FleetReply reply;
        reply.status = RequestStatus::kRejected;
        reply.slo = cls;
        reply.arrival = arrival;
        reply.finish = arrival;
        reply.error = std::move(why);
        lock.unlock();
        promise.set_value(std::move(reply));
    };

    auto tenant_it = tenants_.find(request.tenant_id);
    if (tenant_it == tenants_.end()) {
        reject(SloClass::kBronze, "fleet: unknown tenant");
        return future;
    }
    TenantState& tenant = tenant_it->second;
    const SloClass cls = tenant.cls;
    stats_.RecordSubmitted(cls);

    if (!running_ || stop_requested_) {
        stats_.RecordRejectedCapacity(cls);
        reject(cls, "fleet: service not running");
        return future;
    }
    if (!tenant.bucket.TryTake(arrival)) {
        stats_.RecordRejectedQuota(cls);
        reject(cls, "fleet: tenant quota exceeded");
        return future;
    }
    if (wfq_->size() >= config_.queue_capacity) {
        stats_.RecordRejectedCapacity(cls);
        reject(cls, "fleet: central queue full");
        return future;
    }

    auto pending = std::make_unique<Pending>();
    pending->request = std::move(request);
    pending->cls = cls;
    pending->model_idx = tenant.model_idx;
    pending->arrival = arrival;
    pending->trace = tracer.NewRootContext(trace_domain_);
    pending->promise = std::move(promise);
    tracer.EmitSim(StageKind::kAdmission, "fleet-admit", pending->trace,
                   arrival, SimTime(),
                   {{"class", static_cast<double>(cls)}});

    stats_.RecordAdmitted(cls);
    ++submitted_;
    wfq_->Push(cls, std::move(pending));
    lock.unlock();
    scheduler_cv_.notify_one();
    return future;
}

FleetReply
FleetService::ScoreSync(FleetRequest request)
{
    return Submit(std::move(request)).get();
}

FleetSnapshot
FleetService::Stats() const
{
    FleetSnapshot snap = stats_.Snapshot();
    for (std::size_t d = 0; d < DispatchCore::kNumDevices; ++d) {
        static_cast<serve::DispatchCounters&>(snap.devices[d]) =
            core_.Counters(d);
    }
    snap.registry = registry_.Snapshot();
    std::lock_guard<std::mutex> lock(admission_mutex_);
    snap.tenants = tenants_.size();
    snap.models = model_ids_.size();
    return snap;
}

void
FleetService::ResetStats()
{
    stats_.Reset();
    core_.ResetCounters();
}

void
FleetService::EvictAllModels()
{
    registry_.EvictAll();
}

bool
FleetService::HasRoomLocked(std::size_t d)
{
    const std::size_t window = static_cast<std::size_t>(
        static_cast<double>(core_.device(d).lanes.size()) *
        config_.window_per_lane);
    return queues_[d].queue.size() + queues_[d].inflight < window;
}

void
FleetService::SchedulerLoop()
{
    std::unique_lock<std::mutex> lock(admission_mutex_);
    for (;;) {
        scheduler_cv_.wait(lock, [&] {
            return (stop_requested_ && !dispatch_held_) ||
                   (!wfq_->empty() && !dispatch_held_);
        });
        if (wfq_->empty()) {
            if (stop_requested_) {
                break;
            }
            continue;
        }

        // Find devices with dispatch-window room. Lock order is
        // admission -> device everywhere, so these brief device peeks
        // are safe under the admission lock.
        bool any_room = false;
        for (std::size_t d = 0; d < DispatchCore::kNumDevices; ++d) {
            std::lock_guard<std::mutex> dlock(core_.device(d).mutex);
            any_room = any_room || HasRoomLocked(d);
        }
        if (!any_room) {
            // Workers notify scheduler_cv_ as they free window slots;
            // the timeout is a lost-wakeup backstop (wall-clock
            // liveness only — modeled time never sees it).
            scheduler_cv_.wait_for(lock, std::chrono::milliseconds(1));
            continue;
        }

        PendingPtr pending = *wfq_->Pop();
        const std::string model_id = model_ids_[pending->model_idx];
        // Captured under the lock for the autoscaler: the dispatch
        // window keeps device queues shallow by design, so the central
        // backlog is where overload is actually visible.
        const std::size_t central_backlog = wfq_->size();
        lock.unlock();

        // Warm (or build) the model outside the admission lock so
        // submissions keep flowing during a rebuild.
        AcquireResult acquired =
            registry_.Acquire(model_id, pending->trace, pending->arrival);
        const WarmModel& model = *acquired.model;
        const SimTime ready = pending->arrival + acquired.build_cost;
        const std::size_t rows = pending->request.num_rows;

        // Earliest-finish placement across devices with room, skipping
        // accelerators whose breaker is open (cooldown pending). CPU
        // is the fallback of last resort even when its window is full.
        std::size_t chosen = 0;
        std::optional<BackendEstimate> chosen_est;
        SimTime chosen_finish;
        for (std::size_t d = 0; d < DispatchCore::kNumDevices; ++d) {
            auto est = BestOfClass(model.scheduler,
                                   static_cast<DeviceClass>(d), rows);
            if (!est.has_value() || core_.Blocked(d, ready)) {
                continue;
            }
            SimTime lane_free;
            {
                DispatchCore::Device& dev = core_.device(d);
                std::lock_guard<std::mutex> dlock(dev.mutex);
                if (!HasRoomLocked(d)) {
                    continue;
                }
                lane_free = dev.lanes[core_.EarliestLaneLocked(d)];
            }
            const SimTime finish = Max(ready, lane_free) + est->Total();
            if (!chosen_est.has_value() || finish < chosen_finish) {
                chosen = d;
                chosen_est = est;
                chosen_finish = finish;
            }
        }
        if (!chosen_est.has_value()) {
            // Breakers closed every roomy accelerator and CPU is full:
            // queue on CPU anyway (bounded by the WFQ capacity).
            chosen = 0;
            chosen_est =
                BestOfClass(model.scheduler, DeviceClass::kCpu, rows);
            DBS_ASSERT(chosen_est.has_value());
        }

        DeviceWork work;
        work.pending = std::move(pending);
        work.model = acquired.model;
        work.ready = ready;
        work.registry_miss = !acquired.hit;
        serve::DispatchTicket& ticket = work.ticket;
        ticket.device = chosen;
        ticket.kind = chosen_est->kind;

        // Model the first attempt's full cost here, at dispatch, and
        // reserve the lane up to its projected finish. Charging the
        // horizon before the worker runs keeps modeled placement (and
        // thus latencies) a function of the dispatch sequence alone —
        // not of how fast real worker threads happen to drain queues.
        // The scheduler is the only thread invoking a device's runtime
        // for first attempts, so pool warm/cold state also evolves in
        // dispatch order.
        ticket.costs = core_.CostAttempt(chosen, model, ticket.kind, rows);

        const SloPolicy& policy =
            config_.slo[static_cast<int>(work.pending->cls)];
        const SimTime deadline_at = work.pending->arrival + policy.deadline;
        DispatchCore::Device& dev = core_.device(chosen);
        bool expired = false;
        {
            std::lock_guard<std::mutex> dlock(dev.mutex);
            ticket.lane = core_.EarliestLaneLocked(chosen);
            ticket.start = Max(ready, dev.lanes[ticket.lane]);
            if (ticket.start > deadline_at) {
                // Deadline admission at dispatch: the modeled start
                // already overruns the class deadline, so the request
                // expires instead of scoring (and never occupies the
                // lane). An expiry is the strongest overload signal
                // there is: it counts as a missed-deadline sample in
                // the autoscaler's window alongside late completions.
                expired = true;
                ++queues_[chosen].window_completions;
                ++queues_[chosen].window_deadline_misses;
            } else {
                dev.lanes[ticket.lane] = ticket.start + ticket.costs.Service();
            }
        }
        if (expired) {
            FleetReply reply;
            reply.status = RequestStatus::kExpired;
            reply.finish = ticket.start;
            reply.registry_miss = work.registry_miss;
            reply.error = "fleet: deadline expired before dispatch";
            Finish(*work.pending, std::move(reply));
        } else {
            // The device this request actually goes to: an open breaker
            // past its cooldown turns half-open, with this request as
            // the probe.
            core_.AdmitProbe(chosen, ready, work.pending->trace);
            {
                std::lock_guard<std::mutex> dlock(dev.mutex);
                queues_[chosen].queue.push_back(std::move(work));
            }
            dev.cv.notify_one();
        }

        MaybeAutoscale(ready, central_backlog);
        lock.lock();
    }

    // Dispatch is over: release the workers (they drain their queues
    // before exiting).
    lock.unlock();
    core_.StopWorkers();
}

void
FleetService::MaybeAutoscale(SimTime now, std::size_t central_backlog)
{
    TraceCollector& tracer = TraceCollector::Get();
    for (std::size_t d = 0; d < DispatchCore::kNumDevices; ++d) {
        DispatchCore::Device& device = core_.device(d);
        DeviceQueue& q = queues_[d];
        int delta = 0;
        std::size_t lanes_after = 0;
        const char* reason = "hold";
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            DeviceLoadSignals signals;
            signals.lanes = device.lanes.size();
            // Device queues are bounded by the dispatch window, so the
            // per-device depth alone can never cross the scale-up
            // threshold; each device also carries its share of the
            // central WFQ backlog, where overload actually piles up.
            signals.queue_depth =
                q.queue.size() + q.inflight + central_backlog / 3;
            signals.window_completions = q.window_completions;
            signals.window_deadline_misses = q.window_deadline_misses;
            signals.now = now;
            signals.last_change = q.last_scale_change;
            const AutoscaleDecision decision =
                Autoscale(config_.autoscaler, signals);
            delta = decision.delta;
            reason = decision.reason;
            if (delta > 0) {
                // New lanes start at the pool's current horizon — extra
                // capacity from "now" on, no retroactive service.
                const SimTime horizon =
                    device.lanes[core_.EarliestLaneLocked(d)];
                device.lanes.insert(device.lanes.end(), delta, horizon);
            } else if (delta < 0) {
                // Retire the most-idle lanes.
                std::sort(device.lanes.begin(), device.lanes.end());
                device.lanes.resize(device.lanes.size() -
                                    static_cast<std::size_t>(-delta));
            }
            if (delta != 0) {
                q.last_scale_change = now;
                q.window_completions = 0;
                q.window_deadline_misses = 0;
            }
            lanes_after = device.lanes.size();
        }
        if (delta != 0) {
            stats_.RecordScale(static_cast<DeviceClass>(d), delta);
            tracer.EmitSim(StageKind::kAutoscale, reason,
                           tracer.NewRootContext(trace_domain_), now,
                           SimTime(),
                           {{"device", static_cast<double>(d)},
                            {"lanes", static_cast<double>(lanes_after)},
                            {"delta", static_cast<double>(delta)}});
        }
    }
}

void
FleetService::WorkerLoop(std::size_t d)
{
    DispatchCore::Device& device = core_.device(d);
    DeviceQueue& q = queues_[d];
    for (;;) {
        DeviceWork work;
        {
            std::unique_lock<std::mutex> dlock(device.mutex);
            device.cv.wait(dlock, [&] {
                return device.stop || !q.queue.empty();
            });
            if (q.queue.empty()) {
                break;  // stop requested and fully drained
            }
            work = std::move(q.queue.front());
            q.queue.pop_front();
            ++q.inflight;
        }
        // A window slot just freed; the scheduler may dispatch again.
        scheduler_cv_.notify_one();
        ExecuteOne(std::move(work));
        {
            std::lock_guard<std::mutex> dlock(device.mutex);
            --q.inflight;
        }
        scheduler_cv_.notify_one();
    }
}

void
FleetService::Finish(Pending& p, FleetReply reply)
{
    reply.slo = p.cls;
    reply.arrival = p.arrival;
    const char* flag = "miss";
    switch (reply.status) {
      case RequestStatus::kExpired:
        flag = "expired";
        stats_.RecordExpired(p.cls, p.arrival, reply.finish);
        break;
      case RequestStatus::kFailed:
        flag = "failed";
        stats_.RecordFailed(p.cls, p.arrival, reply.finish);
        break;
      default:
        stats_.RecordCompleted(p.cls, p.arrival, reply.finish,
                               reply.degraded, reply.deadline_miss);
    }
    const bool flagged = reply.status != RequestStatus::kCompleted ||
                         reply.deadline_miss;
    TraceCollector::Get().EmitSim(
        StageKind::kQuery, "fleet-request", p.trace, p.arrival,
        reply.finish - p.arrival,
        {{"class", static_cast<double>(p.cls)}, {flag, flagged ? 1.0 : 0.0}});
    {
        ScopedSpan fulfill(StageKind::kReply, "fulfill", p.trace);
        p.promise.set_value(std::move(reply));
    }
    {
        std::lock_guard<std::mutex> lock(settle_mutex_);
        ++settled_;
    }
    settle_cv_.notify_all();
}

void
FleetService::ExecuteOne(DeviceWork work)
{
    TraceCollector& tracer = TraceCollector::Get();
    Pending& pending = *work.pending;
    const WarmModel& model = *work.model;
    const SloPolicy& policy = config_.slo[static_cast<int>(pending.cls)];
    const SimTime deadline_at = pending.arrival + policy.deadline;
    const std::size_t rows = pending.request.num_rows;

    // Lane, modeled start, and first-attempt costs were fixed by the
    // scheduler at dispatch (the lane horizon is already charged up to
    // the projected finish). The core runs the attempts: a request is
    // a one-member dispatch.
    serve::DispatchMember member(rows, deadline_at, pending.trace);
    const serve::DispatchOutcome out =
        core_.Run(work.ticket, model, {&member, 1});
    const std::size_t d = work.ticket.device;

    FleetReply reply;
    reply.registry_miss = work.registry_miss;
    reply.attempts = out.attempts;
    reply.degraded = out.degraded;
    if (!out.completed) {
        reply.status = RequestStatus::kFailed;
        reply.finish = member.failed_at;
        reply.error = std::string("fleet: ") + member.error;
        Finish(pending, std::move(reply));
        tracer.Drain();
        return;
    }

    reply.deadline_miss = out.finish > deadline_at;
    {
        // Autoscaler window sample on the *placement* device (the one
        // whose pool the scheduler sized this work for).
        std::lock_guard<std::mutex> dlock(core_.device(d).mutex);
        ++queues_[d].window_completions;
        if (reply.deadline_miss) {
            ++queues_[d].window_deadline_misses;
        }
    }

    // Simulated stage chain: queue wait at its true timeline position,
    // then the dispatch costs laid end to end from the successful
    // attempt (faults and backoffs already own start..dispatch).
    tracer.EmitSim(StageKind::kQueueWait, "queue-wait", pending.trace,
                   work.ready, work.ticket.start - work.ready);
    const serve::AttemptCosts& c = out.costs;
    serve::EmitStageChain(pending.trace, out.start,
                          {c.invocation.cost, c.model_pre, c.Transfer(),
                           c.data_pre, c.scoring.Total()});

    reply.status = RequestStatus::kCompleted;
    reply.device = static_cast<DeviceClass>(out.device);
    reply.backend = out.kind;
    reply.finish = out.finish;
    if (!pending.request.rows.empty()) {
        // Functional scoring through the registry's cached kernel: the
        // same compiled plan serves warm, re-warmed, and degraded
        // dispatches, so predictions are bit-identical in every case.
        reply.predictions = model.forest.PredictBatch(
            pending.request.rows.data(), rows, model.num_cols);
    }
    Finish(pending, std::move(reply));
    tracer.Drain();
}

}  // namespace dbscore::fleet
