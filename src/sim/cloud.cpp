#include "sim/cloud.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <utility>

#include "common/stats.hpp"

namespace shog::sim {

namespace {

/// Exponentially distributed delay with the given mean. uniform() is in
/// [0, 1), so 1 - u is in (0, 1] and the log is finite.
Sim_duration exponential_delay(Rng& rng, Sim_duration mean) {
    return -mean * std::log(1.0 - rng.uniform());
}

} // namespace

Cloud_runtime::Cloud_runtime(Event_queue& queue, Cloud_config config)
    : queue_{queue},
      config_{std::move(config)},
      gpus_(config_.gpu_count),
      gpu_finalized_busy_(config_.gpu_count, Gpu_seconds{}) {
    SHOG_REQUIRE(config_.gpu_count >= 1, "cloud needs at least one GPU");
    SHOG_REQUIRE(config_.max_batch >= 1, "max_batch must be >= 1");
    SHOG_REQUIRE(config_.placement != Placement_kind::kind_partition ||
                     config_.label_reserved_gpus < config_.gpu_count,
                 "kind_partition must leave at least one unreserved GPU for train jobs");
    SHOG_REQUIRE(config_.preempt_label_wait >= Sim_duration{},
                 "preempt_label_wait must be >= 0 (0 disables preemption)");
    SHOG_REQUIRE(config_.gpu_profiles.empty() ||
                     config_.gpu_profiles.size() == config_.gpu_count,
                 "gpu_profiles must be empty or have one entry per GPU");
    SHOG_REQUIRE(config_.straggler_requeue_factor == 0.0 ||
                     config_.straggler_requeue_factor >= 1.0,
                 "straggler_requeue_factor must be 0 (off) or >= 1");
    // Per-server substreams from one base: adding servers or jobs never
    // shifts another server's failure times.
    Rng reliability_base{config_.reliability_seed};
    failure_rngs_.reserve(gpus_.size());
    for (std::size_t g = 0; g < gpus_.size(); ++g) {
        const Gpu_profile& profile = profile_of(g);
        SHOG_REQUIRE(profile.speed > 0.0, "Gpu_profile::speed must be > 0");
        SHOG_REQUIRE(profile.mtbf > Sim_duration{},
                     "Gpu_profile::mtbf must be > 0 (inf = never)");
        SHOG_REQUIRE(!std::isfinite(profile.mtbf.value()) || // raw read: finiteness test
                         profile.mttr > Sim_duration{},
                     "Gpu_profile::mttr must be > 0 when mtbf is finite");
        gpus_[g].speed = profile.speed;
        failure_rngs_.push_back(reliability_base.split(g));
        schedule_failure(g);
    }
}

void Cloud_runtime::set_observability(obs::Trace_channel trace,
                                      obs::Metrics_registry* metrics) {
    trace_ = trace;
    metrics_ = metrics;
    if (metrics_ == nullptr) {
        return;
    }
    depth_gauge_ = &metrics_->gauge("cloud.queue_depth");
    busy_gauge_ = &metrics_->gauge("cloud.busy_gpus");
    batch_histogram_ = &metrics_->histogram("cloud.batch_occupancy");
    submits_.series = &metrics_->counter("cloud.submits");
    dispatches_.series = &metrics_->counter("cloud.dispatches");
    warm_dispatches_.series = &metrics_->counter("cloud.warm_dispatches");
    completions_.series = &metrics_->counter("cloud.jobs_completed");
    preemptions_.series = &metrics_->counter("cloud.preemptions");
    requeues_.series = &metrics_->counter("cloud.requeued_jobs");
    straggler_requeues_.series = &metrics_->counter("cloud.straggler_requeues");
    failures_.series = &metrics_->counter("cloud.failures");
}

void Cloud_runtime::sample_gauges() {
    if (metrics_ == nullptr) {
        return;
    }
    depth_gauge_->set(queue_.now(), static_cast<double>(queue_depth()));
    // A server is busy exactly while one in-flight dispatch holds it.
    busy_gauge_->set(queue_.now(), static_cast<double>(active_.size()));
}

void Cloud_runtime::ensure_device(std::size_t device_id) {
    if (device_id >= per_device_seconds_.size()) {
        per_device_seconds_.resize(device_id + 1, Gpu_seconds{});
    }
}

void Cloud_runtime::enqueue(Sched_job job) {
    job.seq = next_seq_++;
    waiting_ids_.insert(job.id);
    waiting_labels_ += job.kind == Cloud_job_kind::label ? 1 : 0;
    waiting_.push_back(std::move(job));
}

Sched_job Cloud_runtime::take_waiting(std::size_t index) {
    Sched_job job = std::move(waiting_[index]);
    waiting_.erase(waiting_.begin() + static_cast<std::ptrdiff_t>(index));
    waiting_ids_.erase(job.id);
    overdue_ids_.erase(job.id);
    waiting_labels_ -= job.kind == Cloud_job_kind::label ? 1 : 0;
    return job;
}

void Cloud_runtime::submit(std::size_t device_id, Sim_duration service, Completion done,
                           Cloud_job_kind kind, double drift_rate, Resume_replan replan) {
    SHOG_REQUIRE(service >= Sim_duration{}, "job service time must be >= 0");
    ensure_device(device_id);
    const std::uint64_t id = next_job_id_++;
    Sched_job job;
    job.device = device_id;
    job.service = service;
    job.submitted = queue_.now();
    job.done = std::move(done);
    job.kind = kind;
    job.id = id;
    job.drift_rate = drift_rate;
    job.replan = std::move(replan);
    enqueue(std::move(job));
    // The job's whole cloud lifetime is one async span on the scheduler
    // track, bracketed submit -> complete; instants mark the edges within.
    SHOG_TRACE_ASYNC_BEGIN(trace_, queue_.now(), obs::track_cloud,
                           kind_label(kind == Cloud_job_kind::train), id);
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_cloud, "submit", id);
    submits_.add(queue_.now());
    dispatch();
    if (config_.preempt_label_wait > Sim_duration{} && kind == Cloud_job_kind::label &&
        is_waiting(id)) {
        // The label job is stuck behind busy servers; if it is still waiting
        // when the bound expires, evict a train dispatch to make room.
        queue_.schedule_in(config_.preempt_label_wait, [this, id] { preempt_check(id); });
    }
    // Depth is what is *left* waiting behind busy servers (0 when the job
    // started immediately).
    peak_depth_ = std::max(peak_depth_, waiting_.size());
    sample_gauges();
}

void Cloud_runtime::account_direct(std::size_t device_id, Gpu_seconds gpu_seconds) {
    ensure_device(device_id);
    direct_seconds_ += gpu_seconds;
    per_device_seconds_[device_id] += gpu_seconds;
}

void Cloud_runtime::dispatch() {
    // Capacity just changed (a dispatch completed, a server was repaired, a
    // checkpoint freed one): labels stuck past their straggler bound get
    // first claim on any faster server that opened up.
    requeue_overdue_stragglers();
    while (!waiting_.empty()) {
        if (std::none_of(gpus_.begin(), gpus_.end(),
                         [](const Gpu_state& gpu) { return gpu.available(); })) {
            break; // every server busy or failed: nothing can be placed
        }
        // Head job: the scheduling policy's pick (overdue labels first).
        // Placement refuses only a train while just label-reserved servers
        // are idle (kind_partition); a label is placeable on any available
        // server. So a refused head falls back to the first waiting label —
        // queue position order is submission order for labels, and the
        // label counter makes the empty case O(1) — and a reserved server
        // never sits idle with a label queued behind an unplaceable train.
        // A place() sweep of the whole queue instead would turn every event
        // of an all-train backlog quadratic in queue depth.
        std::size_t pick = select_next();
        Placement_decision where = place(config_.placement, config_.label_reserved_gpus,
                                         waiting_[pick].kind, waiting_[pick].device, gpus_);
        if (where.gpu == no_gpu) {
            if (waiting_labels_ == 0) {
                break; // only trains wait, and no free server may take one
            }
            pick = 0;
            while (waiting_[pick].kind != Cloud_job_kind::label) {
                ++pick;
            }
            where = place(config_.placement, config_.label_reserved_gpus, waiting_[pick].kind,
                          waiting_[pick].device, gpus_);
        }
        // Coalesce only on the last idle server eligible for this kind:
        // while other eligible servers are free, each waiting job gets its
        // own GPU (batching must never make a job wait behind a sibling when
        // idle capacity exists).
        const bool last_eligible = eligible_free(config_.placement, config_.label_reserved_gpus,
                                                 waiting_[pick].kind, gpus_) == 1;
        const std::size_t batch_limit = last_eligible ? config_.max_batch : 1;
        auto active = std::make_shared<Active_dispatch>();
        // Assigned whether or not tracing is on, so traced and dark runs
        // transition through identical state.
        active->trace_id = next_dispatch_id_++;
        active->all_train = true;
        active->jobs.push_back(take_waiting(pick));
        while (active->jobs.size() < batch_limit && !waiting_.empty()) {
            const std::size_t next = select_next();
            SHOG_REQUIRE(next < waiting_.size(), "policy picked an out-of-range job");
            // Dispatches are kind-homogeneous: teacher-labeling batches don't
            // amortize with fine-tune kernels, and coalescing a train job
            // behind a label would make the label's completion wait out the
            // train's service — re-pinning latency past the preemption bound
            // the eviction just enforced.
            if (waiting_[next].kind != active->jobs.front().kind) {
                break;
            }
            active->jobs.push_back(take_waiting(next));
        }
        for (const Sched_job& job : active->jobs) {
            // The first job of a dispatch runs at full service time;
            // coalesced followers are discounted by the batching efficiency.
            active->service += active->jobs.front().id == job.id
                                   ? job.service
                                   : job.service * k_batch_efficiency;
            active->total_raw += job.service;
            active->all_train &= job.kind == Cloud_job_kind::train;
        }
        // Warm start: the server still holds this device's weights, so the
        // whole dispatch (weight load amortizes across coalesced members)
        // runs at a discount.
        if (where.warm) {
            active->service *= k_affinity_warm_factor;
            warm_dispatches_.add(queue_.now());
        }
        // Server speed: a straggler shard holds the dispatch (and bills its
        // occupancy) for nominal / speed wall seconds. speed 1 divides
        // exactly, so default profiles stay bit-identical.
        active->service /= gpus_[where.gpu].speed;
        for (const Sched_job& job : active->jobs) {
            const Gpu_seconds billed = Gpu_seconds::of(active->bill_of(job));
            queued_busy_seconds_ += billed;
            per_device_seconds_[job.device] += billed;
        }
        active->gpu = where.gpu;
        gpus_[where.gpu].busy = true;
        gpus_[where.gpu].resident_device = active->jobs.front().device;
        active->started = queue_.now();
        active_.push_back(active);
        // Occupancy span on the server's track (dispatches never overlap on
        // one server: each sets busy until complete/checkpoint clears it, so
        // B/E pairs nest trivially); per-member instants on the scheduler
        // track tie the queue picture back to each job id.
        SHOG_TRACE_SPAN_BEGIN(trace_, queue_.now(), obs::track_gpu(where.gpu),
                              kind_label(active->all_train), active->trace_id);
        if (where.warm) {
            SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu(where.gpu), "warm",
                               active->trace_id);
        }
        for (const Sched_job& job : active->jobs) {
            SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_cloud, "dispatch", job.id);
        }
        dispatches_.add(queue_.now());
        if (metrics_ != nullptr) {
            batch_histogram_->observe(static_cast<double>(active->jobs.size()));
        }
        queue_.schedule_in(active->service, [this, active] { complete(active); });
        // Straggler bound: only a server too slow to finish this label
        // dispatch within factor x nominal service is ever checked (on a
        // speed-1 server the bound falls past completion and no event is
        // scheduled, so healthy clouds pay nothing). A dispatch is checked
        // while it carries at least one member that has never escaped a
        // straggler — a batch that coalesced a requeued remainder with
        // fresh labels must not strand the fresh ones — and never when all
        // members are already requeued (see Sched_job::straggler_requeued
        // for the termination argument).
        if (config_.straggler_requeue_factor > 0.0 && !active->all_train) {
            bool all_requeued = true;
            for (const Sched_job& job : active->jobs) {
                all_requeued = all_requeued && job.straggler_requeued;
            }
            const Sim_duration nominal = active->service * gpus_[active->gpu].speed;
            const Sim_duration bound = config_.straggler_requeue_factor * nominal;
            if (!all_requeued && nominal > Sim_duration{} && bound < active->service) {
                queue_.schedule_in(bound, [this, active] { straggler_check(active); });
            }
        }
    }
    sample_gauges();
}

void Cloud_runtime::complete(const std::shared_ptr<Active_dispatch>& active) {
    if (active->cancelled) {
        return; // preempted; its remainder was re-queued
    }
    const Sim_time completed = queue_.now();
    active_.erase(std::find(active_.begin(), active_.end(), active));
    gpus_[active->gpu].busy = false;
    finalize_occupancy(active->gpu, active->service);
    SHOG_TRACE_SPAN_END(trace_, completed, obs::track_gpu(active->gpu),
                        kind_label(active->all_train), active->trace_id);
    completions_.add(completed, active->jobs.size());
    for (const Sched_job& job : active->jobs) {
        SHOG_TRACE_ASYNC_END(trace_, completed, obs::track_cloud,
                             kind_label(job.kind == Cloud_job_kind::train), job.id);
        if (job.kind == Cloud_job_kind::label) {
            label_wait_sum_ += active->started - job.submitted;
            label_latencies_.push_back((completed - job.submitted).value()); // quantile over raw seconds
        }
    }
    sample_gauges();
    // Completions may submit follow-up work (AMS chains a training job
    // after labeling); run them before refilling the servers so queue
    // order is preserved across the whole fleet.
    for (const Sched_job& job : active->jobs) {
        if (job.done) {
            job.done();
        }
    }
    dispatch();
}

bool Cloud_runtime::is_overdue(const Sched_job& job) const {
    // The overdue mark is authoritative: it is set by the job's own bound
    // timer, so it cannot miss by an ulp the way `now - submitted >= bound`
    // can when `now` was formed as `submitted + bound` and rounded down.
    return config_.preempt_label_wait > Sim_duration{} && job.kind == Cloud_job_kind::label &&
           (queue_.now() - job.submitted >= config_.preempt_label_wait ||
            overdue_ids_.count(job.id) != 0);
}

std::size_t Cloud_runtime::find_overdue() const {
    if (config_.preempt_label_wait == Sim_duration{} || waiting_labels_ == 0) {
        return waiting_.size();
    }
    // Among never-checkpointed labels queue position order == submission
    // order, so the *first* label is the oldest of those; if it is not
    // clock-overdue, none of them are. Labels CAN re-enter at the back with
    // an older submission time (failure/straggler checkpoints re-queue
    // them), but every such label is covered by the overdue_ids_ deep scan
    // below: checkpoint() marks it synchronously when its bound already
    // expired and re-arms its check timer otherwise (a younger label marked
    // within this same instant — the ulp corner — is covered the same way).
    for (std::size_t i = 0; i < waiting_.size(); ++i) {
        if (waiting_[i].kind != Cloud_job_kind::label) {
            continue;
        }
        if (is_overdue(waiting_[i])) {
            return i;
        }
        break;
    }
    if (!overdue_ids_.empty()) {
        std::size_t best = waiting_.size();
        for (std::size_t i = 0; i < waiting_.size(); ++i) {
            if (is_overdue(waiting_[i]) &&
                (best == waiting_.size() || fifo_before(waiting_[i], waiting_[best]))) {
                best = i;
            }
        }
        return best;
    }
    return waiting_.size();
}

std::size_t Cloud_runtime::select_next() const {
    // An overdue label outranks any policy's pick: the wait bound is a
    // guarantee, not a preference. Without this, preempting a train frees a
    // server only for the policy to hand it to the next queued train, and
    // the starved label keeps waiting.
    const std::size_t overdue = find_overdue();
    if (overdue != waiting_.size()) {
        return overdue;
    }
    return select_job(config_.policy, waiting_, per_device_seconds_, queue_.now());
}

void Cloud_runtime::preempt_check(std::uint64_t job_id) {
    if (!is_waiting(job_id)) {
        return; // the label job got served (or another check already acted)
    }
    // The bound has expired for this job while it waits: record that fact so
    // the overdue override in select_next sees it from now on (the clock
    // test alone can round an ulp short at exactly the timer's firing time).
    overdue_ids_.insert(job_id);
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_cloud, "overdue", job_id);
    // Evict the all-train dispatch with the most remaining service; ties
    // fall to the earliest-started dispatch (deterministic).
    std::shared_ptr<Active_dispatch> victim;
    Sim_duration victim_remaining;
    for (const auto& active : active_) {
        if (!active->all_train || active->cancelled) {
            continue;
        }
        const Sim_duration remaining = active->remaining(queue_.now());
        if (remaining <= Sim_duration{}) {
            continue; // completes at this very instant; nothing to reclaim
        }
        if (!victim || remaining > victim_remaining) {
            victim = active;
            victim_remaining = remaining;
        }
    }
    if (victim) {
        preemptions_.add(queue_.now());
        SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu(victim->gpu), "preempt",
                           victim->trace_id);
        checkpoint(victim);
        dispatch();
    }
    // No victim is not a pass: the job is now marked overdue, so it outranks
    // every policy pick at the next server-free instant — no train can jump
    // ahead of it, however long it waits. (A *polling* re-arm would instead
    // put every waiting label on a periodic timer and blow the event queue
    // up quadratically when oversubscribed.)
}

void Cloud_runtime::checkpoint(std::shared_ptr<Active_dispatch> active) {
    const Sim_duration elapsed = queue_.now() - active->started;
    const double frac_done =
        active->service > Sim_duration{} ? elapsed / active->service : 1.0;
    // Refund the unexecuted share of each member's bill and truncate the
    // occupancy interval to what actually ran.
    for (const Sched_job& job : active->jobs) {
        const Gpu_seconds refund = Gpu_seconds::of(active->bill_of(job) * (1.0 - frac_done));
        queued_busy_seconds_ -= refund;
        per_device_seconds_[job.device] -= refund;
    }
    finalize_occupancy(active->gpu, elapsed);
    active->cancelled = true;
    active_.erase(std::find(active_.begin(), active_.end(), active));
    gpus_[active->gpu].busy = false;
    // The occupancy span ends truncated at the checkpoint, which it encloses;
    // the cancelled completion event emits nothing, so the track stays
    // well-nested.
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu(active->gpu), "checkpoint",
                       active->trace_id);
    SHOG_TRACE_SPAN_END(trace_, queue_.now(), obs::track_gpu(active->gpu),
                        kind_label(active->all_train), active->trace_id);
    // Checkpoint/resume: the unexecuted remainder goes back in the queue as
    // the same jobs with proportionally reduced service; `submitted` stays
    // at first submission so latency covers the interruption. The warm
    // discount and server speed (if any) were baked into active->service,
    // so frac_done prices the raw remainder consistently on whichever
    // server resumes it. A job with a resume planner may shrink its
    // remainder further (an AMS fine-tune drops samples that went stale
    // while checkpointed) — never grow it, so billing stays conservative.
    for (Sched_job& job : active->jobs) {
        Sim_duration remainder = job.service * (1.0 - frac_done);
        if (job.replan) {
            remainder = std::clamp(job.replan(remainder, queue_.now()), Sim_duration{},
                                   remainder);
        }
        const bool is_label = job.kind == Cloud_job_kind::label;
        const std::uint64_t id = job.id;
        const Sim_time submitted = job.submitted;
        job.service = remainder;
        enqueue(std::move(job));
        SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_cloud, "requeue", id);
        requeues_.add(queue_.now());
        // Re-arm the wait bound for re-queued *labels* (failure and
        // straggler checkpoints re-queue them; pre-reliability only train
        // remainders were ever re-enqueued): the submit-time one-shot timer
        // is long spent, so without this the bound would silently lapse —
        // the exact bug class the overdue mark fixed for the waiting path.
        // The bound still measures from first submission. A label already
        // past it is marked overdue *synchronously*: the caller's very next
        // dispatch() must see the override (find_overdue's deep scan keys
        // off overdue_ids_), or a policy could hand the freed server to a
        // train that the 0-delay check would then immediately preempt. The
        // scheduled check still runs for the eviction itself.
        if (is_label && config_.preempt_label_wait > Sim_duration{}) {
            const Sim_time expires = submitted + config_.preempt_label_wait;
            if (queue_.now() >= expires) {
                overdue_ids_.insert(id);
            }
            queue_.schedule_in(std::max(Sim_duration{}, expires - queue_.now()),
                               [this, id] { preempt_check(id); });
        }
    }
    peak_depth_ = std::max(peak_depth_, waiting_.size());
    sample_gauges();
}

void Cloud_runtime::schedule_failure(std::size_t g) {
    const Gpu_profile& profile = profile_of(g);
    if (!std::isfinite(profile.mtbf.value())) { // raw read: finiteness test
        return; // never fails; draws nothing from its substream
    }
    queue_.schedule_in(exponential_delay(failure_rngs_[g], profile.mtbf),
                       [this, g] { fail_server(g); });
}

void Cloud_runtime::fail_server(std::size_t g) {
    gpus_[g].failed = true;
    failures_.add(queue_.now());
    // Outage span on the server's *health* track (separate from occupancy,
    // so a failure mid-dispatch never interleaves with the dispatch span's
    // B/E nesting).
    SHOG_TRACE_SPAN_BEGIN(trace_, queue_.now(), obs::track_gpu_health(g), "down", g);
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu_health(g), "server_fail", g);
    // Checkpoint the in-flight dispatch (if any) exactly like a preemption:
    // the executed share stays billed, the remainder re-queues at the
    // original submission time. A dispatch completing at this very instant
    // is left to its completion event (nothing to reclaim; the failed flag
    // keeps the server unplaceable once busy clears).
    const auto held = std::find_if(active_.begin(), active_.end(),
                                   [g](const auto& active) { return active->gpu == g; });
    if (held != active_.end() && (*held)->remaining(queue_.now()) > Sim_duration{}) {
        checkpoint(*held);
    }
    queue_.schedule_in(exponential_delay(failure_rngs_[g], profile_of(g).mttr),
                       [this, g] { repair_server(g); });
    // A checkpointed remainder (or queued work) may fit on another server.
    dispatch();
}

void Cloud_runtime::repair_server(std::size_t g) {
    gpus_[g].failed = false;
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu_health(g), "server_repair", g);
    SHOG_TRACE_SPAN_END(trace_, queue_.now(), obs::track_gpu_health(g), "down", g);
    schedule_failure(g); // next failure clock starts at repair
    dispatch();
}

bool Cloud_runtime::is_in_flight(const std::shared_ptr<Active_dispatch>& active) const {
    return !active->cancelled &&
           std::find(active_.begin(), active_.end(), active) != active_.end();
}

bool Cloud_runtime::faster_server_free(double speed) const {
    for (const Gpu_state& gpu : gpus_) {
        if (gpu.available() && gpu.speed > speed) {
            return true;
        }
    }
    return false;
}

void Cloud_runtime::straggler_check(const std::shared_ptr<Active_dispatch>& active) {
    if (!is_in_flight(active)) {
        return; // completed, or some other checkpoint already re-queued it
    }
    if (faster_server_free(gpus_[active->gpu].speed)) {
        requeue_straggler(active);
        dispatch();
        return;
    }
    // No faster server free right now. Mark the dispatch overdue instead of
    // polling: dispatch() re-examines marked stragglers at every capacity
    // change (completion, repair, checkpoint), which are exactly the
    // instants a faster server can open up.
    active->straggler_overdue = true;
}

void Cloud_runtime::requeue_overdue_stragglers() {
    if (config_.straggler_requeue_factor <= 0.0 || active_.empty()) {
        return;
    }
    // Collect first: checkpoint() erases from active_. Victims are examined
    // in dispatch-start order, so the re-queue order is deterministic. Two
    // guards keep a job's single straggler escape from being wasted: a
    // dispatch completing at this very instant has nothing left to reclaim
    // (its completion event fires later within this same tick — same
    // remaining > 0 rule as preempt_check and fail_server), and each victim
    // must be matched to its *own* strictly faster free server (greedy
    // one-to-one reservation) — checkpointing two stragglers against one
    // freed fast server would re-place the loser on a slow shard with its
    // escape burned, the stuck-label outcome this machinery exists to
    // prevent. (The dispatch loop below may still hand a reserved server to
    // an older queued job — that job is starved too; capacity freed is
    // capacity used.)
    std::vector<bool> reserved(gpus_.size(), false);
    std::vector<std::shared_ptr<Active_dispatch>> victims;
    for (const auto& active : active_) {
        if (!active->straggler_overdue || active->remaining(queue_.now()) <= Sim_duration{}) {
            continue;
        }
        std::size_t fastest = no_gpu;
        for (std::size_t g = 0; g < gpus_.size(); ++g) {
            if (gpus_[g].available() && !reserved[g] &&
                gpus_[g].speed > gpus_[active->gpu].speed &&
                (fastest == no_gpu || gpus_[g].speed > gpus_[fastest].speed)) {
                fastest = g;
            }
        }
        if (fastest != no_gpu) {
            reserved[fastest] = true;
            victims.push_back(active);
        }
    }
    for (const auto& victim : victims) {
        requeue_straggler(victim);
    }
}

void Cloud_runtime::requeue_straggler(const std::shared_ptr<Active_dispatch>& active) {
    straggler_requeues_.add(queue_.now());
    SHOG_TRACE_INSTANT(trace_, queue_.now(), obs::track_gpu(active->gpu), "straggler_requeue",
                       active->trace_id);
    for (Sched_job& job : active->jobs) {
        job.straggler_requeued = true;
    }
    checkpoint(active);
}

Gpu_seconds Cloud_runtime::device_gpu_seconds(std::size_t device_id) const {
    return device_id < per_device_seconds_.size() ? per_device_seconds_[device_id]
                                                  : Gpu_seconds{};
}

void Cloud_runtime::finalize_occupancy(std::size_t gpu, Sim_duration elapsed) {
    // The one wall-span -> billed-occupancy conversion of the finalize path.
    const Gpu_seconds billed = Gpu_seconds::of(elapsed);
    gpu_finalized_busy_[gpu] += billed;
    finalized_busy_ += billed;
    max_finalized_end_ = std::max(max_finalized_end_, queue_.now());
}

Gpu_seconds Cloud_runtime::busy_seconds_within(Sim_time horizon) const {
    // Finished dispatches were folded into the accumulators as they ended;
    // only the handful still in flight need clamping to the horizon (a job
    // straddling the end of the run counts its in-horizon part only).
    SHOG_REQUIRE(horizon >= max_finalized_end_,
                 "occupancy horizon precedes an already-finished dispatch");
    Gpu_seconds in_horizon = finalized_busy_;
    for (const auto& active : active_) {
        if (active->started >= horizon) {
            continue;
        }
        in_horizon += Gpu_seconds::of(std::min(active->service, horizon - active->started));
    }
    return in_horizon + direct_seconds_;
}

std::vector<Gpu_seconds> Cloud_runtime::per_gpu_busy_within(Sim_time horizon) const {
    SHOG_REQUIRE(horizon >= max_finalized_end_,
                 "occupancy horizon precedes an already-finished dispatch");
    std::vector<Gpu_seconds> per_gpu = gpu_finalized_busy_;
    for (const auto& active : active_) {
        if (active->started >= horizon) {
            continue;
        }
        per_gpu[active->gpu] +=
            Gpu_seconds::of(std::min(active->service, horizon - active->started));
    }
    return per_gpu;
}

double Cloud_runtime::utilization(Sim_time horizon) const {
    SHOG_REQUIRE(horizon > Sim_time{}, "horizon must be positive");
    const Gpu_seconds capacity =
        Gpu_seconds::of(horizon.since_start()) * static_cast<double>(config_.gpu_count);
    return busy_seconds_within(horizon) / capacity;
}

Sim_duration Cloud_runtime::mean_label_latency() const {
    // Summed in completion order, as the latencies were recorded.
    return labels_completed() > 0
               ? Sim_duration{std::accumulate(label_latencies_.begin(),
                                              label_latencies_.end(), 0.0)} /
                     static_cast<double>(labels_completed())
               : Sim_duration{};
}

Sim_duration Cloud_runtime::p95_label_latency() const {
    return label_latencies_.empty()
               ? Sim_duration{}
               : Sim_duration{quantile(label_latencies_, 0.95)}; // quantile yields raw seconds
}

Sim_duration Cloud_runtime::mean_label_wait() const {
    return labels_completed() > 0
               ? label_wait_sum_ / static_cast<double>(labels_completed())
               : Sim_duration{};
}

} // namespace shog::sim
