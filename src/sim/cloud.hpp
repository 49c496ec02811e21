// Shared cloud runtime: the contended, sharded GPU scheduler of a
// multi-edge cluster.
//
// Every device's cloud-side work (teacher labeling for Shoggoth/Prompt,
// labeling + whole-model fine-tuning for AMS) is submitted as a job with a
// service time; jobs from all devices drain through `gpu_count` individually
// tracked GPU servers, optionally coalesced into batched dispatches.
// Dispatch *order* is a pluggable Scheduling_policy (sim/policy.hpp): FIFO
// by default, label-first priority, per-device fair share, or drift-weighted
// staleness; *which server* a dispatch lands on is a pluggable
// Placement_policy (sim/placement.hpp): any free server, device affinity
// with a warm-start discount, or a kind partition that reserves servers for
// labels. In-flight all-train dispatches can be preempted when a label job
// has waited too long. Cloud GPU seconds, queueing delay and label latency
// therefore *emerge* from contention instead of being summed per-run, which
// is what makes the paper's devices-per-GPU scalability claim measurable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/event_queue.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/placement.hpp"
#include "sim/policy.hpp"

namespace shog::sim {

/// Reliability profile of one GPU server. The defaults (speed 1, MTBF =
/// infinity) are an exact no-op: a cloud of default profiles is bit-identical
/// to one with no profiles at all (no RNG draws, no failure events, service
/// times untouched).
struct Gpu_profile {
    /// Service-speed multiplier: a dispatch of nominal service S occupies
    /// this server for S / speed wall seconds (and bills that occupancy).
    /// 1.0 is the reference server; 0.25 is a 4x straggler.
    double speed = 1.0;
    /// Mean time between failures (exponential). A failure checkpoints any
    /// in-flight dispatch exactly like label-wait preemption — the executed
    /// share stays billed, the remainder is re-queued at the original
    /// submission time — and the server takes no work until repaired.
    /// Infinity (the default) means the server never fails.
    Sim_duration mtbf{std::numeric_limits<double>::infinity()};
    /// Mean time to repair (exponential); read only when mtbf is finite.
    Sim_duration mttr{20.0};
};

struct Cloud_config {
    /// Parallel GPU servers in the cloud.
    std::size_t gpu_count = 1;
    /// Max queued jobs coalesced into one dispatch (1 = pure FIFO). Jobs in
    /// a coalesced dispatch all complete when the whole dispatch does.
    /// Dispatches are kind-homogeneous: label jobs never coalesce with
    /// train jobs (different kernels, and a train rider would pin the
    /// labels' completion past any latency bound). Coalescing happens only
    /// on the last idle server *eligible for the job's kind* — while other
    /// eligible servers are free, each waiting job gets its own GPU.
    std::size_t max_batch = 1;
    /// Cost factor on the service time of every coalesced job after the
    /// first (GPU batching amortizes weight loads and kernel launches).
    double batch_efficiency = 0.7;
    /// Dispatch-order policy; fifo reproduces the PR 1 scheduler exactly.
    Policy_kind policy = Policy_kind::fifo;
    /// Server-placement policy; any_free reproduces the pre-sharding
    /// undifferentiated pool exactly (lowest-index free server).
    Placement_kind placement = Placement_kind::any_free;
    /// kind_partition only: servers [0, label_reserved_gpus) never run
    /// train dispatches. Must be < gpu_count (trains need at least one
    /// server); labels may use every server.
    std::size_t label_reserved_gpus = 0;
    /// device_affinity only: multiplier on a dispatch's service time when it
    /// starts on the server that last ran the same device (weights still
    /// resident — no reload, warm caches). 1.0 disables the discount.
    double affinity_warm_factor = 0.85;
    /// If > 0: when a label job has waited this long with every server busy
    /// and at least one all-train dispatch in flight, that dispatch is
    /// preempted — its executed share stays billed, the remaining service is
    /// checkpointed and re-queued (original submission time preserved) — so
    /// a long AMS fine-tune cannot pin label latency past the bound. The
    /// bound cannot silently lapse: if no train is in flight when it first
    /// expires, the job is marked overdue and outranks every policy pick
    /// from then on, so no later train can be dispatched ahead of it — a
    /// bare one-shot timer could otherwise let the label wait out an entire
    /// fine-tune (the expiry test `now - submitted >= bound` can also miss
    /// by an ulp at the timer's own firing time; the mark is immune). 0
    /// disables preemption.
    Sim_duration preempt_label_wait;
    /// Per-server reliability profiles. Empty (the default) means every
    /// server runs the default profile; otherwise the size must equal
    /// gpu_count.
    std::vector<Gpu_profile> gpu_profiles;
    /// Base seed of the per-server failure RNG substreams (server g draws
    /// its failure/repair times from split(g), so fleets of any size replay
    /// bit-identically and adding a server never shifts another's failures).
    std::uint64_t reliability_seed = 0x7e11ab1e;
    /// If >= 1: a *label* dispatch running on a straggling server past
    /// `straggler_requeue_factor x` its nominal (speed-1) service is
    /// checkpointed and re-queued as soon as a strictly faster server is
    /// free — executed share billed, remainder re-queued at the original
    /// submission time — so one slow shard cannot pin a label's latency when
    /// healthy capacity opens up. Only dispatches whose server would hold
    /// them past the bound (speed < 1 / factor) are ever checked, and a job
    /// escapes at most once (Sched_job::straggler_requeued) — where the
    /// remainder lands is still the placement policy's call. 0 disables
    /// straggler re-queueing.
    double straggler_requeue_factor = 0.0;
};

class Cloud_runtime {
public:
    using Completion = std::function<void()>;
    /// Resume planner: see Sched_job::replan.
    using Resume_replan = std::function<Sim_duration(Sim_duration, Sim_time)>;

    Cloud_runtime(Event_queue& queue, Cloud_config config = {});

    /// Virtual so the sharded engine's per-device proxy (sim/shard.cpp) can
    /// interpose on the three calls an Edge_runtime makes: submit,
    /// account_direct and device_gpu_seconds. Everything else (dispatch,
    /// completion, statistics) only ever runs on the real instance.
    virtual ~Cloud_runtime() = default;

    /// Queue `service` seconds of GPU work on behalf of `device_id`; `done`
    /// fires on the shared clock once a server has executed the job (after
    /// any queueing delay behind other devices' jobs). `drift_rate` is the
    /// device's current model-drift estimate (|d alpha / dt|); the staleness
    /// policy uses it to label the fastest-rotting device first. `replan`,
    /// if set, re-prices the job's remainder whenever a checkpoint re-queues
    /// it (see Sched_job::replan).
    virtual void submit(std::size_t device_id, Sim_duration service, Completion done,
                        Cloud_job_kind kind = Cloud_job_kind::label,
                        double drift_rate = 0.0, Resume_replan replan = {});

    /// Account GPU time for analytically-modeled work that bypasses the
    /// queue (Cloud-Only's synchronous per-frame pipeline).
    virtual void account_direct(std::size_t device_id, Gpu_seconds gpu_seconds);

    /// Hand completion callbacks to an external coordinator instead of
    /// running them inline. When set, complete() forwards each finished
    /// job's non-empty `done` to the sink (in job order within the
    /// dispatch) and defers its own trailing dispatch() until
    /// resume_dispatch() — the coordinator runs every callback (each may
    /// submit follow-up work, and submit()'s internal dispatch must see the
    /// servers still unfilled, exactly as an inline callback would) and
    /// then resumes. The sharded engine uses this to route callbacks onto
    /// the owning device's shard thread while keeping fleet-wide queue
    /// order.
    using Completion_sink = std::function<void(std::size_t device_id, Completion done)>;
    void set_completion_sink(Completion_sink sink) { sink_ = std::move(sink); }
    /// Run the dispatch() deferred by a sink handoff. No-op when nothing
    /// was deferred.
    void resume_dispatch();

    /// Install the trace channel and metrics registry (both may be null /
    /// dark — the default, a true no-op). Called once by the engines before
    /// any event runs, and only on the REAL cloud: the sharded engine's
    /// per-device proxies must never emit (their calls replay here, through
    /// the coordinator, in the sequential engine's order — which is exactly
    /// what makes the trace shard-count-invariant). Threading: mutator,
    /// owner-thread only, like every other non-const member.
    void set_observability(obs::Trace_channel trace, obs::Metrics_registry* metrics);

    /// Jobs currently waiting behind busy servers (the queue-depth gauge
    /// reads this instead of reaching into waiting_). Threading: reads
    /// engine-owned state — call only from the thread driving this
    /// runtime's event queue (the coordinator in sharded runs); no locking,
    /// per the phase-ownership discipline in docs/ANALYSIS.md.
    [[nodiscard]] std::size_t queue_depth() const noexcept { return waiting_.size(); }

    /// Total GPU seconds committed (queued service + direct accounting).
    /// Includes the full service of jobs still running at the end of a run;
    /// use busy_seconds_within() for horizon-consistent occupancy.
    [[nodiscard]] Gpu_seconds busy_seconds() const noexcept {
        return queued_busy_seconds_ + direct_seconds_;
    }
    /// GPU seconds spent inside [0, horizon]: finished dispatches are
    /// accounted incrementally as they complete or checkpoint (no end-of-run
    /// interval scan); only the <= gpu_count dispatches still in flight are
    /// clamped at query time. `horizon` must therefore not precede any
    /// already-finished dispatch — true for every run_until(horizon) caller,
    /// since completions past the horizon never execute.
    [[nodiscard]] Gpu_seconds busy_seconds_within(Sim_time horizon) const;
    /// Per-server GPU seconds inside [0, horizon] (no direct accounting —
    /// direct work never touches a specific server). Shard balance metric.
    /// Same horizon contract as busy_seconds_within().
    [[nodiscard]] std::vector<Gpu_seconds> per_gpu_busy_within(Sim_time horizon) const;
    /// GPU seconds attributed to one device.
    [[nodiscard]] virtual Gpu_seconds device_gpu_seconds(std::size_t device_id) const;
    /// busy_seconds_within(horizon) / (horizon * gpu_count). > 1 means
    /// oversubscribed direct work.
    [[nodiscard]] double utilization(Sim_time horizon) const;

    [[nodiscard]] std::size_t jobs_completed() const noexcept { return completions_.count; }
    [[nodiscard]] std::size_t labels_completed() const noexcept {
        return label_latencies_.size();
    }
    /// Largest number of jobs ever left waiting behind busy servers (0 on a
    /// fully uncontended cluster).
    [[nodiscard]] std::size_t peak_queue_depth() const noexcept { return peak_depth_; }
    /// Train dispatches checkpointed and re-queued to unblock label jobs.
    [[nodiscard]] std::size_t preemptions() const noexcept { return preemptions_.count; }
    /// Dispatches that started on a warm server (device_affinity hit).
    [[nodiscard]] std::size_t warm_dispatches() const noexcept { return warm_dispatches_.count; }
    /// Server failure events (each checkpoints any in-flight dispatch).
    [[nodiscard]] std::size_t failures() const noexcept { return failures_.count; }
    /// Label dispatches checkpointed off a straggling server onto a faster
    /// one (straggler_requeue_factor hits).
    [[nodiscard]] std::size_t straggler_requeues() const noexcept {
        return straggler_requeues_.count;
    }

    /// Label-job statistics (training jobs excluded, so an AMS fleet's
    /// fine-tunes don't masquerade as label latency). The means come from
    /// running sums; the p95 is quantile() over every completed latency.
    [[nodiscard]] Sim_duration mean_label_latency() const;
    [[nodiscard]] Sim_duration p95_label_latency() const;
    [[nodiscard]] Sim_duration mean_label_wait() const;

private:
    /// One in-flight dispatch (needed for preemption: the completion event
    /// cannot be removed from the queue, so it checks `cancelled` instead).
    struct Active_dispatch {
        std::vector<Sched_job> jobs;
        Sim_time started;
        Sim_duration service;   ///< wall duration == billed total
        Sim_duration total_raw; ///< sum of member raw service (bill shares)
        std::size_t gpu = no_gpu; ///< server this dispatch occupies
        bool all_train = false;
        bool cancelled = false;
        /// Label dispatch past its straggler bound with no faster server
        /// free at check time; the next capacity change re-examines it.
        bool straggler_overdue = false;
        /// Stable id linking this dispatch's trace span begin/end/instants
        /// (assigned unconditionally so traced and dark runs transition
        /// through identical state).
        std::uint64_t trace_id = 0;

        /// Service left at `now` (<= 0 once the completion instant is due).
        [[nodiscard]] Sim_duration remaining(Sim_time now) const {
            return started + service - now;
        }
        /// Member `job`'s share of the billed `service`, in proportion to
        /// raw service, so which member arrived first cannot skew any
        /// device's GPU-seconds ledger (the first-job full-price term, the
        /// warm discount and the server speed belong to the *dispatch*).
        [[nodiscard]] Sim_duration bill_of(const Sched_job& job) const {
            const double share = total_raw > Sim_duration{}
                                     ? job.service / total_raw
                                     : 1.0 / static_cast<double>(jobs.size());
            return service * share;
        }
    };

    /// The count of one job lifecycle edge: always on (the accessors, and
    /// so Cluster_result, read it) and mirrored into the edge's registry
    /// series once set_observability installs one, so recording an edge is
    /// one add() whether or not metrics are on.
    struct Tally {
        std::size_t count = 0;
        obs::Counter* series = nullptr; ///< borrowed; null = metrics off
        void add(Sim_time at, std::size_t n = 1) {
            count += n;
            if (series != nullptr) {
                series->add(at, n);
            }
        }
    };

    /// Start dispatches while an eligible server is idle and jobs wait.
    void dispatch();
    /// Next job to dispatch: an overdue label (past the preemption bound)
    /// if one is waiting, else the policy's pick.
    [[nodiscard]] std::size_t select_next() const;
    void complete(const std::shared_ptr<Active_dispatch>& active);
    /// Fired when a label job's preemption bound expires: marks the job
    /// overdue, then checkpoints the in-flight all-train dispatch with the
    /// most remaining service and re-queues its remainder. No victim right
    /// now is not a pass — the overdue mark outranks every policy pick from
    /// then on (and dispatch() keeps a defensive re-arm for placements that
    /// could refuse labels).
    void preempt_check(std::uint64_t job_id);
    /// Shared checkpoint/resume core of preemption, server failure and
    /// straggler re-queueing: refund the unexecuted share of the bill,
    /// truncate the occupancy interval to what ran, cancel the completion
    /// event, free the server and re-queue each member's remainder (replan
    /// hook applied) at its original submission time. The caller records
    /// its own edge. Takes the pointer *by value* on purpose: this function
    /// erases from active_, so a caller-supplied reference into that vector
    /// (e.g. `checkpoint(active_[i])`) would dangle onto the next element
    /// mid-function — freeing the wrong server and re-queueing the wrong
    /// jobs. The copy pins the dispatch for the whole call.
    void checkpoint(std::shared_ptr<Active_dispatch> active);
    /// Fold a finished occupancy interval [started, started + elapsed) on
    /// server `gpu` into the incremental busy accumulators.
    void finalize_occupancy(std::size_t gpu, Sim_duration elapsed);
    /// Arm the failure timer of server `g` (no-op when its MTBF is
    /// infinite). Failure and repair delays come from the server's own RNG
    /// substream, so the process is independent of the job stream.
    void schedule_failure(std::size_t g);
    void fail_server(std::size_t g);
    void repair_server(std::size_t g);
    /// Fired `straggler_requeue_factor x nominal` after a label dispatch
    /// started on a server too slow to finish it by then: checkpoint it onto
    /// a strictly faster free server, or mark it for the next capacity
    /// change (see requeue_overdue_stragglers).
    void straggler_check(const std::shared_ptr<Active_dispatch>& active);
    /// Record a straggler escape and checkpoint `active` off its server;
    /// every member is marked so the dispatch escapes at most once.
    void requeue_straggler(const std::shared_ptr<Active_dispatch>& active);
    /// Re-queue marked straggler dispatches for which a strictly faster
    /// server has become free. Runs at the top of dispatch(), i.e. at every
    /// capacity change.
    void requeue_overdue_stragglers();
    [[nodiscard]] bool is_in_flight(const std::shared_ptr<Active_dispatch>& active) const;
    /// A free, non-failed server strictly faster than `speed`.
    [[nodiscard]] bool faster_server_free(double speed) const;
    [[nodiscard]] bool is_waiting(std::uint64_t job_id) const {
        return waiting_ids_.count(job_id) != 0;
    }
    /// Waiting label whose bound expired (marked by its check timer, or
    /// clock-based for robustness).
    [[nodiscard]] bool is_overdue(const Sched_job& job) const;
    /// Index of the oldest overdue waiting label, or waiting_.size() if
    /// none. O(position of the first waiting label): labels are never
    /// re-enqueued, so queue position order is submission order for labels
    /// and the first one is the only clock-overdue candidate (a deeper scan
    /// happens only when a younger label was explicitly marked overdue).
    [[nodiscard]] std::size_t find_overdue() const;
    void enqueue(Sched_job job);
    /// Remove and return waiting_[index] (clears its id from the waiting /
    /// overdue index sets).
    [[nodiscard]] Sched_job take_waiting(std::size_t index);
    void ensure_device(std::size_t device_id);
    [[nodiscard]] const Gpu_profile& profile_of(std::size_t g) const noexcept {
        static constexpr Gpu_profile default_profile{};
        return g < config_.gpu_profiles.size() ? config_.gpu_profiles[g] : default_profile;
    }
    /// Short name of a dispatch/job for trace span labels.
    [[nodiscard]] static const char* kind_label(bool all_train) noexcept {
        return all_train ? "train" : "label";
    }
    /// Sample the queue-depth / busy-GPU gauges at the current sim time
    /// (no-op when no registry is installed; the gauges coalesce repeated
    /// same-time samples, so callers fire this after every state change
    /// without worrying about duplicates).
    void sample_gauges();

    Event_queue& queue_;
    Cloud_config config_;
    std::unique_ptr<Scheduling_policy> policy_;
    std::unique_ptr<Placement_policy> placement_;
    std::deque<Sched_job> waiting_; ///< insertion-ordered (== seq order)
    std::size_t waiting_labels_ = 0; ///< label jobs currently in waiting_
    /// Ids of waiting jobs: O(1) is_waiting instead of a queue scan per
    /// label submit (quadratic in queue depth at large fleet sizes). Never
    /// iterated — unordered_set iteration order is the canonical
    /// nondeterminism leak, so the lint holds this member to
    /// membership/insert/erase only; ordered traversal goes through
    /// waiting_ (the seq-ordered deque).
    std::unordered_set<std::uint64_t> waiting_ids_; // shog-lint: membership-only
    /// Waiting label jobs whose preemption bound expired (set by their
    /// check timer; cleared on dispatch). See preempt_check. Only `empty()`
    /// and `count()` are consulted; find_overdue's deep scan walks the
    /// seq-ordered waiting_ deque, never this set.
    std::unordered_set<std::uint64_t> overdue_ids_; // shog-lint: membership-only
    std::vector<std::shared_ptr<Active_dispatch>> active_;
    std::vector<Gpu_state> gpus_;
    /// Per-server failure RNG substreams (only servers with a finite MTBF
    /// ever draw from theirs).
    std::vector<Rng> failure_rngs_;
    std::size_t peak_depth_ = 0;
    /// One tally per job lifecycle edge; set_observability names each
    /// one's registry series.
    Tally submits_;
    Tally dispatches_;
    Tally warm_dispatches_;
    Tally completions_;
    Tally preemptions_;
    Tally requeues_;
    Tally straggler_requeues_;
    Tally failures_;
    std::uint64_t next_job_id_ = 0;
    std::uint64_t next_seq_ = 0;
    Gpu_seconds queued_busy_seconds_;
    Gpu_seconds direct_seconds_;
    std::vector<Gpu_seconds> per_device_seconds_;
    /// Occupancy of dispatches that already finished (completed or
    /// checkpointed), accumulated as they finish — replaces the former
    /// unbounded interval log + end-of-run scan. `finalize_occupancy`
    /// updates all three together.
    std::vector<Gpu_seconds> gpu_finalized_busy_;
    Gpu_seconds finalized_busy_;
    Sim_time max_finalized_end_;
    Sim_duration label_latency_sum_;
    Sim_duration label_wait_sum_;
    /// Every completed label's latency in raw seconds, in completion order;
    /// its size() is labels_completed().
    std::vector<double> label_latencies_;
    Completion_sink sink_;
    /// complete() handed >= 1 callback to the sink and skipped its trailing
    /// dispatch(); resume_dispatch() clears it.
    bool dispatch_deferred_ = false;

    // Observability (all dark/null by default; see set_observability).
    obs::Trace_channel trace_;
    obs::Metrics_registry* metrics_ = nullptr; ///< borrowed; null = metrics off
    /// Cached instrument handles (stable for the registry's lifetime), so
    /// the hot path never does a name lookup.
    obs::Gauge* depth_gauge_ = nullptr;
    obs::Gauge* busy_gauge_ = nullptr;
    obs::Histogram* batch_histogram_ = nullptr;
    /// Monotone dispatch id (see Active_dispatch::trace_id); incremented
    /// whether or not tracing is on.
    std::uint64_t next_dispatch_id_ = 0;
};

} // namespace shog::sim
