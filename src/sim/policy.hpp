// Cloud GPU scheduling policies.
//
// Cloud_runtime's dispatch order is one of four policies, chosen by
// Cloud_config::policy: given the waiting jobs and the per-device
// GPU-seconds ledger, select_job picks which job starts (or joins a
// coalesced dispatch) next. `fifo` serves jobs in enqueue order;
// `priority` serves label jobs before train jobs so AMS-style whole-model
// fine-tunes cannot starve Shoggoth's small labeling requests;
// `fair_share` is a deficit round-robin on accumulated per-device GPU
// seconds, so one chatty (or fine-tune-heavy) device cannot monopolize the
// pool under a heterogeneous fleet; `staleness` orders label jobs by
// time-since-submission weighted by the submitting device's drift rate (cf.
// AMS, Khani et al.), so the device whose deployed model is rotting fastest
// gets labeled first.
//
// Policies see the waiting queue in *insertion order*: the scheduler only
// push_backs and erases, so position order always equals the per-job `seq`
// enqueue counter (fifo can just take the front in O(1)). Tiebreaks still
// bottom out on `seq` explicitly, so a policy never depends on position
// beyond that invariant.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "common/units.hpp"

namespace shog::sim {

/// What a GPU job is for; label jobs feed the per-fleet label-latency
/// statistics, training jobs (AMS cloud fine-tunes) only count toward
/// occupancy.
enum class Cloud_job_kind { label, train };

enum class Policy_kind { fifo, priority, fair_share, staleness };

[[nodiscard]] const char* to_string(Policy_kind kind) noexcept;

/// Inverse of to_string ("fifo", "priority", "fair_share", "staleness");
/// throws on unknown names (bench CLI input).
[[nodiscard]] Policy_kind policy_by_name(const char* name);

/// One queued GPU job as the scheduler sees it. `service` is the *remaining*
/// raw service time (preemption re-queues a checkpointed job with the
/// unexecuted remainder); `submitted` never changes across re-queues, so
/// latency always measures from first submission. `seq` is the enqueue
/// counter (re-assigned when a preempted remainder re-enters the queue) and
/// is the queue-order tiebreak every policy bottoms out on.
struct Sched_job {
    std::size_t device = 0;
    Sim_duration service;
    Sim_time submitted;
    std::function<void()> done;
    Cloud_job_kind kind = Cloud_job_kind::label;
    std::uint64_t id = 0;
    std::uint64_t seq = 0;
    /// Submitting device's model-drift rate (|d alpha / dt| estimate, from
    /// Cloud_runtime::submit); only the staleness policy reads it. 0 means
    /// "no signal" and falls back to the policy's drift floor.
    double drift_rate = 0.0;
    /// Optional resume planner: when a checkpoint (preemption, server
    /// failure, straggler re-queue) puts this job's remainder back in the
    /// queue, the scheduler calls `replan(remainder, now)` and re-queues the
    /// returned service instead — clamped to [0, remainder], so a planner
    /// can only *shrink* the remaining work (an AMS fine-tune drops samples
    /// that went stale while it sat checkpointed), never inflate the bill.
    std::function<Sim_duration(Sim_duration, Sim_time)> replan;
    /// This job was already re-queued off a straggling server. A dispatch
    /// whose members have all escaped once is never checked again: a
    /// placement that puts the remainder straight back on the slow shard
    /// (index-ordered ones do) would otherwise re-checkpoint it forever —
    /// the remainder halves each round until the time increment underflows
    /// and stops shrinking at all. A marked job can escape again only by
    /// coalescing with a never-requeued label (the fresh member must not be
    /// stranded), and every escape marks all members, so total re-queues
    /// are bounded by the number of labels ever submitted.
    bool straggler_requeued = false;
};

/// Queue-order comparison shared by the policies and the scheduler's
/// overdue/fallback picks: older submission first, enqueue order on ties.
/// This is exactly the pre-sharding deque order (jobs are pushed in seq
/// order and erased in place, preserving it) — keep the two users in sync
/// by never duplicating this rule.
[[nodiscard]] inline bool fifo_before(const Sched_job& a, const Sched_job& b) noexcept {
    if (a.submitted != b.submitted) {
        return a.submitted < b.submitted;
    }
    return a.seq < b.seq;
}

/// Index into `waiting` (non-empty, insertion-ordered) of the job `kind`
/// dispatches next. `device_gpu_seconds` is the billed-GPU-seconds ledger
/// indexed by device id (devices beyond its size have consumed nothing);
/// `now` is the simulation clock (staleness ages jobs against it).
/// Deterministic: equal inputs always pick the same job, with tiebreaks
/// bottoming out on `seq`.
[[nodiscard]] std::size_t select_job(Policy_kind kind, const std::deque<Sched_job>& waiting,
                                     const std::vector<Gpu_seconds>& device_gpu_seconds,
                                     Sim_time now);

} // namespace shog::sim
