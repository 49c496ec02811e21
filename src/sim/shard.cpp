// The device-sharded cluster engine. Correctness story, in one page:
//
// In run_cluster every event lives on one queue, so the global execution
// order is (time, insertion seq). Between cloud interactions a device's
// events touch only that device's state — the cloud queue is the *only*
// cross-device coupling — so any schedule that (a) runs each device's own
// events in local (time, seq) order and (b) replays the cloud interactions
// in the sequential global order produces bit-identical state everywhere.
//
// The engine splits execution into alternating phases:
//
//  - Parallel rounds: K worker threads advance their devices' local queues
//    up to (and including) the round bound — the earliest pending
//    cloud-event time, or the horizon when the cloud is idle. Cloud calls
//    made by device events (submit / account_direct) do not execute; a
//    per-device proxy buffers them with their timestamps. A device stops
//    advancing the moment an event buffers a *submit* and stays stopped
//    until the coordinator has applied all of its buffered submits: the
//    reply to a submit is a completion event the cloud hasn't scheduled
//    yet, so advancing past it would be unbounded optimism. (Direct GPU
//    accounting has no reply and never stops a device.)
//  - Serial commit: the coordinator merges the buffered ops (ordered by
//    (time, device index) — equal-time interactions from distinct devices
//    are setup-scheduled events, which the sequential queue fires in
//    device-ascending seq order) with the cloud's own events (failure,
//    repair, preemption checks, completions), firing whichever is earliest.
//    Ops win ties: an op at time t was produced by a device event that the
//    sequential engine ordered before any cloud event scheduled at t.
//    A "frontier" per device bounds where its next op can appear: the
//    first buffered op's time, else its next local event time (a device
//    can only produce ops by running events), else infinity. A cloud event
//    fires only when it precedes every frontier, so no op can ever be
//    ordered behind a cloud event it should precede. When the earliest
//    frontier is only *potential* (no buffered op yet), the coordinator
//    runs another parallel round to materialize or advance it.
//  - Completion delivery: when the coordinator applies a buffered submit,
//    it wraps the submit's callback. The real cloud runs the wrapper
//    inline when the job completes, in job order and before the completed
//    dispatch's servers refill, as the sequential engine runs the bare
//    callback. The frontier rule guarantees every delivering device has
//    already drained its events up to the completion time with an empty op
//    buffer, so the wrapper aligns the device clock (advance_to), runs the
//    callback and applies any ops it produced (a follow-up submit
//    dispatches onto the still-unfilled servers, exactly as an inline
//    callback would).
//
// Devices never run ahead of an unfired cloud event: round bounds equal
// the earliest cloud-event time, and any event the commit phase schedules
// is at or after the event that fired — never behind a device's clock.
//
// Shared state is phase-owned: device slots and the per-shard dirty lists
// are touched by exactly one worker during a round and only by the
// coordinator between rounds, with the barrier's mutex providing the
// happens-before (the same discipline run_sweep's result slots use; TSan
// checks it via tests/test_shard_stress.cpp). The barrier state itself is
// annotated for clang's thread-safety analysis below.
#include "sim/shard.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/thread_annotations.hpp"
#include "sim/run_internal.hpp"

namespace shog::sim {
namespace {

/// One buffered cloud interaction, replayed by the coordinator at `at`.
struct Cloud_op {
    Sim_time at;
    bool is_submit = false;
    // submit arguments (done/kind/drift_rate/replan forwarded verbatim)
    Sim_duration service;
    Cloud_runtime::Completion done;
    Cloud_job_kind kind = Cloud_job_kind::label;
    double drift_rate = 0.0;
    Cloud_runtime::Resume_replan replan;
    // account_direct argument
    Gpu_seconds gpu_seconds;
};

/// Per-device cloud proxy: records the device's cloud calls instead of
/// executing them. The base class is constructed with the *default*
/// Cloud_config, which is side-effect free (no failure events, no queue
/// traffic — only its own RNG seeding); the real cloud lives on the
/// coordinator and `real` serves the end-of-run ledger reads.
class Shard_cloud final : public Cloud_runtime {
public:
    explicit Shard_cloud(Event_queue& local_queue)
        : Cloud_runtime{local_queue}, local_queue_{local_queue} {}

    void submit(std::size_t /*device_id*/, Sim_duration service, Completion done,
                Cloud_job_kind kind, double drift_rate, Resume_replan replan) override {
        Cloud_op op;
        op.at = local_queue_.now();
        op.is_submit = true;
        op.service = service;
        op.done = std::move(done);
        op.kind = kind;
        op.drift_rate = drift_rate;
        op.replan = std::move(replan);
        ops.push_back(std::move(op));
        ++buffered_submits;
        submitted_ = true;
    }

    void account_direct(std::size_t /*device_id*/, Gpu_seconds gpu_seconds) override {
        Cloud_op op;
        op.at = local_queue_.now();
        op.gpu_seconds = gpu_seconds;
        ops.push_back(std::move(op));
    }

    [[nodiscard]] Gpu_seconds device_gpu_seconds(std::size_t device_id) const override {
        // Only read at result assembly, when every op has been replayed.
        return real->device_gpu_seconds(device_id);
    }

    /// Did the event that just ran buffer a submit? (Clears the flag.)
    [[nodiscard]] bool take_submitted() {
        const bool s = submitted_;
        submitted_ = false;
        return s;
    }

    std::deque<Cloud_op> ops; ///< FIFO; times are non-decreasing
    std::size_t buffered_submits = 0;
    const Cloud_runtime* real = nullptr;

private:
    Event_queue& local_queue_;
    bool submitted_ = false;
};

/// Everything the harness tracks for one device, plus its local queue and
/// cloud proxy. Owned by the device's shard during parallel rounds and by
/// the coordinator during commit (barrier-separated).
struct Device_slot {
    Device_slot(std::size_t id, const Device_spec& spec, const Cluster_config& config)
        : proxy{queue},
          state{id, spec, queue, proxy, config.harness} {}

    Event_queue queue;
    Shard_cloud proxy;
    detail::Device_state state;
    /// Set when an event buffers a submit; cleared by the coordinator once
    /// every buffered submit has been applied to the real cloud (the
    /// completion the device must not outrun is in the cloud queue by then).
    bool stopped = false;
};

/// Barrier state shared between the coordinator and the shard workers.
struct Shard_pool {
    explicit Shard_pool(std::size_t shard_count) : errors(shard_count) {}

    Mutex mutex;
    std::condition_variable_any cv;      ///< workers: new round (or stop) posted
    std::condition_variable_any cv_done; ///< coordinator: all workers arrived
    std::uint64_t round SHOG_GUARDED_BY(mutex) = 0;
    std::size_t running SHOG_GUARDED_BY(mutex) = 0;
    Sim_time bound SHOG_GUARDED_BY(mutex);
    bool stop SHOG_GUARDED_BY(mutex) = false;
    std::vector<std::exception_ptr> errors SHOG_GUARDED_BY(mutex);
};

/// Frontier entry: the earliest time device `device` could next interact
/// with the cloud. Ordered by (time, device index) — the sequential
/// engine's order for equal-time interactions from distinct devices.
struct Frontier {
    Sim_time at;
    std::size_t device;
};
struct Frontier_less {
    bool operator()(const Frontier& a, const Frontier& b) const noexcept {
        if (a.at != b.at) {
            return a.at < b.at;
        }
        return a.device < b.device;
    }
};

} // namespace

Cluster_result run_cluster_sharded(const std::vector<Device_spec>& devices,
                                   const Cluster_config& config,
                                   const Shard_options& options) {
    if (options.shards == 0) {
        return run_cluster(devices, config);
    }
    detail::validate_cluster(devices, config);
    const std::size_t shards = std::min(options.shards, devices.size());

    Event_queue cloud_queue;
    Cloud_runtime cloud{cloud_queue, config.cloud};
    // Observability goes on the REAL cloud only (channel creation order —
    // cloud, then devices — mirrors run_cluster; the proxies stay dark so
    // buffered calls emit exactly once, at coordinator replay time, in the
    // sequential engine's order).
    cloud.set_observability(detail::make_trace_channel(config.obs.sink),
                            config.obs.metrics);

    // Stable addresses as in run_cluster; the slot adds the device-local
    // queue and proxy the event closures are wired to.
    std::deque<Device_slot> slots;
    Sim_time horizon;
    for (std::size_t i = 0; i < devices.size(); ++i) {
        Device_slot& slot = slots.emplace_back(i, devices[i], config);
        slot.proxy.real = &cloud;
        // The device buffer is phase-owned like the rest of the slot: the
        // shard worker writes it during rounds, the coordinator during
        // completion delivery, barrier-separated.
        slot.state.runtime.set_trace(detail::make_trace_channel(config.obs.sink));
        horizon = std::max(horizon, Sim_time{devices[i].stream->duration()});
    }
    for (Device_slot& slot : slots) {
        detail::schedule_device_events(slot.state, slot.queue, config.harness);
    }
    // Strategy starts run serially in device order: their t=0 cloud calls
    // must replay device-ascending, exactly as the sequential start loop
    // issues them.
    for (Device_slot& slot : slots) {
        slot.state.spec.strategy->start(slot.state.runtime);
        if (slot.proxy.take_submitted()) {
            slot.stopped = true;
        }
    }

    // --- frontier bookkeeping (coordinator-only) ---
    std::set<Frontier, Frontier_less> frontiers;
    std::vector<Sim_time> frontier_at(slots.size());
    std::vector<char> in_set(slots.size(), 0);
    const auto update_frontier = [&](std::size_t d) {
        if (in_set[d] != 0) {
            frontiers.erase(Frontier{frontier_at[d], d});
            in_set[d] = 0;
        }
        Device_slot& slot = slots.at(d);
        if (!slot.proxy.ops.empty()) {
            frontier_at[d] = slot.proxy.ops.front().at;
        } else if (slot.queue.pending() > 0 && slot.queue.next_time() <= horizon) {
            frontier_at[d] = slot.queue.next_time();
        } else {
            return; // exhausted: no op can ever appear
        }
        frontiers.insert(Frontier{frontier_at[d], d});
        in_set[d] = 1;
    };

    // Device d's completion callback `done`, run on the coordinator inside
    // the real cloud's completion at its sequential position.
    std::function<void(std::size_t)> apply_front_op;
    const auto deliver = [&](std::size_t d, const Cloud_runtime::Completion& done) {
        Device_slot& slot = slots.at(d);
        // The frontier rule blocked this completion until the device had
        // drained its events up to now and its ops were applied.
        SHOG_CHECK(slot.proxy.ops.empty(), "delivering device has unapplied cloud ops");
        slot.queue.advance_to(cloud_queue.now());
        done();
        (void)slot.proxy.take_submitted();
        // A follow-up submit must dispatch before the completed dispatch's
        // servers refill (AMS chains a fine-tune after labeling).
        while (!slot.proxy.ops.empty()) {
            apply_front_op(d);
        }
        update_frontier(d);
    };

    apply_front_op = [&](std::size_t d) {
        Device_slot& slot = slots.at(d);
        Cloud_op op = std::move(slot.proxy.ops.front());
        slot.proxy.ops.pop_front();
        // Align the cloud clock with the op without firing same-time cloud
        // events: ops win ties (see the file comment).
        cloud_queue.advance_to(op.at);
        if (op.is_submit) {
            Cloud_runtime::Completion done;
            if (op.done) {
                done = [&deliver, d, inner = std::move(op.done)] { deliver(d, inner); };
            }
            cloud.submit(d, op.service, std::move(done), op.kind, op.drift_rate,
                         std::move(op.replan));
            --slot.proxy.buffered_submits;
            if (slot.proxy.buffered_submits == 0) {
                slot.stopped = false;
            }
        } else {
            cloud.account_direct(d, op.gpu_seconds);
        }
    };

    // Merge buffered ops with cloud events until finished or until the
    // earliest frontier is only potential (the devices must run again).
    bool finished = false;
    const auto commit = [&] {
        for (;;) {
            const bool have_cloud =
                cloud_queue.pending() > 0 && cloud_queue.next_time() <= horizon;
            if (frontiers.empty()) {
                if (!have_cloud) {
                    finished = true;
                    return;
                }
                cloud_queue.step();
                continue;
            }
            const Frontier min_f = *frontiers.begin();
            if (have_cloud && cloud_queue.next_time() < min_f.at) {
                cloud_queue.step();
                continue;
            }
            if (slots.at(min_f.device).proxy.ops.empty()) {
                return; // potential frontier: that device must run events first
            }
            apply_front_op(min_f.device);
            update_frontier(min_f.device);
        }
    };

    // --- worker pool ---
    Shard_pool pool{shards};
    // Devices a round advanced, per shard: the commit phase refreshes only
    // these frontiers. Phase-owned like the slots themselves.
    std::vector<std::vector<std::size_t>> dirty(shards);

    const auto worker = [&slots, &pool, &dirty, shards](std::size_t s) {
        const std::size_t begin = s * slots.size() / shards;
        const std::size_t end = (s + 1) * slots.size() / shards;
        std::uint64_t seen_round = 0;
        for (;;) {
            Sim_time bound;
            pool.mutex.lock();
            while (!pool.stop && pool.round == seen_round) {
                pool.cv.wait(pool.mutex);
            }
            if (pool.stop) {
                pool.mutex.unlock();
                return;
            }
            seen_round = pool.round;
            bound = pool.bound;
            pool.mutex.unlock();

            try {
                for (std::size_t d = begin; d < end; ++d) {
                    Device_slot& slot = slots.at(d);
                    if (slot.stopped) {
                        continue; // waits for its submits to reach the cloud
                    }
                    bool acted = false;
                    while (!slot.stopped && slot.queue.pending() > 0 &&
                           slot.queue.next_time() <= bound) {
                        slot.queue.step();
                        acted = true;
                        if (slot.proxy.take_submitted()) {
                            slot.stopped = true;
                        }
                    }
                    if (acted) {
                        dirty[s].push_back(d);
                    }
                }
            } catch (...) {
                Mutex_lock lock{pool.mutex};
                if (!pool.errors[s]) {
                    pool.errors[s] = std::current_exception();
                }
            }

            Mutex_lock lock{pool.mutex};
            --pool.running;
            if (pool.running == 0) {
                pool.cv_done.notify_all();
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
        threads.emplace_back(worker, s);
    }

    const auto shutdown = [&] {
        {
            Mutex_lock lock{pool.mutex};
            pool.stop = true;
            pool.cv.notify_all();
        }
        for (std::thread& t : threads) {
            if (t.joinable()) {
                t.join();
            }
        }
    };

    try {
        const auto run_round = [&](Sim_time bound) {
            {
                Mutex_lock lock{pool.mutex};
                pool.bound = bound;
                pool.running = shards;
                ++pool.round;
                pool.cv.notify_all();
            }
            // condition_variable_any over the annotated Mutex itself: wait()
            // unlocks/relocks it around the sleep, the guard just pins the
            // critical sections on either side.
            Mutex_lock lock{pool.mutex};
            while (pool.running > 0) {
                pool.cv_done.wait(pool.mutex);
            }
            std::exception_ptr first;
            for (const std::exception_ptr& error : pool.errors) {
                if (error) {
                    first = error;
                    break;
                }
            }
            if (first) {
                std::rethrow_exception(first); // lowest shard wins, like run_sweep
            }
        };

        for (std::size_t d = 0; d < slots.size(); ++d) {
            update_frontier(d);
        }
        commit();
        while (!finished) {
            const bool have_cloud =
                cloud_queue.pending() > 0 && cloud_queue.next_time() <= horizon;
            run_round(have_cloud ? cloud_queue.next_time() : horizon);
            for (std::size_t s = 0; s < shards; ++s) {
                for (const std::size_t d : dirty[s]) {
                    update_frontier(d);
                }
                dirty[s].clear();
            }
            commit();
        }
    } catch (...) {
        shutdown();
        throw;
    }
    shutdown();

    // Result assembly is shared with run_cluster verbatim; the proxies
    // forward ledger reads to the real cloud, which has replayed every
    // interaction in sequential order.
    Cluster_result cluster;
    cluster.duration = horizon.value(); // serialized metric
    cluster.devices.reserve(slots.size());
    for (Device_slot& slot : slots) {
        cluster.devices.push_back(detail::assemble_device_result(slot.state, config.harness));
        cluster.fleet_map += cluster.devices.back().map;
    }
    cluster.fleet_map /= static_cast<double>(cluster.devices.size());

    detail::assemble_cloud_metrics(cluster, cloud, horizon);
    detail::snapshot_metrics(cluster, config);
    return cluster;
}

} // namespace shog::sim
