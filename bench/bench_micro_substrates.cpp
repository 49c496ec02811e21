// google-benchmark micro-benchmarks for the substrate hot paths: tensor
// linear algebra, detector inference, NMS/mAP, replay-memory updates and
// the sampling controller.
#include <benchmark/benchmark.h>

#include "common/event_queue.hpp"
#include "core/adaptive_trainer.hpp"
#include "core/controller.hpp"
#include "core/replay_memory.hpp"
#include "detect/metrics.hpp"
#include "models/pretrain.hpp"
#include "netsim/h264.hpp"
#include "nn/loss.hpp"
#include "video/presets.hpp"

namespace {

using namespace shog;

void BM_matmul(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng{1};
    const Tensor a = Tensor::randn({n, n}, rng);
    const Tensor b = Tensor::randn({n, n}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(matmul(a, b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_matmul)->Arg(16)->Arg(64)->Arg(128);

void BM_softmax_cross_entropy(benchmark::State& state) {
    Rng rng{2};
    const Tensor logits = Tensor::randn({64, 5}, rng);
    std::vector<std::size_t> labels(64);
    for (std::size_t i = 0; i < 64; ++i) {
        labels[i] = rng.index(5);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(nn::softmax_cross_entropy(logits, labels));
    }
}
BENCHMARK(BM_softmax_cross_entropy);

void BM_nms(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    Rng rng{3};
    std::vector<detect::Detection> dets;
    for (std::size_t i = 0; i < n; ++i) {
        dets.push_back(detect::Detection{
            detect::Box::from_center(rng.uniform(0, 500), rng.uniform(0, 500),
                                     rng.uniform(10, 60), rng.uniform(10, 60)),
            1 + rng.index(4), rng.uniform()});
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(detect::nms(dets, 0.5));
    }
}
BENCHMARK(BM_nms)->Arg(20)->Arg(100)->Arg(400);

void BM_frame_generation(benchmark::State& state) {
    const video::Dataset_preset p = video::ua_detrac_like(7, 300.0);
    const video::Video_stream stream{p.stream, p.world, p.schedule};
    std::size_t index = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(stream.frame_at(index));
        index = (index + 37) % stream.frame_count();
    }
}
BENCHMARK(BM_frame_generation);

void BM_detector_inference(benchmark::State& state) {
    const video::Dataset_preset p = video::ua_detrac_like(8, 120.0);
    const video::Video_stream stream{p.stream, p.world, p.schedule};
    auto student = models::make_student(stream.world(), 8);
    const video::Frame frame = stream.frame_at(600);
    for (auto _ : state) {
        benchmark::DoNotOptimize(student->detect(frame, stream.world()));
    }
}
BENCHMARK(BM_detector_inference);

void BM_replay_memory_update(benchmark::State& state) {
    core::Replay_memory memory{1500};
    Rng rng{9};
    std::vector<models::Labeled_sample> batch(300);
    for (auto& s : batch) {
        s.feature.assign(64, 0.5);
    }
    for (auto _ : state) {
        memory.update_after_training(batch, rng);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 300);
}
BENCHMARK(BM_replay_memory_update);

void BM_controller_update(benchmark::State& state) {
    core::Sampling_controller controller{core::Controller_config{}, 1.0};
    Rng rng{10};
    for (auto _ : state) {
        controller.observe_phi(rng.uniform());
        benchmark::DoNotOptimize(controller.update(rng.uniform(), rng.uniform()));
    }
}
BENCHMARK(BM_controller_update);

void BM_h264_batch(benchmark::State& state) {
    const netsim::H264_model codec;
    for (auto _ : state) {
        benchmark::DoNotOptimize(codec.batch_bytes(8, 512, 512, 0.6, 0.3, Sim_duration{1.5}));
    }
}
BENCHMARK(BM_h264_batch);

/// The event-engine hot loop at fleet-bench scale: schedule 1M uniformly
/// distributed events, then drain them — the queue's cost record. On this
/// pure burst the binary heap ran about 1.6x slower than the calendar queue
/// it replaced, but no end-to-end workload has this shape: a fleet run keeps
/// far fewer events pending and spends its time inside the callbacks.
void BM_event_queue_burst(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        state.PauseTiming();
        Rng rng{42};
        std::vector<double> times(n);
        for (auto& t : times) {
            t = rng.uniform() * 600.0;
        }
        Event_queue queue;
        std::size_t executed = 0;
        state.ResumeTiming();
        for (const double t : times) {
            queue.schedule(Sim_time{t}, [&executed] { ++executed; });
        }
        while (!queue.empty()) {
            queue.step();
        }
        benchmark::DoNotOptimize(executed);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_event_queue_burst)->Arg(100000)->Arg(1000000);

void BM_map_evaluation(benchmark::State& state) {
    Rng rng{11};
    std::vector<detect::Frame_eval> frames(50);
    for (auto& f : frames) {
        for (int i = 0; i < 8; ++i) {
            const detect::Box box = detect::Box::from_center(
                rng.uniform(0, 500), rng.uniform(0, 500), rng.uniform(10, 60),
                rng.uniform(10, 60));
            f.ground_truth.push_back(detect::Ground_truth{box, 1 + rng.index(4)});
            if (rng.chance(0.8)) {
                f.detections.push_back(detect::Detection{box, 1 + rng.index(4), rng.uniform()});
            }
        }
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(detect::mean_average_precision(frames, 4, 0.5));
    }
}
BENCHMARK(BM_map_evaluation);

} // namespace

BENCHMARK_MAIN();
