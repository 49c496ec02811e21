// google-benchmark micro-benchmarks for the substrate hot paths: tensor
// linear algebra, the NN layers' elementwise kernels and optimizer step,
// detector inference, an adaptive training session, NMS/mAP, replay-memory
// updates and the sampling controller.
#include <benchmark/benchmark.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/event_queue.hpp"
#include "core/adaptive_trainer.hpp"
#include "core/controller.hpp"
#include "core/replay_memory.hpp"
#include "detect/metrics.hpp"
#include "models/pretrain.hpp"
#include "netsim/h264.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "video/presets.hpp"

namespace {

using namespace shog;

// The three products of one Dense layer, c (m x n) from a k-wide inner
// dimension: matmul is the forward pass, matmul_tn the weight gradient
// (A stored k x m) and matmul_nt the input gradient (B stored n x k). Args
// are m, k, n; 64 x 112 x 112 is a detector training step, 3 x 96 x 112 an
// inference batch, and the cubes keep the older square series.
enum class Matmul_form { nn, tn, nt };

template <Matmul_form Form>
void BM_matmul(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto k = static_cast<std::size_t>(state.range(1));
    const auto n = static_cast<std::size_t>(state.range(2));
    Rng rng{1};
    const Tensor a = Form == Matmul_form::tn ? Tensor::randn({k, m}, rng)
                                             : Tensor::randn({m, k}, rng);
    const Tensor b = Form == Matmul_form::nt ? Tensor::randn({n, k}, rng)
                                             : Tensor::randn({k, n}, rng);
    for (auto _ : state) {
        if constexpr (Form == Matmul_form::nn) {
            benchmark::DoNotOptimize(matmul(a, b));
        } else if constexpr (Form == Matmul_form::tn) {
            benchmark::DoNotOptimize(matmul_tn(a, b));
        } else {
            benchmark::DoNotOptimize(matmul_nt(a, b));
        }
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(m * k * n));
}
void matmul_shapes(benchmark::internal::Benchmark* b) {
    b->ArgNames({"m", "k", "n"});
    b->Args({16, 16, 16})->Args({64, 64, 64})->Args({128, 128, 128});
    b->Args({64, 112, 112})->Args({3, 96, 112});
}
BENCHMARK_TEMPLATE(BM_matmul, Matmul_form::nn)->Apply(matmul_shapes);
BENCHMARK_TEMPLATE(BM_matmul, Matmul_form::tn)->Apply(matmul_shapes);
BENCHMARK_TEMPLATE(BM_matmul, Matmul_form::nt)->Apply(matmul_shapes);

// The elementwise half of a training step, per layer. Args are the rows
// and width of the activations: 64 x 112 is a detector training batch,
// 3 x 112 an inference batch.
void elementwise_shapes(benchmark::internal::Benchmark* b) {
    b->ArgNames({"m", "w"});
    b->Args({64, 112})->Args({3, 112});
}

enum class Brn_pass { train, infer };

/// train: forward with batch statistics, then backward. infer: the const
/// running-statistics pass.
template <Brn_pass Pass>
void BM_batch_renorm(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto w = static_cast<std::size_t>(state.range(1));
    Rng rng{12};
    nn::Batch_renorm brn{w};
    const Tensor x = Tensor::randn({m, w}, rng, 0.5, 2.0);
    const Tensor g = Tensor::randn({m, w}, rng);
    for (auto _ : state) {
        if constexpr (Pass == Brn_pass::train) {
            benchmark::DoNotOptimize(brn.forward(x));
            benchmark::DoNotOptimize(brn.backward(g));
        } else {
            benchmark::DoNotOptimize(brn.infer(x));
        }
    }
}
BENCHMARK_TEMPLATE(BM_batch_renorm, Brn_pass::train)->Apply(elementwise_shapes);
BENCHMARK_TEMPLATE(BM_batch_renorm, Brn_pass::infer)->Apply(elementwise_shapes);

/// Forward then backward; about half the inputs are negative.
void BM_leaky_relu(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto w = static_cast<std::size_t>(state.range(1));
    Rng rng{13};
    nn::Leaky_relu act{0.1};
    const Tensor x = Tensor::randn({m, w}, rng);
    const Tensor g = Tensor::randn({m, w}, rng);
    for (auto _ : state) {
        benchmark::DoNotOptimize(act.forward(x));
        benchmark::DoNotOptimize(act.backward(g));
    }
}
BENCHMARK(BM_leaky_relu)->Apply(elementwise_shapes);

/// One momentum step with pretraining's weight decay over an m x w
/// parameter.
void BM_sgd_step(benchmark::State& state) {
    const auto m = static_cast<std::size_t>(state.range(0));
    const auto w = static_cast<std::size_t>(state.range(1));
    Rng rng{14};
    nn::Parameter param{"weight", Tensor::randn({m, w}, rng)};
    param.grad = Tensor::randn({m, w}, rng, 0.0, 1e-3);
    nn::Sgd sgd{nn::Sgd_config{0.01, 0.9, 1e-4}};
    const std::vector<nn::Parameter*> params{&param};
    for (auto _ : state) {
        sgd.step(params);
        benchmark::DoNotOptimize(param.value->data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_sgd_step)->Apply(elementwise_shapes);

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

/// The same detect() round-robin over 64 clones of one student, as a fleet
/// runs it. Clones share the student's weight buffers, so this should stay
/// near BM_detector_inference; clones holding private copies would make
/// each call stream its weights from a cold cache.
void BM_detector_inference_fleet(benchmark::State& state) {
    const video::Dataset_preset p = video::ua_detrac_like(8, 120.0);
    const video::Video_stream stream{p.stream, p.world, p.schedule};
    const auto student = models::make_student(stream.world(), 8);
    std::vector<std::unique_ptr<models::Detector>> fleet;
    for (int i = 0; i < 64; ++i) {
        fleet.push_back(student->clone());
    }
    const video::Frame frame = stream.frame_at(600);
    std::size_t next = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fleet[next]->detect(frame, stream.world()));
        next = (next + 1) % fleet.size();
    }
}
BENCHMARK(BM_detector_inference_fleet);

/// One Adaptive_trainer::train of a fixed 60-frame batch (360 region
/// samples at the trainer's 6 per frame), repeated on one trainer whose
/// replay memory was warm-started; config:0 is ours_config(), config:1
/// input_replay_config(). Each session ends by freeing the detector's
/// gradients and backward caches, so its first step allocates them again;
/// this times what that costs against the session.
void BM_training_session(benchmark::State& state) {
    const video::Dataset_preset p = video::ua_detrac_like(8, 120.0);
    const video::World_model world{p.world};
    const auto student = models::make_student(world, 8);
    core::Trainer_config config =
        state.range(0) == 0 ? core::ours_config() : core::input_replay_config();
    core::Adaptive_trainer trainer{*student, config, models::Deployed_profile::yolov4_resnet18(),
                                   device::jetson_tx2()};
    trainer.warm_start_daytime(world, 1200);
    models::Pretrain_config batch_config;
    batch_config.domains = {video::night(0.5)};
    batch_config.samples = 360;
    batch_config.seed = 12;
    const std::vector<models::Labeled_sample> batch =
        models::synth_dataset(world, student->config(), batch_config);
    for (auto _ : state) {
        benchmark::DoNotOptimize(trainer.train(batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_training_session)->ArgName("config")->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

/// A device's warm replay set: 1200 latents at the pool cut (64 wide).
core::Replay_memory::Block warm_block() {
    std::vector<models::Labeled_sample> warm(1200);
    for (auto& s : warm) {
        s.feature.assign(64, 0.25);
    }
    return std::make_shared<const std::vector<models::Labeled_sample>>(std::move(warm));
}

/// Seven 300-sample sessions merged into a 1500-slot memory that adopted
/// the warm block (runs 2-8 of Algorithm 1, h = 750 down to 187 copies).
void BM_replay_memory_update(benchmark::State& state) {
    const core::Replay_memory::Block warm = warm_block();
    std::vector<models::Labeled_sample> batch(300);
    for (auto& s : batch) {
        s.feature.assign(64, 0.5);
    }
    Rng rng{9};
    for (auto _ : state) {
        state.PauseTiming();
        core::Replay_memory memory{1500};
        memory.adopt(warm, rng);
        state.ResumeTiming();
        for (int session = 0; session < 7; ++session) {
            memory.update_after_training(batch, rng);
        }
        benchmark::DoNotOptimize(memory.slots().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 7 * 300);
}
BENCHMARK(BM_replay_memory_update);

/// A device's warm start: a 1500-slot memory seeded from the 1200-sample
/// warm block. share:0 copies every sample (update_after_training, the
/// path before warm blocks were shared); share:1 adopts the block.
void BM_replay_warm_adopt(benchmark::State& state) {
    const core::Replay_memory::Block warm = warm_block();
    const bool share = state.range(0) != 0;
    Rng rng{11};
    for (auto _ : state) {
        core::Replay_memory memory{1500};
        if (share) {
            memory.adopt(warm, rng);
        } else {
            memory.update_after_training(*warm, rng);
        }
        benchmark::DoNotOptimize(memory.slots().data());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1200);
}
BENCHMARK(BM_replay_warm_adopt)->ArgName("share")->Arg(0)->Arg(1);

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
    for (auto _ : state) {
        benchmark::DoNotOptimize(netsim::batch_bytes(8, 512, 512, 0.6, 0.3, Sim_duration{1.5}));
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
