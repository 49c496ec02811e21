#include "baselines/cloud_only.hpp"

namespace shog::baselines {

Cloud_only_strategy::Cloud_only_strategy(const models::Detector& teacher,
                                         device::Compute_model cloud_device,
                                         Cloud_only_config config)
    : teacher_{teacher},
      cloud_device_{std::move(cloud_device)},
      config_{config},
      teacher_infer_gflops_{
          models::Deployed_profile::mask_rcnn_resnext101().inference_gflops()} {}

double Cloud_only_strategy::pipeline_fps(sim::Edge_runtime& rt) const {
    const auto& sc = rt.stream().config();
    // Use a mid-stream frame for representative codec statistics.
    const video::Frame probe = rt.stream().frame_at(rt.stream().frame_count() / 2);
    const Bytes frame_bytes = rt.h264().stream_frame_bytes(
        sc.image_width, sc.image_height, probe.complexity, probe.motion_level, sc.fps);
    const Bytes result_bytes = frame_bytes * rt.message_sizes().result_frame_overhead;

    const Sim_duration up = transmit_seconds(frame_bytes, rt.link().config().uplink_mbps);
    const Sim_duration down =
        transmit_seconds(result_bytes, rt.link().config().downlink_mbps);
    const Sim_duration infer = cloud_device_.seconds_for_gflops(teacher_infer_gflops_);
    const Sim_duration total = config_.stream_encode_seconds + up + infer + down +
                               2.0 * rt.link().config().propagation;
    return 1.0 / total.value(); // fps from the pipeline period
}

void Cloud_only_strategy::start(sim::Edge_runtime& rt) {
    rt.set_fps_override(pipeline_fps(rt));
    rt.schedule(config_.meter_tick, [this, &rt] { meter_tick(rt); });
}

void Cloud_only_strategy::meter_tick(sim::Edge_runtime& rt) {
    const auto& sc = rt.stream().config();
    const std::size_t idx = rt.stream().index_at(rt.now().value()); // frame-domain lookup
    const video::Frame frame = rt.stream().frame_at(idx);

    // Full-rate video up; full-rate annotated result stream down.
    const Bytes per_frame = rt.h264().stream_frame_bytes(
        sc.image_width, sc.image_height, frame.complexity, frame.motion_level, sc.fps);
    const Bytes up_bytes = per_frame * sc.fps * config_.meter_tick.value(); // frames/tick
    const Bytes down_bytes = up_bytes * rt.message_sizes().result_frame_overhead;
    (void)rt.link().send_up(rt.now(), up_bytes);
    (void)rt.link().send_down(rt.now(), down_bytes);

    // Cloud GPU time: the pipeline's result rate worth of teacher inference.
    rt.add_cloud_gpu_seconds(Gpu_seconds::of(
        rt.fps_override() * config_.meter_tick.value() * // frames per tick
        cloud_device_.seconds_for_gflops(teacher_infer_gflops_)));

    if (rt.now() + config_.meter_tick < Sim_time{rt.stream().duration()}) {
        rt.schedule(config_.meter_tick, [this, &rt] { meter_tick(rt); });
    }
}

std::vector<detect::Detection> Cloud_only_strategy::infer(sim::Edge_runtime& rt,
                                                          const video::Frame& frame) {
    return teacher_.detect(frame, rt.stream().world());
}

} // namespace shog::baselines
