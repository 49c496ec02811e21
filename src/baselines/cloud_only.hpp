// Cloud-Only baseline: every frame is H.264-streamed to the cloud, the
// golden teacher model detects, and annotated result frames come back.
// Best accuracy, enormous bandwidth (paper: ~24x Shoggoth's uplink, ~350x
// its downlink), and a low effective fps set by the synchronous
// encode -> uplink -> inference -> downlink pipeline.
#pragma once

#include "device/compute.hpp"
#include "models/deployed.hpp"
#include "models/detector.hpp"
#include "sim/strategy.hpp"

namespace shog::baselines {

class Cloud_only_strategy final : public sim::Strategy {
public:
    Cloud_only_strategy(const models::Detector& teacher, device::Compute_model cloud_device);

    [[nodiscard]] std::string name() const override { return "Cloud-Only"; }
    void start(sim::Edge_runtime& rt) override;
    [[nodiscard]] std::vector<detect::Detection> infer(sim::Edge_runtime& rt,
                                                       const video::Frame& frame) override;

    /// The synchronous pipeline's sustainable result rate.
    [[nodiscard]] double pipeline_fps(sim::Edge_runtime& rt) const;

private:
    const models::Detector& teacher_;
    device::Compute_model cloud_device_;
    double teacher_infer_gflops_;

    void meter_tick(sim::Edge_runtime& rt);
};

} // namespace shog::baselines
