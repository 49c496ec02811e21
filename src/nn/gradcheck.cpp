#include "nn/gradcheck.hpp"

#include <cmath>

#include "common/require.hpp"

namespace shog::nn {

namespace {

double probe_loss(Layer& layer, const Tensor& input, const Tensor& probe) {
    Tensor out = layer.forward(input);
    SHOG_REQUIRE(out.shape() == probe.shape(), "probe shape mismatch");
    double loss = 0.0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        loss += out.at(i) * probe.at(i);
    }
    return loss;
}

} // namespace

Gradcheck_report gradcheck_layer(Layer& layer, const Tensor& input, Rng& rng, double step) {
    // Shape discovery pass + analytic gradients.
    Tensor out = layer.forward(input);
    Tensor probe = Tensor::randn(out.shape(), rng);

    layer.zero_grad();
    out = layer.forward(input);
    (void)out;
    Tensor analytic_input_grad = layer.backward(probe);

    // Snapshot analytic parameter grads.
    const std::vector<Parameter*> params = layer.parameters();
    std::vector<Tensor> analytic_param_grads;
    analytic_param_grads.reserve(params.size());
    for (const Parameter* p : params) {
        analytic_param_grads.push_back(p->grad);
    }

    Gradcheck_report report;

    // Input gradient by central differences.
    Tensor x = input;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double saved = x.at(i);
        x.at(i) = saved + step;
        const double plus = probe_loss(layer, x, probe);
        x.at(i) = saved - step;
        const double minus = probe_loss(layer, x, probe);
        x.at(i) = saved;
        const double numeric = (plus - minus) / (2.0 * step);
        report.max_input_grad_error =
            std::max(report.max_input_grad_error, std::abs(numeric - analytic_input_grad.at(i)));
    }

    // Parameter gradients by central differences.
    std::size_t param_index = 0;
    for (Parameter* p : layer.parameters()) {
        Tensor& value = p->value.mut();
        for (std::size_t i = 0; i < value.size(); ++i) {
            const double saved = value.at(i);
            value.at(i) = saved + step;
            const double plus = probe_loss(layer, input, probe);
            value.at(i) = saved - step;
            const double minus = probe_loss(layer, input, probe);
            value.at(i) = saved;
            const double numeric = (plus - minus) / (2.0 * step);
            report.max_param_grad_error =
                std::max(report.max_param_grad_error,
                         std::abs(numeric - analytic_param_grads[param_index].at(i)));
        }
        ++param_index;
    }
    return report;
}

} // namespace shog::nn
