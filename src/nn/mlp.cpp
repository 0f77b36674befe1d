#include "nn/mlp.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <type_traits>

#include "common/check.h"
#include "common/rng.h"

namespace csat::nn {

namespace {

/// Rows per block of the forward kernel and the delta back-propagation:
/// each weight row is read once per block of rows.
constexpr std::size_t kRowBlock = 4;
/// Outputs per pass over the inputs: enough independent sums to keep the
/// vector units busy, few enough that a block's accumulators stay in L1.
constexpr int kOutBlock = 32;

/// Rows [0, R) of one layer: y[r][o] = b[o] + sum_i x[r][i] * w[o][i], the
/// sum taken over i ascending. Only the independent outputs o are
/// computed side by side (across a block and across rows), so each sum
/// keeps the scalar order.
template <std::size_t R>
void layer_block(int in, int out, const double* wt, const double* b,
                 const double* x, double* y) {
  for (int o0 = 0; o0 < out; o0 += kOutBlock) {
    const int width = std::min(kOutBlock, out - o0);
    double acc[R][kOutBlock];
    for (std::size_t r = 0; r < R; ++r)
      for (int k = 0; k < width; ++k) acc[r][k] = b[o0 + k];
    // A full block has a constant trip count, so the compiler vectorizes
    // it across k; a narrower tail block (the output layer) runs the same
    // sums with a variable width.
    const auto accumulate = [&](auto block_width) {
      for (int i = 0; i < in; ++i) {
        const double* wrow = wt + static_cast<std::size_t>(i) * out + o0;
        for (std::size_t r = 0; r < R; ++r) {
          const double xi = x[r * in + i];
          for (int k = 0; k < block_width; ++k) acc[r][k] += wrow[k] * xi;
        }
      }
    };
    if (width == kOutBlock)
      accumulate(std::integral_constant<int, kOutBlock>{});
    else
      accumulate(width);
    for (std::size_t r = 0; r < R; ++r)
      for (int k = 0; k < width; ++k) y[r * out + o0 + k] = acc[r][k];
  }
}

/// One layer over n rows: x is n x in, y is n x out, both row-major.
void layer_forward(int in, int out, const std::vector<double>& wt,
                   const std::vector<double>& b, const double* x, std::size_t n,
                   double* y) {
  const std::size_t xs = static_cast<std::size_t>(in);
  const std::size_t ys = static_cast<std::size_t>(out);
  std::size_t r = 0;
  for (; r + kRowBlock <= n; r += kRowBlock)
    layer_block<kRowBlock>(in, out, wt.data(), b.data(), x + r * xs, y + r * ys);
  for (; r < n; ++r)
    layer_block<1>(in, out, wt.data(), b.data(), x + r * xs, y + r * ys);
}

}  // namespace

Mlp::Mlp(MlpConfig config) : config_(std::move(config)) {
  CSAT_CHECK(config_.layers.size() >= 2);
  Rng rng(config_.seed);
  for (std::size_t i = 0; i + 1 < config_.layers.size(); ++i) {
    Layer l;
    l.in = config_.layers[i];
    l.out = config_.layers[i + 1];
    CSAT_CHECK(l.in > 0 && l.out > 0);
    const double scale = std::sqrt(2.0 / static_cast<double>(l.in + l.out));
    l.w.resize(static_cast<std::size_t>(l.in) * l.out);
    for (auto& w : l.w) w = rng.next_gaussian() * scale;
    l.b.assign(l.out, 0.0);
    l.mw.assign(l.w.size(), 0.0);
    l.vw.assign(l.w.size(), 0.0);
    l.mb.assign(l.out, 0.0);
    l.vb.assign(l.out, 0.0);
    layers_.push_back(std::move(l));
  }
  refresh_transposed();
}

void Mlp::refresh_transposed() {
  // Tiled: a plain column walk strides a power of two through wt and
  // thrashes a few cache sets.
  constexpr int kTile = 8;
  for (Layer& l : layers_) {
    l.wt.resize(l.w.size());
    for (int o0 = 0; o0 < l.out; o0 += kTile) {
      for (int i0 = 0; i0 < l.in; i0 += kTile) {
        for (int o = o0; o < std::min(l.out, o0 + kTile); ++o)
          for (int i = i0; i < std::min(l.in, i0 + kTile); ++i)
            l.wt[static_cast<std::size_t>(i) * l.out + o] =
                l.w[static_cast<std::size_t>(o) * l.in + i];
      }
    }
  }
}

void Mlp::forward_rows(std::vector<std::vector<double>>& acts, std::size_t n) const {
  acts.resize(layers_.size() + 1);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Layer& l = layers_[li];
    std::vector<double>& next = acts[li + 1];
    next.resize(n * static_cast<std::size_t>(l.out));
    layer_forward(l.in, l.out, l.wt, l.b, acts[li].data(), n, next.data());
    if (li + 1 < layers_.size())
      for (auto& v : next) v = v > 0.0 ? v : 0.0;  // ReLU on hidden layers
  }
}

std::vector<double> Mlp::forward(const std::vector<double>& input) const {
  CSAT_CHECK(static_cast<int>(input.size()) == input_size());
  std::vector<std::vector<double>> acts(1, input);
  forward_rows(acts, 1);
  return std::move(acts.back());
}

std::vector<double> Mlp::forward_batch(std::span<const double> inputs,
                                       std::size_t n) const {
  CSAT_CHECK(inputs.size() == n * static_cast<std::size_t>(input_size()));
  std::vector<std::vector<double>> acts(1);
  acts[0].assign(inputs.begin(), inputs.end());
  forward_rows(acts, n);
  return std::move(acts.back());
}

double Mlp::train_batch(const std::vector<std::vector<double>>& inputs,
                        const std::vector<int>& actions,
                        const std::vector<double>& targets) {
  CSAT_CHECK(inputs.size() == actions.size() && inputs.size() == targets.size());
  CSAT_CHECK(!inputs.empty());
  const std::size_t batch = inputs.size();
  const std::size_t width = static_cast<std::size_t>(input_size());
  const std::size_t outs = static_cast<std::size_t>(output_size());

  // Forward every sample, keeping each layer's activations.
  std::vector<std::vector<double>> acts(1);
  acts[0].reserve(batch * width);
  for (const auto& row : inputs) {
    CSAT_CHECK(row.size() == width);
    acts[0].insert(acts[0].end(), row.begin(), row.end());
  }
  forward_rows(acts, batch);

  // Output deltas: only the chosen action's output carries gradient.
  double loss = 0.0;
  std::vector<double> delta(batch * outs, 0.0);
  for (std::size_t s = 0; s < batch; ++s) {
    const int a = actions[s];
    CSAT_CHECK(a >= 0 && a < output_size());
    const double err = acts.back()[s * outs + a] - targets[s];
    loss += err * err;
    delta[s * outs + a] = 2.0 * err / static_cast<double>(batch);
  }

  // Backward, one layer at a time over the whole minibatch.
  std::vector<double> prev_delta;
  for (std::size_t li = layers_.size(); li-- > 0;) {
    Layer& l = layers_[li];
    const std::size_t in = static_cast<std::size_t>(l.in);
    const std::size_t out = static_cast<std::size_t>(l.out);
    const std::vector<double>& in_act = acts[li];
    // Gradient row o sums its samples in order while the row is hot.
    l.gw.assign(l.w.size(), 0.0);
    l.gb.assign(out, 0.0);
    for (std::size_t o = 0; o < out; ++o) {
      double* grow = &l.gw[o * in];
      for (std::size_t s = 0; s < batch; ++s) {
        const double d = delta[s * out + o];
        if (d == 0.0) continue;
        l.gb[o] += d;
        const double* x = &in_act[s * in];
        for (std::size_t i = 0; i < in; ++i) grow[i] += d * x[i];
      }
    }
    if (li == 0) break;
    // Each sample's input deltas sum over outputs in order; a block of
    // samples shares each weight row.
    prev_delta.assign(batch * in, 0.0);
    for (std::size_t s0 = 0; s0 < batch; s0 += kRowBlock) {
      const std::size_t s1 = std::min(batch, s0 + kRowBlock);
      for (std::size_t o = 0; o < out; ++o) {
        const double* wrow = &l.w[o * in];
        for (std::size_t s = s0; s < s1; ++s) {
          const double d = delta[s * out + o];
          if (d == 0.0) continue;
          double* p = &prev_delta[s * in];
          for (std::size_t i = 0; i < in; ++i) p[i] += d * wrow[i];
        }
      }
    }
    // ReLU derivative w.r.t. the previous layer's post-activation.
    for (std::size_t k = 0; k < prev_delta.size(); ++k)
      if (in_act[k] <= 0.0) prev_delta[k] = 0.0;
    delta.swap(prev_delta);
  }

  // Adam update.
  ++adam_t_;
  const double b1t = 1.0 - std::pow(config_.beta1, static_cast<double>(adam_t_));
  const double b2t = 1.0 - std::pow(config_.beta2, static_cast<double>(adam_t_));
  for (Layer& l : layers_) {
    const auto update = [&](std::vector<double>& param, std::vector<double>& m,
                            std::vector<double>& v, const std::vector<double>& grad) {
      for (std::size_t i = 0; i < param.size(); ++i) {
        m[i] = config_.beta1 * m[i] + (1.0 - config_.beta1) * grad[i];
        v[i] = config_.beta2 * v[i] + (1.0 - config_.beta2) * grad[i] * grad[i];
        const double mh = m[i] / b1t;
        const double vh = v[i] / b2t;
        param[i] -= config_.learning_rate * mh / (std::sqrt(vh) + config_.epsilon);
      }
    };
    update(l.w, l.mw, l.vw, l.gw);
    update(l.b, l.mb, l.vb, l.gb);
  }
  refresh_transposed();
  return loss / static_cast<double>(batch);
}

void Mlp::copy_weights_from(const Mlp& other) {
  CSAT_CHECK(config_.layers == other.config_.layers);
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    layers_[li].w = other.layers_[li].w;
    layers_[li].wt = other.layers_[li].wt;
    layers_[li].b = other.layers_[li].b;
  }
}

void Mlp::save(std::ostream& out) const {
  out << "mlp " << layers_.size() + 1;
  for (int l : config_.layers) out << ' ' << l;
  out << '\n';
  out.precision(17);
  for (const Layer& l : layers_) {
    for (double w : l.w) out << w << ' ';
    out << '\n';
    for (double b : l.b) out << b << ' ';
    out << '\n';
  }
}

void Mlp::load(std::istream& in) {
  std::string magic;
  std::size_t n = 0;
  CSAT_CHECK_MSG(static_cast<bool>(in >> magic >> n) && magic == "mlp",
                 "mlp: bad save header");
  CSAT_CHECK_MSG(n == config_.layers.size(), "mlp: layer count mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    int width = 0;
    CSAT_CHECK(static_cast<bool>(in >> width) && width == config_.layers[i]);
  }
  for (Layer& l : layers_) {
    for (double& w : l.w) CSAT_CHECK(static_cast<bool>(in >> w));
    for (double& b : l.b) CSAT_CHECK(static_cast<bool>(in >> b));
  }
  refresh_transposed();
}

}  // namespace csat::nn
