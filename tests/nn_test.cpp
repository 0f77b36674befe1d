// Tests for the neural-network substrate: shapes, determinism, gradient
// correctness (via learning tasks), target-network copying,
// serialization, and bit-identity of the batched kernel with the textbook
// one-row loops.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "nn/mlp.h"

namespace csat::nn {
namespace {

MlpConfig small_config() {
  MlpConfig c;
  c.layers = {3, 16, 4};
  c.learning_rate = 5e-3;
  c.seed = 11;
  return c;
}

TEST(Mlp, ForwardShapeAndDeterminism) {
  const Mlp a(small_config());
  const Mlp b(small_config());
  const std::vector<double> x{0.2, -0.4, 0.9};
  const auto ya = a.forward(x);
  const auto yb = b.forward(x);
  ASSERT_EQ(ya.size(), 4u);
  EXPECT_EQ(ya, yb);  // same seed, same init, same output
}

TEST(Mlp, DifferentSeedsDiffer) {
  MlpConfig c1 = small_config();
  MlpConfig c2 = small_config();
  c2.seed = 12;
  const Mlp a(c1), b(c2);
  EXPECT_NE(a.forward({1.0, 1.0, 1.0}), b.forward({1.0, 1.0, 1.0}));
}

TEST(Mlp, LearnsMaskedRegression) {
  // Target: out[a] should learn f_a(x) = (a + 1) * x0 on random inputs.
  Mlp net(small_config());
  Rng rng(5);
  double first_loss = -1.0;
  double last_loss = 0.0;
  for (int step = 0; step < 2000; ++step) {
    std::vector<std::vector<double>> xs;
    std::vector<int> as;
    std::vector<double> ys;
    for (int i = 0; i < 16; ++i) {
      const double x0 = rng.next_double() * 2.0 - 1.0;
      const int a = static_cast<int>(rng.next_below(4));
      xs.push_back({x0, 0.5, -0.5});
      as.push_back(a);
      ys.push_back((a + 1) * x0);
    }
    const double loss = net.train_batch(xs, as, ys);
    if (first_loss < 0.0) first_loss = loss;
    last_loss = loss;
  }
  EXPECT_LT(last_loss, first_loss * 0.05);
  // Spot-check the learned function.
  const auto q = net.forward({0.5, 0.5, -0.5});
  EXPECT_NEAR(q[0], 0.5, 0.25);
  EXPECT_NEAR(q[3], 2.0, 0.5);
}

TEST(Mlp, CopyWeightsMakesNetworksAgree) {
  MlpConfig c2 = small_config();
  c2.seed = 99;
  Mlp a(small_config());
  Mlp b(c2);
  const std::vector<double> x{0.1, 0.2, 0.3};
  ASSERT_NE(a.forward(x), b.forward(x));
  b.copy_weights_from(a);
  EXPECT_EQ(a.forward(x), b.forward(x));
}

TEST(Mlp, SaveLoadRoundTrip) {
  Mlp a(small_config());
  // Perturb weights by training a bit so the save is non-trivial.
  a.train_batch({{1, 0, 0}, {0, 1, 0}}, {0, 1}, {1.0, -1.0});
  std::stringstream ss;
  a.save(ss);
  Mlp b(small_config());
  b.load(ss);
  const std::vector<double> x{0.3, -0.7, 0.2};
  const auto ya = a.forward(x);
  const auto yb = b.forward(x);
  ASSERT_EQ(ya.size(), yb.size());
  for (std::size_t i = 0; i < ya.size(); ++i) EXPECT_NEAR(ya[i], yb[i], 1e-12);
}

TEST(Mlp, ReluGatesNegativePreactivations) {
  // A single hidden unit with a strongly negative input should contribute
  // nothing; verified indirectly: zero input -> output equals bias path
  // regardless of input weights after ReLU kills activations.
  MlpConfig c;
  c.layers = {1, 8, 1};
  c.seed = 3;
  const Mlp net(c);
  const auto y0 = net.forward({0.0});
  ASSERT_EQ(y0.size(), 1u);
  // Output at zero input is finite and deterministic.
  EXPECT_TRUE(std::isfinite(y0[0]));
}

/// The one-row scalar MLP the batched kernel must reproduce bit for bit:
/// same initialization, forward loops, per-sample backprop and Adam step.
class ScalarMlp {
 public:
  explicit ScalarMlp(const MlpConfig& c) : c_(c) {
    Rng rng(c.seed);
    for (std::size_t i = 0; i + 1 < c.layers.size(); ++i) {
      Layer l;
      l.in = c.layers[i];
      l.out = c.layers[i + 1];
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
  }

  std::vector<double> forward(const std::vector<double>& input) const {
    std::vector<double> act = input;
    for (std::size_t li = 0; li < layers_.size(); ++li) act = layer(li, act);
    return act;
  }

  double train_batch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<int>& actions,
                     const std::vector<double>& targets) {
    const std::size_t batch = inputs.size();
    std::vector<std::vector<double>> gw(layers_.size()), gb(layers_.size());
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      gw[li].assign(layers_[li].w.size(), 0.0);
      gb[li].assign(layers_[li].b.size(), 0.0);
    }
    double loss = 0.0;
    for (std::size_t s = 0; s < batch; ++s) {
      std::vector<std::vector<double>> acts{inputs[s]};
      for (std::size_t li = 0; li < layers_.size(); ++li)
        acts.push_back(layer(li, acts[li]));
      const int a = actions[s];
      const double err = acts.back()[a] - targets[s];
      loss += err * err;
      std::vector<double> delta(layers_.back().out, 0.0);
      delta[a] = 2.0 * err / static_cast<double>(batch);
      for (std::size_t li = layers_.size(); li-- > 0;) {
        const Layer& l = layers_[li];
        std::vector<double> prev(l.in, 0.0);
        for (int o = 0; o < l.out; ++o) {
          const double d = delta[o];
          if (d == 0.0) continue;
          gb[li][o] += d;
          for (int i = 0; i < l.in; ++i) {
            gw[li][static_cast<std::size_t>(o) * l.in + i] += d * acts[li][i];
            prev[i] += d * l.w[static_cast<std::size_t>(o) * l.in + i];
          }
        }
        if (li > 0)
          for (int i = 0; i < l.in; ++i)
            if (acts[li][i] <= 0.0) prev[i] = 0.0;
        delta = std::move(prev);
      }
    }
    ++t_;
    const double b1t = 1.0 - std::pow(c_.beta1, static_cast<double>(t_));
    const double b2t = 1.0 - std::pow(c_.beta2, static_cast<double>(t_));
    for (std::size_t li = 0; li < layers_.size(); ++li) {
      Layer& l = layers_[li];
      const auto update = [&](std::vector<double>& p, std::vector<double>& m,
                              std::vector<double>& v, const std::vector<double>& g) {
        for (std::size_t i = 0; i < p.size(); ++i) {
          m[i] = c_.beta1 * m[i] + (1.0 - c_.beta1) * g[i];
          v[i] = c_.beta2 * v[i] + (1.0 - c_.beta2) * g[i] * g[i];
          const double mh = m[i] / b1t;
          const double vh = v[i] / b2t;
          p[i] -= c_.learning_rate * mh / (std::sqrt(vh) + c_.epsilon);
        }
      };
      update(l.w, l.mw, l.vw, gw[li]);
      update(l.b, l.mb, l.vb, gb[li]);
    }
    return loss / static_cast<double>(batch);
  }

  /// Mlp::save's format.
  std::string save() const {
    std::ostringstream out;
    out << "mlp " << layers_.size() + 1;
    for (int l : c_.layers) out << ' ' << l;
    out << '\n';
    out.precision(17);
    for (const Layer& l : layers_) {
      for (double w : l.w) out << w << ' ';
      out << '\n';
      for (double b : l.b) out << b << ' ';
      out << '\n';
    }
    return out.str();
  }

 private:
  struct Layer {
    int in = 0, out = 0;
    std::vector<double> w, b, mw, vw, mb, vb;
  };

  std::vector<double> layer(std::size_t li, const std::vector<double>& act) const {
    const Layer& l = layers_[li];
    std::vector<double> next(l.out);
    for (int o = 0; o < l.out; ++o) {
      double sum = l.b[o];
      for (int i = 0; i < l.in; ++i)
        sum += l.w[static_cast<std::size_t>(o) * l.in + i] * act[i];
      next[o] = sum;
    }
    if (li + 1 < layers_.size())
      for (auto& v : next) v = v > 0.0 ? v : 0.0;
    return next;
  }

  MlpConfig c_;
  std::vector<Layer> layers_;
  std::uint64_t t_ = 0;
};

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(Mlp, BatchedKernelMatchesScalarReference) {
  // Widths straddle the kernel's 32-output block and 4-row block: a full
  // block plus a tail, a lone tail, and batches of 1, 3, 32 and 33 rows.
  MlpConfig c;
  c.layers = {7, 40, 36, 5};
  c.learning_rate = 1e-2;
  c.seed = 21;
  for (const std::size_t batch : {1u, 3u, 32u, 33u}) {
    SCOPED_TRACE(batch);
    Mlp net(c);
    ScalarMlp ref(c);
    Rng rng(100 + batch);
    const auto row = [&rng](std::size_t k) {
      std::vector<double> x(7);
      // Every fifth row is all zeros: its first hidden layer sits exactly
      // at the ReLU kink once biases are zero, so whole rows are dead.
      if (k % 5 != 4)
        for (double& v : x) v = rng.next_double() * 4.0 - 2.0;
      return x;
    };
    for (int step = 0; step < 60; ++step) {
      std::vector<std::vector<double>> xs;
      std::vector<int> as;
      std::vector<double> ys;
      for (std::size_t k = 0; k < batch; ++k) {
        xs.push_back(row(k));
        as.push_back(static_cast<int>(rng.next_below(5)));
        // Every third target equals the prediction: a zero output delta.
        ys.push_back(k % 3 == 2 ? ref.forward(xs.back())[as.back()]
                                : rng.next_double() * 2.0 - 1.0);
      }
      const double loss = net.train_batch(xs, as, ys);
      const double ref_loss = ref.train_batch(xs, as, ys);
      ASSERT_EQ(std::memcmp(&loss, &ref_loss, sizeof loss), 0) << "step " << step;
    }
    std::ostringstream saved;
    net.save(saved);
    EXPECT_EQ(saved.str(), ref.save());

    std::vector<double> flat;
    std::vector<std::vector<double>> probes;
    for (std::size_t k = 0; k < batch; ++k) {
      probes.push_back(row(k));
      flat.insert(flat.end(), probes.back().begin(), probes.back().end());
    }
    const std::vector<double> batched = net.forward_batch(flat, batch);
    ASSERT_EQ(batched.size(), batch * 5);
    for (std::size_t k = 0; k < batch; ++k) {
      const std::vector<double> expected = ref.forward(probes[k]);
      EXPECT_TRUE(same_bits(net.forward(probes[k]), expected)) << "row " << k;
      EXPECT_TRUE(same_bits({batched.begin() + k * 5, batched.begin() + (k + 1) * 5},
                            expected))
          << "row " << k;
    }
  }
}

TEST(MlpDeathTest, RejectsMisshapenInputs) {
  Mlp net(small_config());
  // A short row among full ones: train_batch must not read past it.
  EXPECT_DEATH(net.train_batch({{1.0, 2.0, 3.0}, {1.0, 2.0}}, {0, 1}, {0.0, 0.0}),
               "check failed");
  const std::vector<double> five_values(5, 0.5);
  EXPECT_DEATH((void)net.forward_batch(five_values, 2), "check failed");
  EXPECT_DEATH((void)net.forward({1.0, 2.0}), "check failed");
}

}  // namespace
}  // namespace csat::nn
