#ifndef CSAT_NN_MLP_H
#define CSAT_NN_MLP_H

/// \file mlp.h
/// Minimal dense neural network for the Deep-Q agent.
///
/// The paper's action-value function Q_theta(s, a) = Index(MLP(s), a)
/// (Eq. 4) is a plain multilayer perceptron. This implementation provides
/// exactly what DQN training needs and nothing else: forward inference,
/// masked squared-error backprop (gradient only on the chosen action's
/// output), an Adam optimizer, Xavier initialization from a fixed seed
/// (reproducibility), weight cloning for the target network (Eq. 5), and
/// stream save/load.
///
/// forward(), forward_batch() and train_batch() share one forward kernel
/// over a batch of rows. It computes a block of outputs per pass over the
/// inputs, from a transposed copy of each weight matrix, for a few rows at
/// a time, so each weight row is read once per row block. Backprop
/// accumulates each gradient row across the whole minibatch while the row
/// is cache-resident. Every activation, gradient and delta element is
/// still summed term by term in the textbook order: activations over
/// inputs ascending, gradients over samples ascending (zero deltas
/// skipped), back-propagated deltas over outputs ascending. Loops are only
/// reordered across independent elements, so on a build without FMA
/// contraction (the x86-64 default) results are bit-identical to the
/// one-row scalar loops and training is reproducible across batch sizes.

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

namespace csat::nn {

struct MlpConfig {
  /// Layer widths, input first, output last, e.g. {38, 128, 128, 5}.
  std::vector<int> layers;
  double learning_rate = 1e-3;
  /// Adam moments.
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
  std::uint64_t seed = 1234;
};

class Mlp {
 public:
  explicit Mlp(MlpConfig config);

  /// Inference on one input row: hidden layers ReLU, linear output head.
  [[nodiscard]] std::vector<double> forward(const std::vector<double>& input) const;

  /// Inference on \p n input rows packed row-major in \p inputs
  /// (n x input_size()). Returns the n x output_size() outputs, row-major;
  /// row r equals forward() of input row r bit for bit.
  [[nodiscard]] std::vector<double> forward_batch(std::span<const double> inputs,
                                                  std::size_t n) const;

  /// One Adam step on a minibatch of masked regression targets:
  /// loss = mean over samples of (out[action_i] - target_i)^2.
  /// Returns the batch loss before the update.
  double train_batch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<int>& actions,
                     const std::vector<double>& targets);

  /// Target-network sync: copies weights (not optimizer state).
  void copy_weights_from(const Mlp& other);

  void save(std::ostream& out) const;
  /// Loads weights saved by save(); layer shapes must match.
  void load(std::istream& in);

  [[nodiscard]] const MlpConfig& config() const { return config_; }
  [[nodiscard]] int input_size() const { return config_.layers.front(); }
  [[nodiscard]] int output_size() const { return config_.layers.back(); }

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> w;   // out x in, row-major
    std::vector<double> wt;  // w transposed (in x out), read by the forward kernel
    std::vector<double> b;   // out
    // Adam state.
    std::vector<double> mw, vw, mb, vb;
    // Gradient accumulators, reused across train_batch calls.
    std::vector<double> gw, gb;
  };

  /// The forward kernel: runs the n rows in acts[0] through every layer and
  /// leaves layer li's activations (n x out, post-ReLU on hidden layers) in
  /// acts[li + 1].
  void forward_rows(std::vector<std::vector<double>>& acts, std::size_t n) const;
  /// Rebuilds every wt from w; called whenever w changes.
  void refresh_transposed();

  MlpConfig config_;
  std::vector<Layer> layers_;
  std::uint64_t adam_t_ = 0;
};

}  // namespace csat::nn

#endif  // CSAT_NN_MLP_H
