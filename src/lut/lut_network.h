#ifndef CSAT_LUT_LUT_NETWORK_H
#define CSAT_LUT_LUT_NETWORK_H

/// \file lut_network.h
/// K-input LUT netlists — the intermediate representation the paper's
/// pipeline produces between logic synthesis and CNF encoding. A LUT node
/// stores its fanins and its local function, a single-word table over at
/// most six inputs (tt/truth_table.h) whose arity is the fanin count;
/// mapping "hides" the AIG's internal nodes inside LUTs so the final CNF
/// only branches on LUT boundaries (Section III-C).

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "tt/truth_table.h"

namespace csat::lut {

class LutNetwork {
 public:
  enum class NodeType : std::uint8_t { kPi, kLut };

  struct Po {
    enum class Kind : std::uint8_t { kConst0, kConst1, kNode } kind = Kind::kConst0;
    std::uint32_t node = 0;
    bool complemented = false;
  };

  std::uint32_t add_pi() {
    const auto id = static_cast<std::uint32_t>(types_.size());
    types_.push_back(NodeType::kPi);
    fanins_.emplace_back();
    funcs_.push_back(0);
    pis_.push_back(id);
    return id;
  }

  /// Adds a LUT computing \p func over \p fanins (func var i = fanins[i],
  /// at most six fanins; bits at and above 2^fanins.size() are dropped).
  /// Fanins must already exist, which keeps ids topologically ordered.
  std::uint32_t add_lut(std::vector<std::uint32_t> fanins, std::uint64_t func) {
    const int k = static_cast<int>(fanins.size());
    CSAT_CHECK(k <= tt::kWordVars);
    const auto id = static_cast<std::uint32_t>(types_.size());
    for (std::uint32_t f : fanins) CSAT_CHECK(f < id);
    types_.push_back(NodeType::kLut);
    fanins_.push_back(std::move(fanins));
    funcs_.push_back(func & tt::word_mask(k));
    return id;
  }

  void add_po(std::uint32_t node, bool complemented) {
    CSAT_CHECK(node < types_.size());
    pos_.push_back({Po::Kind::kNode, node, complemented});
  }
  void add_po_const(bool value) {
    pos_.push_back({value ? Po::Kind::kConst1 : Po::Kind::kConst0, 0, false});
  }

  [[nodiscard]] std::size_t num_nodes() const { return types_.size(); }
  [[nodiscard]] std::size_t num_pis() const { return pis_.size(); }
  [[nodiscard]] std::size_t num_pos() const { return pos_.size(); }
  [[nodiscard]] std::size_t num_luts() const { return types_.size() - pis_.size(); }

  [[nodiscard]] bool is_pi(std::uint32_t n) const { return types_[n] == NodeType::kPi; }
  [[nodiscard]] const std::vector<std::uint32_t>& fanins(std::uint32_t n) const {
    return fanins_[n];
  }
  /// Table of LUT \p n over its fanins (minterm m at bit m).
  [[nodiscard]] std::uint64_t func(std::uint32_t n) const { return funcs_[n]; }
  [[nodiscard]] const std::vector<std::uint32_t>& pis() const { return pis_; }
  [[nodiscard]] const std::vector<Po>& pos() const { return pos_; }

  /// Longest PI-to-PO path in LUT levels.
  [[nodiscard]] int depth() const;

  /// Total fanin edges over all LUTs.
  [[nodiscard]] std::size_t num_edges() const;

  /// Bit-parallel simulation (one word per node, PIs fed from \p pi_words).
  [[nodiscard]] std::vector<std::uint64_t> simulate_words(
      std::span<const std::uint64_t> pi_words) const;

  /// Single-pattern evaluation of all POs.
  [[nodiscard]] std::vector<bool> evaluate(const std::vector<bool>& inputs) const;

 private:
  std::vector<NodeType> types_;
  std::vector<std::vector<std::uint32_t>> fanins_;
  std::vector<std::uint64_t> funcs_;
  std::vector<std::uint32_t> pis_;
  std::vector<Po> pos_;
};

}  // namespace csat::lut

#endif  // CSAT_LUT_LUT_NETWORK_H
