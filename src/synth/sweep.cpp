#include "synth/sweep.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <unordered_map>
#include <vector>

#include "aig/simulate.h"
#include "common/check.h"
#include "common/rng.h"
#include "sat/solver.h"

namespace csat::synth {

namespace {

using aig::Lit;

constexpr int kSimWords = 4;     ///< random 64-pattern words per signature
constexpr int kMaxCexWords = 8;  ///< counterexample words (64 each)
/// Words per node in the flat signature array.
constexpr int kStride = kSimWords + kMaxCexWords;
constexpr std::uint64_t kSimSeed = 0x5eedf4a16ULL;
/// Conflicts one solve_assuming() call may spend before the pair is left
/// unmerged.
constexpr std::uint64_t kCheckConflicts = 500;
/// Solver propagations the whole pass may spend, per live AND, and at
/// most. A SAT answer assigns every loaded variable, so on circuits of
/// several thousand ANDs each disproof costs thousands of propagations;
/// past the cap the pass stops whatever the size.
constexpr std::uint64_t kPropagationsPerAnd = 128;
constexpr std::uint64_t kMaxPropagations = 400'000;
/// SAT checks one new node may take before it is kept as it is.
constexpr int kChecksPerNode = 4;
/// Class members a candidate search looks at.
constexpr int kScanPerSearch = 16;

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();
constexpr std::uint32_t kCollecting = kNone - 1;  ///< var_ mark during load()

enum class Verdict { kEqual, kDifferent, kUnknown };

class Sweeper {
 public:
  explicit Sweeper(const aig::Aig& src) : src_(src), rng_(kSimSeed) {}

  aig::Aig run() {
    const std::vector<std::uint32_t> live = src_.live_ands();
    draw_pi_words();
    if (live.empty() || po_set_by_simulation()) return aig::cleanup_copy(src_);
    prop_limit_ = std::min(kPropagationsPerAnd * live.size(), kMaxPropagations);

    map_.assign(src_.num_nodes(), aig::kFalse);
    grow();  // the constant node
    for (std::size_t i = 0; i < src_.num_pis(); ++i) {
      const Lit pi = dst_.add_pi();
      map_[src_.pis()[i]] = pi;
      grow();
      for (int w = 0; w < kSimWords; ++w)
        sig_[pi.node() * kStride + w] = pi_words_[w * src_.num_pis() + i];
    }
    for (std::uint32_t n : live) {
      const std::size_t before = dst_.num_nodes();
      const Lit l = dst_.and2(image(src_.fanin0(n)), image(src_.fanin1(n)));
      if (l.node() >= before) {
        grow();
        simulate_new(l.node());
        if (!exhausted()) reduce(l.node());
      }
      map_[n] = repr_[l.node()] ^ l.is_compl();
    }
    for (Lit po : src_.pos()) dst_.add_po(image(po));
    return aig::cleanup_copy(dst_);
  }

 private:
  /// --- simulation -------------------------------------------------------

  void draw_pi_words() {
    pi_words_.resize(src_.num_pis() * kSimWords);
    for (std::uint64_t& w : pi_words_) w = rng_.next_u64();
  }

  /// Simulates the input on the random words: a PO bit set means the
  /// instance is satisfiable, and the pass returns it unchanged.
  [[nodiscard]] bool po_set_by_simulation() const {
    const std::size_t pis = src_.num_pis();
    for (int w = 0; w < kSimWords; ++w) {
      const auto val = aig::simulate_words(
          src_, std::span<const std::uint64_t>(pi_words_).subspan(w * pis, pis));
      for (Lit po : src_.pos())
        if ((val[po.node()] ^ (po.is_compl() ? ~0ULL : 0ULL)) != 0) return true;
    }
    return false;
  }

  /// Signature words of a new AND node from its fanins'.
  void simulate_new(std::uint32_t x) {
    const Lit f0 = dst_.fanin0(x);
    const Lit f1 = dst_.fanin1(x);
    const std::uint64_t* a = &sig_[f0.node() * kStride];
    const std::uint64_t* b = &sig_[f1.node() * kStride];
    const std::uint64_t ma = f0.is_compl() ? ~0ULL : 0ULL;
    const std::uint64_t mb = f1.is_compl() ? ~0ULL : 0ULL;
    std::uint64_t* out = &sig_[x * kStride];
    for (int w = 0; w < words(); ++w) out[w] = (a[w] ^ ma) & (b[w] ^ mb);
  }

  [[nodiscard]] int words() const { return kSimWords + cex_words_; }
  /// Simulated value of \p n on the first pattern: signatures are
  /// normalized so that this bit is 0.
  [[nodiscard]] bool phase(std::uint32_t n) const { return (sig_[n * kStride] & 1) != 0; }
  [[nodiscard]] std::uint64_t norm(std::uint32_t n, int w) const {
    return sig_[n * kStride + w] ^ (phase(n) ? ~0ULL : 0ULL);
  }
  [[nodiscard]] bool constant_signature(std::uint32_t n) const {
    for (int w = 0; w < words(); ++w)
      if (norm(n, w) != 0) return false;
    return true;
  }
  [[nodiscard]] bool same_signature(std::uint32_t a, std::uint32_t b) const {
    for (int w = 0; w < words(); ++w)
      if (norm(a, w) != norm(b, w)) return false;
    return true;
  }
  [[nodiscard]] std::uint64_t signature_hash(std::uint32_t n) const {
    std::uint64_t h = 0x51ee9ULL;
    for (int w = 0; w < words(); ++w) h = mix64(h ^ norm(n, w));
    return h;
  }

  /// --- pending counterexamples ------------------------------------------
  // pend_ holds the counterexample word being filled: bits below
  // pend_bits_ are valid at every PI and every node loaded into the
  // solver (a loaded node's cone is loaded, so the model is its simulated
  // value); other nodes see the word only once it is committed.

  [[nodiscard]] std::uint64_t pend_mask() const {
    return pend_bits_ == 0 ? 0 : ~0ULL >> (64 - pend_bits_);
  }
  /// A pending pattern already sets x to its non-simulated value.
  [[nodiscard]] bool known_nonconstant(std::uint32_t x) const {
    return ((pend_[x] ^ (phase(x) ? ~0ULL : 0ULL)) & pend_mask()) != 0;
  }
  /// A pending pattern already tells x and y apart (both loaded).
  [[nodiscard]] bool known_different(std::uint32_t x, std::uint32_t y) const {
    const bool p = phase(x) != phase(y);
    return ((pend_[x] ^ pend_[y] ^ (p ? ~0ULL : 0ULL)) & pend_mask()) != 0;
  }

  /// Packs the solver's model as the next pending pattern; a full word is
  /// committed to every signature.
  void record_counterexample() {
    const std::vector<bool>& model = solver_.model();
    if (pend_bits_ == 0) {
      // Inputs outside every loaded cone take random values.
      for (std::uint32_t pi : dst_.pis()) pend_[pi] = rng_.next_u64();
    }
    const std::uint64_t bit = 1ULL << pend_bits_;
    for (std::uint32_t n : loaded_) {
      if (model[var_[n]]) {
        pend_[n] |= bit;
      } else {
        pend_[n] &= ~bit;
      }
    }
    if (++pend_bits_ == 64) commit();
  }

  /// Resimulates the full pending word over every node (one O(n) pass) as
  /// a new signature word and re-forms the classes.
  void commit() {
    const int w = words();
    for (std::uint32_t n = 1; n < dst_.num_nodes(); ++n) {
      std::uint64_t& out = sig_[n * kStride + w];
      if (dst_.is_pi(n)) {
        out = pend_[n];
        continue;
      }
      const Lit f0 = dst_.fanin0(n);
      const Lit f1 = dst_.fanin1(n);
      out = (sig_[f0.node() * kStride + w] ^ (f0.is_compl() ? ~0ULL : 0ULL)) &
            (sig_[f1.node() * kStride + w] ^ (f1.is_compl() ? ~0ULL : 0ULL));
      CSAT_DCHECK(var_[n] == kNone || out == pend_[n]);
    }
    ++cex_words_;
    pend_bits_ = 0;
    class_of_.clear();
    head_.clear();
    tail_.clear();
    for (std::uint32_t n = 1; n < dst_.num_nodes(); ++n)
      if (member_[n]) insert_member(n);
  }

  /// --- classes ------------------------------------------------------------
  // A class is the list of unmerged nodes with one normalized signature,
  // in id order: head_ first, linked through next_member_. Hash collisions
  // between different signatures probe the next key.

  static constexpr std::uint64_t kProbe = 0x9e3779b97f4a7c15ULL;

  [[nodiscard]] std::uint32_t find_class(std::uint32_t x) const {
    std::uint64_t key = signature_hash(x);
    for (;; key += kProbe) {
      const auto it = class_of_.find(key);
      if (it == class_of_.end()) return kNone;
      if (same_signature(x, head_[it->second])) return it->second;
    }
  }

  void insert_member(std::uint32_t x) {
    member_[x] = 1;
    next_member_[x] = 0;
    std::uint64_t key = signature_hash(x);
    for (;; key += kProbe) {
      const auto [it, fresh] = class_of_.try_emplace(
          key, static_cast<std::uint32_t>(head_.size()));
      if (fresh) {
        head_.push_back(x);
        tail_.push_back(x);
        return;
      }
      if (same_signature(x, head_[it->second])) {
        next_member_[tail_[it->second]] = x;
        tail_[it->second] = x;
        return;
      }
    }
  }

  /// --- the incremental solver ---------------------------------------------

  [[nodiscard]] cnf::Lit var_lit(std::uint32_t n) const {
    return cnf::Lit::make(var_[n], false);
  }

  /// Loads the Tseitin clauses of \p root's cone that the solver lacks.
  void load(std::uint32_t root) {
    if (var_[root] != kNone) return;
    stack_.assign(1, root);
    cone_.clear();
    while (!stack_.empty()) {
      const std::uint32_t n = stack_.back();
      stack_.pop_back();
      if (var_[n] != kNone) continue;
      var_[n] = kCollecting;
      cone_.push_back(n);
      if (dst_.is_and(n)) {
        stack_.push_back(dst_.fanin0(n).node());
        stack_.push_back(dst_.fanin1(n).node());
      }
    }
    std::sort(cone_.begin(), cone_.end());  // ids are topological
    for (std::uint32_t n : cone_) {
      CSAT_DCHECK(n != 0);  // strashed ANDs have no constant fanin
      var_[n] = solver_.new_var();
      loaded_.push_back(n);
      if (!dst_.is_and(n)) continue;
      const Lit f0 = dst_.fanin0(n);
      const Lit f1 = dst_.fanin1(n);
      const cnf::Lit y = var_lit(n);
      const cnf::Lit a = var_lit(f0.node()) ^ f0.is_compl();
      const cnf::Lit b = var_lit(f1.node()) ^ f1.is_compl();
      add({!y, a});
      add({!y, b});
      add({y, !a, !b});
      pend_[n] = (pend_[f0.node()] ^ (f0.is_compl() ? ~0ULL : 0ULL)) &
                 (pend_[f1.node()] ^ (f1.is_compl() ? ~0ULL : 0ULL));
    }
  }

  void add(std::initializer_list<cnf::Lit> clause) {
    // Gate clauses and proved equivalences: the formula stays satisfiable.
    CSAT_CHECK(solver_.add_clause(clause));
  }

  sat::Status query(std::initializer_list<cnf::Lit> assumptions) {
    sat::Limits limits;
    limits.max_conflicts = kCheckConflicts;
    return solver_.solve_assuming(
        std::span<const cnf::Lit>(assumptions.begin(), assumptions.size()),
        limits);
  }

  [[nodiscard]] bool exhausted() const {
    return cex_words_ == kMaxCexWords ||
           solver_.stats().propagations >= prop_limit_;
  }

  /// --- reduction ------------------------------------------------------------

  /// The next candidate for \p x: 0 (the constant) or a class member that
  /// no pending pattern tells apart from it; kNone when there is none.
  std::uint32_t next_candidate(std::uint32_t x) {
    const bool constant = constant_signature(x);
    const std::uint32_t cls = find_class(x);
    if (!constant && cls == kNone) return kNone;
    load(x);
    if (constant && !known_nonconstant(x)) return 0;
    if (cls == kNone) return kNone;
    int scanned = 0;
    for (std::uint32_t m = head_[cls]; m != 0 && scanned < kScanPerSearch;
         m = next_member_[m], ++scanned) {
      load(m);
      if (!known_different(x, m)) return m;
    }
    return kNone;
  }

  /// x is constant (its simulated value) unless some input flips it.
  Verdict prove_constant(std::uint32_t x) {
    const bool c = phase(x);
    const cnf::Lit lx = var_lit(x);
    switch (query({lx ^ c})) {
      case sat::Status::kSat:
        record_counterexample();
        return Verdict::kDifferent;
      case sat::Status::kUnknown:
        return Verdict::kUnknown;
      case sat::Status::kUnsat:
        break;
    }
    add({lx ^ !c});
    repr_[x] = aig::kFalse ^ c;
    return Verdict::kEqual;
  }

  /// x == y ^ p, with p the phase difference of their signatures, unless
  /// some input sets x and y ^ p apart in either direction.
  Verdict prove_equal(std::uint32_t x, std::uint32_t y) {
    const bool p = phase(x) != phase(y);
    const cnf::Lit lx = var_lit(x);
    const cnf::Lit ly = var_lit(y) ^ p;
    for (const auto& assumptions : {std::pair{lx, !ly}, std::pair{!lx, ly}}) {
      switch (query({assumptions.first, assumptions.second})) {
        case sat::Status::kSat:
          record_counterexample();
          return Verdict::kDifferent;
        case sat::Status::kUnknown:
          return Verdict::kUnknown;
        case sat::Status::kUnsat:
          break;
      }
    }
    add({!lx, ly});
    add({lx, !ly});
    repr_[x] = Lit::make(y, p);
    return Verdict::kEqual;
  }

  /// Merges the new node \p x into a proved equivalent, or makes it a
  /// class member.
  void reduce(std::uint32_t x) {
    for (int checks = 0; checks < kChecksPerNode && !exhausted(); ++checks) {
      const std::uint32_t y = next_candidate(x);
      if (y == kNone) break;
      const Verdict v = y == 0 ? prove_constant(x) : prove_equal(x, y);
      if (v == Verdict::kEqual) return;
      if (v == Verdict::kUnknown) break;
    }
    insert_member(x);
  }

  /// --- bookkeeping ----------------------------------------------------------

  /// The destination literal of a source literal (its node already built).
  [[nodiscard]] Lit image(Lit l) const { return map_[l.node()] ^ l.is_compl(); }

  /// Extends the per-node arrays to the destination's node count.
  void grow() {
    const std::size_t n = dst_.num_nodes();
    for (std::size_t id = repr_.size(); id < n; ++id)
      repr_.push_back(Lit::make(static_cast<std::uint32_t>(id), false));
    sig_.resize(n * kStride, 0);
    pend_.resize(n, 0);
    var_.resize(n, kNone);
    next_member_.resize(n, 0);
    member_.resize(n, 0);
  }

  const aig::Aig& src_;
  Rng rng_;
  std::vector<std::uint64_t> pi_words_;  ///< kSimWords words of all PIs
  std::uint64_t prop_limit_ = 0;

  aig::Aig dst_;
  std::vector<Lit> map_;   ///< source node -> destination literal
  std::vector<Lit> repr_;  ///< destination node -> its representative

  std::vector<std::uint64_t> sig_;  ///< kStride words per node
  int cex_words_ = 0;               ///< committed counterexample words
  std::vector<std::uint64_t> pend_;
  int pend_bits_ = 0;

  std::unordered_map<std::uint64_t, std::uint32_t> class_of_;
  std::vector<std::uint32_t> head_;
  std::vector<std::uint32_t> tail_;
  std::vector<std::uint32_t> next_member_;  ///< 0 ends a class
  std::vector<char> member_;

  sat::Solver solver_;
  std::vector<std::uint32_t> var_;     ///< kNone until loaded
  std::vector<std::uint32_t> loaded_;  ///< loaded nodes, PIs included
  std::vector<std::uint32_t> stack_;
  std::vector<std::uint32_t> cone_;
};

}  // namespace

aig::Aig sweep(const aig::Aig& g) { return Sweeper(g).run(); }

}  // namespace csat::synth
