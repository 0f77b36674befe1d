#include "sat/proof.h"

#include "common/check.h"

namespace csat::sat {

void TextDratWriter::write_clause(std::span<const Lit> lits) {
  for (Lit l : lits) *out_ << l.to_dimacs() << ' ';
  *out_ << "0\n";
}

void TextDratWriter::add(std::span<const Lit> lits) { write_clause(lits); }

void TextDratWriter::remove(std::span<const Lit> lits) {
  *out_ << "d ";
  write_clause(lits);
}

std::span<const Lit> RemapTracer::translate(std::span<const Lit> lits) {
  scratch_.clear();
  scratch_.reserve(lits.size());
  for (Lit l : lits) {
    CSAT_CHECK_MSG(l.var() < inverse_map_.size(),
                   "proof remap: literal outside the mapped variable range");
    scratch_.push_back(Lit::make(inverse_map_[l.var()], l.sign()));
  }
  return scratch_;
}

}  // namespace csat::sat
