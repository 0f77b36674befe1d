#include "gen/pigeonhole.h"

#include <cstdint>
#include <vector>

namespace csat::gen {

cnf::Cnf pigeonhole(int holes) {
  const int pigeons = holes + 1;
  cnf::Cnf f;
  f.add_vars(static_cast<std::uint32_t>(pigeons * holes));
  const auto var = [&](int p, int h) {
    return static_cast<std::uint32_t>(p * holes + h);
  };
  for (int p = 0; p < pigeons; ++p) {
    std::vector<cnf::Lit> clause;
    for (int h = 0; h < holes; ++h)
      clause.push_back(cnf::Lit::make(var(p, h), false));
    f.add_clause(clause);
  }
  for (int h = 0; h < holes; ++h)
    for (int p1 = 0; p1 < pigeons; ++p1)
      for (int p2 = p1 + 1; p2 < pigeons; ++p2)
        f.add_binary(cnf::Lit::make(var(p1, h), true),
                     cnf::Lit::make(var(p2, h), true));
  return f;
}

}  // namespace csat::gen
