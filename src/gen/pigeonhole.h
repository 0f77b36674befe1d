#ifndef CSAT_GEN_PIGEONHOLE_H
#define CSAT_GEN_PIGEONHOLE_H

/// \file pigeonhole.h
/// The pigeonhole formula, the CNF-side hard-UNSAT family of the tests,
/// benches and the solve server's `family=php`.

#include "cnf/cnf.h"

namespace csat::gen {

/// Pigeonhole principle PHP(holes+1, holes): variable p * holes + h says
/// pigeon p sits in hole h. One clause per pigeon (it sits somewhere), then
/// for each hole a binary clause per pigeon pair (not both there). Always
/// UNSAT and resolution-hard, so runtime scales steeply with \p holes.
[[nodiscard]] cnf::Cnf pigeonhole(int holes);

}  // namespace csat::gen

#endif  // CSAT_GEN_PIGEONHOLE_H
