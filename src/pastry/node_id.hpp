// Pastry node identifiers (Rowstron & Druschel, Middleware 2001).
//
// Node ids and message keys are 128-bit values on a circular identifier
// space. Ids are read as sequences of digits in base 2^b; routing corrects
// one digit per hop, giving the ceil(log_{2^b} N) hop bound the paper's
// Section 4.1 cites for P2P client-cache lookups.
#pragma once

#include <string>

#include "common/sha1.hpp"
#include "common/uint128.hpp"

namespace webcache::pastry {

using NodeId = Uint128;

/// Derives a cacheId for a client machine the way the paper assigns them:
/// a uniform hash of the node's name/address.
[[nodiscard]] inline NodeId node_id_for(const std::string& name) {
  return Sha1::hash128(name);
}

/// True if `candidate` is numerically closer to `key` on the ring than
/// `incumbent`; ties break toward the lower id so closeness is a total order.
[[nodiscard]] inline bool closer_to(const Uint128& key, const NodeId& candidate,
                                    const NodeId& incumbent) {
  const Uint128 dc = Uint128::ring_distance(candidate, key);
  const Uint128 di = Uint128::ring_distance(incumbent, key);
  if (dc != di) return dc < di;
  return candidate < incumbent;
}

}  // namespace webcache::pastry
