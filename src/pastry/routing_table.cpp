#include "pastry/routing_table.hpp"

#include <stdexcept>

namespace webcache::pastry {

RoutingTable::RoutingTable(NodeId owner, unsigned bits_per_digit)
    : owner_(owner), bits_per_digit_(bits_per_digit) {
  if (bits_per_digit == 0 || 128 % bits_per_digit != 0 || bits_per_digit > 8) {
    throw std::invalid_argument("RoutingTable: bits_per_digit must divide 128 and be in [1,8]");
  }
  rows_ = 128 / bits_per_digit;
  columns_ = 1u << bits_per_digit;
}

std::optional<NodeId> RoutingTable::entry(unsigned row, unsigned column) const {
  if (row >= rows_ || column >= columns_) return std::nullopt;
  const auto* c = cell(row, column);
  return c != nullptr ? *c : std::nullopt;
}

std::optional<std::pair<unsigned, unsigned>> RoutingTable::slot_of(const NodeId& node) const {
  if (node == owner_) return std::nullopt;
  const unsigned row = owner_.shared_prefix_length(node, bits_per_digit_);
  const unsigned column = node.digit(row, bits_per_digit_);
  return std::make_pair(row, column);
}

bool RoutingTable::insert(const NodeId& node, bool replace) {
  const auto slot = slot_of(node);
  if (!slot) return false;
  const std::size_t at = index(slot->first, slot->second);
  if (at >= slots_.size()) {
    // Allocate whole rows, up to the one that receives the entry, and no
    // spare capacity: a table deepens a few times over its life.
    const std::size_t cells = static_cast<std::size_t>(slot->first + 1) * columns_;
    slots_.reserve(cells);
    slots_.resize(cells);
  }
  auto& c = slots_[at];
  if (c.has_value()) {
    if (!replace || *c == node) return false;
    c = node;
    return true;
  }
  c = node;
  ++populated_count_;
  return true;
}

bool RoutingTable::erase(const NodeId& node) {
  const auto slot = slot_of(node);
  if (!slot) return false;
  const std::size_t at = index(slot->first, slot->second);
  if (at < slots_.size() && slots_[at] == node) {
    slots_[at].reset();
    --populated_count_;
    return true;
  }
  return false;
}

std::optional<NodeId> RoutingTable::next_hop(const Uint128& key) const {
  const unsigned row = owner_.shared_prefix_length(key, bits_per_digit_);
  if (row >= rows_) return std::nullopt;  // key == owner id
  const auto* c = cell(row, key.digit(row, bits_per_digit_));
  return c != nullptr ? *c : std::nullopt;
}

std::vector<NodeId> RoutingTable::populated() const {
  std::vector<NodeId> out;
  out.reserve(populated_count_);
  for (const auto& s : slots_) {
    if (s.has_value()) out.push_back(*s);
  }
  return out;
}

}  // namespace webcache::pastry
