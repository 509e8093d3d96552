// Pastry routing table: rows indexed by shared-prefix length, columns by the
// next digit. Entry [r][c] names some node whose id shares the first r digits
// with the owner and whose digit r equals c. One routing hop corrects one
// digit, so a lookup takes at most ceil(128/b) hops and in expectation
// ceil(log_{2^b} N).
//
// Only about log_{2^b} N rows can ever fill (in a cluster of 25-100 nodes at
// b = 4, rows 0-2), so the cells are allocated a whole row at a time, up to
// the deepest row that has ever held an entry; a row past them reads as
// empty. The logical shape (rows() x columns()) and the populated() order do
// not depend on how many rows are allocated.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "pastry/node_id.hpp"

namespace webcache::pastry {

class RoutingTable {
 public:
  /// `bits_per_digit` is Pastry's b (default 4 → hexadecimal digits,
  /// 32 rows x 16 columns).
  RoutingTable(NodeId owner, unsigned bits_per_digit);

  [[nodiscard]] unsigned rows() const { return rows_; }
  [[nodiscard]] unsigned columns() const { return columns_; }
  [[nodiscard]] unsigned bits_per_digit() const { return bits_per_digit_; }
  [[nodiscard]] const NodeId& owner() const { return owner_; }

  /// Entry lookup; empty when no node with that prefix/digit is known.
  [[nodiscard]] std::optional<NodeId> entry(unsigned row, unsigned column) const;

  /// Installs `node` at its canonical position (derived from its shared
  /// prefix with the owner). Keeps an existing entry when one is present and
  /// `replace` is false. Returns true if the table changed.
  bool insert(const NodeId& node, bool replace = false);

  /// Removes `node` wherever it appears (after a failure). Returns true if
  /// an entry was cleared.
  bool erase(const NodeId& node);

  /// Canonical (row, column) coordinates for `node` relative to the owner,
  /// or nullopt when node == owner.
  [[nodiscard]] std::optional<std::pair<unsigned, unsigned>> slot_of(const NodeId& node) const;

  /// The next-hop candidate for `key`: entry at row = shared prefix length,
  /// column = key's next digit. Empty when that slot is unfilled.
  [[nodiscard]] std::optional<NodeId> next_hop(const Uint128& key) const;

  /// All populated entries (for repair protocols and tests).
  [[nodiscard]] std::vector<NodeId> populated() const;

  /// Visits populated entries in slot order (same enumeration as populated())
  /// without materializing a vector — the routing fallback path is hot.
  template <typename Fn>
  void for_each_populated(Fn&& fn) const {
    for (const auto& s : slots_) {
      if (s.has_value()) fn(*s);
    }
  }

  [[nodiscard]] std::size_t populated_count() const { return populated_count_; }
  /// Rows whose cells are allocated: the deepest row that ever held an
  /// entry, plus one.
  [[nodiscard]] unsigned allocated_rows() const {
    return static_cast<unsigned>(slots_.size() / columns_);
  }

 private:
  [[nodiscard]] std::size_t index(unsigned row, unsigned column) const {
    return static_cast<std::size_t>(row) * columns_ + column;
  }
  /// The cell at (row, column), or nullptr when its row is not allocated.
  [[nodiscard]] const std::optional<NodeId>* cell(unsigned row, unsigned column) const {
    const std::size_t at = index(row, column);
    return at < slots_.size() ? &slots_[at] : nullptr;
  }

  NodeId owner_;
  unsigned bits_per_digit_;
  unsigned rows_;
  unsigned columns_;
  std::size_t populated_count_ = 0;
  /// Row-major cells of the allocated rows only.
  std::vector<std::optional<NodeId>> slots_;
};

}  // namespace webcache::pastry
