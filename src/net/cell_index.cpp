#include "net/cell_index.hpp"

#include <tuple>

#include "common/audit.hpp"

namespace ndsm::net {

void CellIndex::freeze(double range_m) {
  range_m_ = range_m;
  cell_m_ = range_m > 0 ? range_m : 1.0;
  NDSM_INVARIANT(members_.size() < UINT32_MAX, "too many members for one cell index");
  struct Keyed {
    std::int64_t row;
    std::int64_t col;
    Member m;
  };
  std::vector<Keyed> keyed;
  keyed.reserve(members_.size());
  for (const Member& m : members_) keyed.push_back({cell_of(m.pos.y), cell_of(m.pos.x), m});
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    if (a.row != b.row) return a.row < b.row;
    if (a.col != b.col) return a.col < b.col;
    return a.m.id < b.m.id;
  });
  members_.clear();
  for (const Keyed& k : keyed) {
    const bool new_row = rows_.empty() || rows_.back().row != k.row;
    if (new_row) rows_.push_back({k.row, static_cast<std::uint32_t>(cells_.size())});
    if (new_row || cells_.back().col != k.col) {
      cells_.push_back({k.col, static_cast<std::uint32_t>(members_.size())});
    }
    members_.push_back(k.m);
  }
  rows_.push_back({INT64_MAX, static_cast<std::uint32_t>(cells_.size())});
  cells_.push_back({INT64_MAX, static_cast<std::uint32_t>(members_.size())});
  members_.shrink_to_fit();
  rows_.shrink_to_fit();
  cells_.shrink_to_fit();
}

bool CellIndex::holds(double range_m, std::vector<std::pair<NodeId, Vec2>> expected) const {
  if (range_m_ != range_m || members_.size() != expected.size()) return false;
  // Walk rows, cells and members through the `first` links: every member
  // must be reached once, under the row and column its position maps to,
  // with (row, column, id) strictly ascending along the walk.
  std::vector<std::pair<NodeId, Vec2>> held;
  std::tuple<std::int64_t, std::int64_t, NodeId> last;
  for (std::size_t r = 0; r + 1 < rows_.size(); ++r) {
    for (std::uint32_t c = rows_[r].first; c < rows_[r + 1].first; ++c) {
      for (std::uint32_t i = cells_[c].first; i < cells_[c + 1].first; ++i) {
        const Member& m = members_[i];
        const std::tuple key{rows_[r].row, cells_[c].col, m.id};
        if (cell_of(m.pos.y) != rows_[r].row || cell_of(m.pos.x) != cells_[c].col) return false;
        if (!held.empty() && !(last < key)) return false;
        last = key;
        held.emplace_back(m.id, m.pos);
      }
    }
  }
  const auto by_id = [](const auto& a, const auto& b) { return a.first < b.first; };
  std::sort(held.begin(), held.end(), by_id);
  std::sort(expected.begin(), expected.end(), by_id);
  return held == expected;
}

}  // namespace ndsm::net
