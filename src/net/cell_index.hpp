#pragma once
// net::CellIndex — the spatial index of one wireless medium on one shard
// of a net::World: which of the shard's members are in range of a point
// (DESIGN §8, §13).
//
// The members are kept sorted by (cell row, cell column, id) with their
// positions inline, plus the occupied rows and each row's occupied cells
// in the same order (range-sized cells, O(members) memory whatever the
// layout's bounding box). Every point in range of a query lies in the
// 3x3 cells around it, and those cells are three contiguous member runs,
// so a query makes one binary search over the rows and one per row over
// its cells, then scans the runs. The index is immutable once frozen: a
// sharded World freezes each shard's index once at seal(), a one-shard
// World rebuilds a medium's index from scratch on the first query after
// the medium changes.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "common/vec2.hpp"

namespace ndsm::net {

class CellIndex {
 public:
  // Drop every member, keeping the buffers for a rebuild.
  void clear() {
    members_.clear();
    rows_.clear();
    cells_.clear();
  }
  void add(NodeId id, Vec2 pos) { members_.push_back({pos, id}); }
  // Sort the members and list the occupied rows and cells. Cells are
  // range_m wide, or 1 m when range_m <= 0.
  void freeze(double range_m);

  // Append every member within range of `center` except `exclude`, in
  // (cell row, cell column, id) order. Returns how many members the 3x3
  // cells around `center` hold, `exclude` included.
  std::size_t gather(Vec2 center, NodeId exclude, std::vector<NodeId>& out) const {
    const std::int64_t row = cell_of(center.y);
    const std::int64_t col = cell_of(center.x);
    std::size_t scanned = 0;
    auto r = std::lower_bound(rows_.begin(), rows_.end(), row - 1,
                              [](const Row& x, std::int64_t v) { return x.row < v; });
    for (; r->row <= row + 1; ++r) {
      // Cells col-1..col+1 of a row are adjacent, so their members form
      // one run: from the first of them to the next cell, or the row's end.
      const auto row_end = cells_.begin() + (r + 1)->first;
      auto cell = std::lower_bound(cells_.begin() + r->first, row_end, col - 1,
                                   [](const Cell& c, std::int64_t v) { return c.col < v; });
      const std::uint32_t first = cell->first;
      while (cell != row_end && cell->col <= col + 1) ++cell;
      scanned += cell->first - first;
      // About a third of a run is in range, in no predictable pattern, so
      // write every member and keep the ones in range rather than branch.
      std::size_t n = out.size();
      out.resize(n + (cell->first - first));
      for (std::uint32_t i = first; i < cell->first; ++i) {
        const Member& m = members_[i];
        out[n] = m.id;
        n += static_cast<std::size_t>((m.id != exclude) & !(distance(center, m.pos) > range_m_));
      }
      out.resize(n);
    }
    return scanned;
  }

  // Audit: the index was frozen for `range_m` and holds exactly
  // `expected` (one (id, position) per member, in any order), each member
  // filed under the cell its position maps to, in (row, column, id) order.
  [[nodiscard]] bool holds(double range_m, std::vector<std::pair<NodeId, Vec2>> expected) const;

 private:
  struct Member {
    Vec2 pos;
    NodeId id;
  };
  struct Row {
    std::int64_t row;
    std::uint32_t first;  // index of the row's first cell
  };
  struct Cell {
    std::int64_t col;
    std::uint32_t first;  // index of the cell's first member
  };

  [[nodiscard]] std::int64_t cell_of(double v) const {
    return static_cast<std::int64_t>(std::floor(v / cell_m_));
  }

  double range_m_ = 0;
  double cell_m_ = 1;
  std::vector<Member> members_;
  // The occupied rows, and each row's occupied cells, in ascending order;
  // each ends in a sentinel whose `first` closes the last run.
  std::vector<Row> rows_;
  std::vector<Cell> cells_;
};

}  // namespace ndsm::net
