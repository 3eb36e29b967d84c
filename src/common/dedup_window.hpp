#pragma once
// Duplicate suppression over a monotone id sequence: a floor plus the ids
// seen above it. Every id at or below the floor counts as seen. An id one
// above the floor raises the floor (absorbing any held ids it then
// reaches) without touching the held ids, so an in-order stream never
// allocates. An id further above is held, at most `capacity` of them; one
// more moves the smallest held id into the floor, which gives up on every
// unseen id below it. A capacity of 0 keeps no ids: the floor jumps to
// each out-of-order id.
//
// One mechanism, two policies: ReliableTransport keeps a window per
// (peer, incarnation) over completed message ids, sized by
// TransportConfig::dedup_window; routing::Router keeps one per origin over
// flood sequence numbers, sized by the constant Router::kFloodWindow.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ndsm {

class DedupWindow {
 public:
  explicit DedupWindow(std::size_t capacity) : capacity_(capacity) {}

  // Records `id`; false when it was already seen (or given up on).
  bool insert(std::uint64_t id) {
    if (id <= floor_) return false;
    if (id == floor_ + 1) {
      floor_ = id;
    } else {
      const auto it = std::lower_bound(held_.begin(), held_.end(), id);
      if (it != held_.end() && *it == id) return false;
      held_.insert(it, id);
      if (held_.size() > capacity_) floor_ = held_.front();
    }
    auto reached = held_.begin();
    while (reached != held_.end() && *reached <= floor_ + 1) floor_ = *reached++;
    held_.erase(held_.begin(), reached);
    return true;
  }

  [[nodiscard]] bool contains(std::uint64_t id) const {
    return id <= floor_ || std::binary_search(held_.begin(), held_.end(), id);
  }
  [[nodiscard]] std::uint64_t floor() const { return floor_; }
  // Ids held above the floor; never more than the capacity.
  [[nodiscard]] std::size_t held() const { return held_.size(); }

 private:
  std::size_t capacity_;
  std::uint64_t floor_ = 0;
  std::vector<std::uint64_t> held_;  // ascending, all above floor_ + 1
};

}  // namespace ndsm
