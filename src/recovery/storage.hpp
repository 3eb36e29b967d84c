#pragma once
// Stable storage: a volume of records whose contents survive crash() of
// the owning node (the volatile state does not). A volume lives in memory,
// or is mirrored to a file so that it also survives the process (the UDP
// backend's SIGKILL and respawn). Costs are modelled, not real: a disk
// with configurable bandwidth and per-operation latency, so recovery time
// and logging overhead are measurable in simulation time (§3.8 E9).

#include <cstdint>
#include <string>
#include <vector>

#include "common/audit.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"

namespace ndsm::recovery {

struct DiskModel {
  double bandwidth_bytes_per_s = 20e6;  // 2003-era disk: ~20 MB/s sequential
  Time seek_latency = duration::millis(8);

  [[nodiscard]] Time write_cost(std::size_t bytes) const {
    return seek_latency + from_seconds(static_cast<double>(bytes) / bandwidth_bytes_per_s);
  }
  [[nodiscard]] Time read_cost(std::size_t bytes) const {
    return seek_latency + from_seconds(static_cast<double>(bytes) / bandwidth_bytes_per_s);
  }
};

struct StorageStats {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
  Time time_spent = 0;  // modelled I/O time
};

class StableStorage {
 public:
  explicit StableStorage(DiskModel disk = {}) : disk_(disk) {}
  // A volume mirrored to the file at `path`: loads the file's records up
  // to the first torn one or the first over 16 MiB (each record is a u32
  // little-endian length, then its bytes) and trims the file to the end
  // of the last record loaded; append() writes and flushes every record
  // to the file before it returns.
  explicit StableStorage(std::string path, DiskModel disk = {});

  // Append a record; returns its index. The modelled cost is accumulated
  // in stats().time_spent (callers schedule it on the simulator if they
  // care about wall-clock effects).
  std::size_t append(Bytes record) {
    stats_.writes++;
    stats_.bytes_written += record.size();
    stats_.time_spent += disk_.write_cost(record.size());
    if (!path_.empty()) write_through(record);
    records_.push_back(std::move(record));
    return records_.size() - 1;
  }

  [[nodiscard]] const Bytes& read(std::size_t index) {
    stats_.reads++;
    stats_.bytes_read += records_[index].size();
    stats_.time_spent += disk_.read_cost(records_[index].size());
    return records_[index];
  }

  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] bool empty() const { return records_.empty(); }

  // Drop records [0, count) — used after a checkpoint makes the log prefix
  // redundant. Indices shift down by `count`.
  void truncate_front(std::size_t count) {
    NDSM_INVARIANT(path_.empty(), "truncate_front() on a file-backed volume");
    records_.erase(records_.begin(),
                   records_.begin() + static_cast<std::ptrdiff_t>(std::min(count, records_.size())));
  }

  // Corrupt a record (failure injection for recovery tests).
  void corrupt(std::size_t index) {
    if (index < records_.size() && !records_[index].empty()) {
      records_[index][0] ^= 0xff;
      records_[index].resize(records_[index].size() / 2);
    }
  }

  [[nodiscard]] const StorageStats& stats() const { return stats_; }
  void reset_stats() { stats_ = StorageStats{}; }

 private:
  void write_through(const Bytes& record) const;

  DiskModel disk_;
  std::string path_;  // empty: memory only
  std::vector<Bytes> records_;
  StorageStats stats_;
};

}  // namespace ndsm::recovery
