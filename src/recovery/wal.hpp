#pragma once
// Write-ahead log (§3.8 "Sometimes a simple log-based scheme can be
// used"). Redo-only logging with commit records: every mutation is logged
// before being applied, and redo() is the one rule that turns a log back
// into state (DESIGN §9). Each owner keeps its own policy for what the log
// left undecided: RecoverableStore drops it, the ReplFS replica keeps it
// in doubt, and the discovery directory never writes in a transaction.

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "obs/metrics.hpp"
#include "recovery/storage.hpp"
#include "serialize/value.hpp"

namespace ndsm::recovery {

enum class LogKind : std::uint8_t {
  kPut = 1,
  kErase = 2,
  kBegin = 3,
  kCommit = 4,
  kAbort = 5,
  kCheckpoint = 6,  // marks that a checkpoint covers everything before it
};

struct LogRecord {
  std::uint64_t lsn = 0;
  LogKind kind = LogKind::kPut;
  std::uint64_t tx = 0;  // 0 = auto-committed singleton operation
  std::string key;
  serialize::Value value;

  [[nodiscard]] Bytes encode() const;
  static std::optional<LogRecord> decode(const Bytes& data);
};

// What the last replay() discarded, distinguishing the benign case (a
// torn tail: the crash interrupted the final append) from mid-log
// corruption (decodable records existed past the tear and were lost).
struct WalReplayStats {
  std::uint64_t records_replayed = 0;
  std::uint64_t records_dropped = 0;  // total entries discarded at/after the tear
  std::uint64_t records_dropped_valid = 0;  // of those, still-decodable records
  std::uint64_t bytes_dropped = 0;
  [[nodiscard]] bool torn() const { return records_dropped > 0; }
  [[nodiscard]] bool mid_log_corruption() const { return records_dropped_valid > 0; }
};

// What redo() did with the writes (Put and Erase records) it replayed.
// applied + discarded + the writes in doubt == the writes replayed.
struct RedoResult {
  std::uint64_t applied = 0;    // handed to the apply callback
  std::uint64_t discarded = 0;  // dropped by an Abort, or reset by a Begin
  std::vector<std::uint64_t> committed;  // Commit record ids, in log order
  // Transactions with no Commit or Abort after their writes, each with its
  // writes in log order (a Begin alone leaves an empty list).
  std::map<std::uint64_t, std::vector<LogRecord>> in_doubt;
};

class WriteAheadLog {
 public:
  explicit WriteAheadLog(StableStorage& storage) : storage_(storage) { register_metrics(); }

  // Append and return the assigned LSN.
  std::uint64_t append(LogKind kind, std::uint64_t tx, const std::string& key = "",
                       const serialize::Value& value = {});

  // Read every decodable record up to the first corrupt one, in order —
  // stop-at-tear semantics (a record after a tear may depend on state the
  // torn record carried, so replaying past it is unsound). Everything at
  // and after the tear is counted into last_replay()/cumulative counters
  // and logged, so a clean torn tail (one interrupted append) is
  // distinguishable from mid-log corruption (valid records lost).
  [[nodiscard]] std::vector<LogRecord> replay();

  // The redo rule, over replay()'s records in log order. A write outside
  // any transaction (tx 0) is applied at its own record. A Begin starts
  // its transaction afresh; a write joins its transaction, opening it if
  // no Begin came first. A Commit applies the transaction's writes, in
  // order, at the Commit record and records the id; an Abort drops them.
  // What is left comes back in doubt, for the owner to decide.
  RedoResult redo(const std::function<void(const LogRecord&)>& apply);

  // Discard log records already covered by a checkpoint.
  void truncate();

  [[nodiscard]] std::uint64_t next_lsn() const { return next_lsn_; }
  [[nodiscard]] std::size_t record_count() const { return storage_.size(); }
  [[nodiscard]] const WalReplayStats& last_replay() const { return last_replay_; }

 private:
  void register_metrics();

  StableStorage& storage_;
  std::uint64_t next_lsn_ = 1;
  WalReplayStats last_replay_;
  // Cumulative across replays (metric sources; a restart loop that keeps
  // losing records keeps counting up).
  std::uint64_t total_records_dropped_ = 0;
  std::uint64_t total_bytes_dropped_ = 0;
  obs::MetricGroup metrics_;
};

}  // namespace ndsm::recovery
