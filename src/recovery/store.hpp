#pragma once
// RecoverableStore: the §3.8 recovery system as a component. A key-value
// state with write-ahead logging, periodic checkpoints to stable storage,
// transactional mutations (begin/commit/abort), crash injection, and
// redo recovery that reconstructs exactly the committed state: the newest
// intact checkpoint, then the log tail through WriteAheadLog::redo. A
// transaction the log left undecided is dropped.

#include <map>
#include <optional>
#include <string>

#include "recovery/wal.hpp"

namespace ndsm::recovery {

struct RecoveryReport {
  bool from_checkpoint = false;
  std::size_t log_records_replayed = 0;
  std::size_t ops_applied = 0;
  std::size_t uncommitted_discarded = 0;
  Time modelled_time = 0;  // disk-model time spent reading
};

class RecoverableStore {
 public:
  RecoverableStore(StableStorage& log_storage, StableStorage& checkpoint_storage)
      : log_storage_(log_storage), checkpoints_(checkpoint_storage), wal_(log_storage) {}

  // --- transactional mutation (logged before applied) ------------------------
  std::uint64_t begin_tx();
  void put(const std::string& key, serialize::Value value, std::uint64_t tx = 0);
  void erase(const std::string& key, std::uint64_t tx = 0);
  void commit(std::uint64_t tx);
  void abort(std::uint64_t tx);

  // --- reads (volatile, committed state + this tx's own writes) -------------
  [[nodiscard]] std::optional<serialize::Value> get(const std::string& key) const;
  [[nodiscard]] std::size_t size() const { return state_.size(); }

  // --- checkpointing ----------------------------------------------------------
  // Serialize the committed state to checkpoint storage and truncate the
  // log. Open transactions survive in the log (they are re-logged).
  void checkpoint();

  // --- failure & recovery ------------------------------------------------------
  // Crash: volatile state vanishes; stable storage survives.
  void crash();
  // Rebuild the committed state from the last checkpoint + log tail.
  RecoveryReport recover();

  [[nodiscard]] std::uint64_t log_records() const { return wal_.record_count(); }

 private:
  void apply(const LogRecord& rec);

  StableStorage& log_storage_;
  StableStorage& checkpoints_;
  WriteAheadLog wal_;
  std::map<std::string, serialize::Value> state_;  // committed state
  // Open transactions: buffered ops applied at commit.
  std::map<std::uint64_t, std::vector<LogRecord>> open_tx_;
  std::uint64_t next_tx_ = 1;
};

}  // namespace ndsm::recovery
