#include "recovery/store.hpp"

namespace ndsm::recovery {

using serialize::Value;
using serialize::ValueMap;

std::uint64_t RecoverableStore::begin_tx() {
  const std::uint64_t tx = next_tx_++;
  wal_.append(LogKind::kBegin, tx);
  open_tx_[tx];
  return tx;
}

void RecoverableStore::apply(const LogRecord& rec) {
  switch (rec.kind) {
    case LogKind::kPut:
      state_[rec.key] = rec.value;
      break;
    case LogKind::kErase:
      state_.erase(rec.key);
      break;
    default:
      break;
  }
}

void RecoverableStore::put(const std::string& key, Value value, std::uint64_t tx) {
  LogRecord rec;
  rec.kind = LogKind::kPut;
  rec.tx = tx;
  rec.key = key;
  rec.value = std::move(value);
  rec.lsn = wal_.append(rec.kind, tx, rec.key, rec.value);
  if (tx == 0) {
    apply(rec);  // auto-committed
  } else {
    open_tx_[tx].push_back(std::move(rec));
  }
}

void RecoverableStore::erase(const std::string& key, std::uint64_t tx) {
  LogRecord rec;
  rec.kind = LogKind::kErase;
  rec.tx = tx;
  rec.key = key;
  rec.lsn = wal_.append(rec.kind, tx, key, {});
  if (tx == 0) {
    apply(rec);
  } else {
    open_tx_[tx].push_back(std::move(rec));
  }
}

void RecoverableStore::commit(std::uint64_t tx) {
  const auto it = open_tx_.find(tx);
  if (it == open_tx_.end()) return;
  wal_.append(LogKind::kCommit, tx);
  for (const auto& rec : it->second) apply(rec);
  open_tx_.erase(it);
}

void RecoverableStore::abort(std::uint64_t tx) {
  const auto it = open_tx_.find(tx);
  if (it == open_tx_.end()) return;
  wal_.append(LogKind::kAbort, tx);
  open_tx_.erase(it);  // buffered ops never touched the state
}

std::optional<Value> RecoverableStore::get(const std::string& key) const {
  const auto it = state_.find(key);
  if (it == state_.end()) return std::nullopt;
  return it->second;
}

void RecoverableStore::checkpoint() {
  // Committed state as one self-describing value.
  ValueMap snapshot;
  for (const auto& [k, v] : state_) snapshot.emplace(k, v);
  serialize::Writer w;
  Value{std::move(snapshot)}.encode(w);
  w.u64(fnv1a(w.data()));
  checkpoints_.append(std::move(w).take());

  // The log prefix is now redundant; re-log open transactions so they
  // survive the truncation.
  auto open = std::move(open_tx_);
  open_tx_.clear();
  wal_.truncate();
  wal_.append(LogKind::kCheckpoint, 0);
  for (auto& [tx, records] : open) {
    wal_.append(LogKind::kBegin, tx);
    auto& dst = open_tx_[tx];
    for (auto& rec : records) {
      rec.lsn = wal_.append(rec.kind, tx, rec.key, rec.value);
      dst.push_back(std::move(rec));
    }
  }
}

void RecoverableStore::crash() {
  state_.clear();
  open_tx_.clear();
}

RecoveryReport RecoverableStore::recover() {
  RecoveryReport report;
  state_.clear();
  open_tx_.clear();

  // 1. Latest intact checkpoint.
  const Time io_before = log_storage_.stats().time_spent + checkpoints_.stats().time_spent;
  for (std::size_t i = checkpoints_.size(); i-- > 0;) {
    const Bytes& data = checkpoints_.read(i);
    if (data.size() < 8) continue;
    const Bytes body{data.begin(), data.end() - 8};
    serialize::Reader tail{data.data() + data.size() - 8, 8};
    const auto digest = tail.u64();
    if (!digest || *digest != fnv1a(body)) continue;  // corrupt checkpoint: try older
    serialize::Reader r{body};
    auto snapshot = Value::decode(r);
    if (!snapshot || snapshot->type() != Value::Type::kMap) continue;
    for (const auto& [k, v] : snapshot->as_map()) state_[k] = v;
    report.from_checkpoint = true;
    break;
  }

  // 2. Redo the log tail. A transaction the log left undecided is dropped.
  const RedoResult redo = wal_.redo([this](const LogRecord& rec) { apply(rec); });
  report.log_records_replayed = wal_.last_replay().records_replayed;
  report.ops_applied = redo.applied;
  report.uncommitted_discarded = redo.discarded;
  for (const auto& [tx, writes] : redo.in_doubt) report.uncommitted_discarded += writes.size();
  report.modelled_time =
      log_storage_.stats().time_spent + checkpoints_.stats().time_spent - io_before;
  return report;
}

}  // namespace ndsm::recovery
