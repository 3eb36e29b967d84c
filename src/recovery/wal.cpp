#include "recovery/wal.hpp"

#include "common/log.hpp"

namespace ndsm::recovery {

void WriteAheadLog::register_metrics() {
  metrics_.set_labels("recovery.wal");
  metrics_.counter("recovery.wal.records_dropped", &total_records_dropped_);
  metrics_.counter("recovery.wal.bytes_dropped", &total_bytes_dropped_);
}

Bytes LogRecord::encode() const {
  serialize::Writer w;
  w.varint(lsn);
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(tx);
  w.str(key);
  value.encode(w);
  // Integrity digest over everything preceding it.
  w.u64(fnv1a(w.data()));
  return std::move(w).take();
}

std::optional<LogRecord> LogRecord::decode(const Bytes& data) {
  if (data.size() < 8) return std::nullopt;
  // Verify the digest first.
  const Bytes body{data.begin(), data.end() - 8};
  serialize::Reader tail{data.data() + data.size() - 8, 8};
  const auto digest = tail.u64();
  if (!digest || *digest != fnv1a(body)) return std::nullopt;

  serialize::Reader r{body};
  LogRecord rec;
  const auto lsn = r.varint();
  const auto kind = r.u8();
  const auto tx = r.varint();
  auto key = r.str();
  auto value = serialize::Value::decode(r);
  if (!lsn || !kind || !tx || !key || !value ||
      *kind < 1 || *kind > static_cast<std::uint8_t>(LogKind::kCheckpoint)) {
    return std::nullopt;
  }
  rec.lsn = *lsn;
  rec.kind = static_cast<LogKind>(*kind);
  rec.tx = *tx;
  rec.key = std::move(*key);
  rec.value = std::move(*value);
  return rec;
}

std::uint64_t WriteAheadLog::append(LogKind kind, std::uint64_t tx, const std::string& key,
                                    const serialize::Value& value) {
  LogRecord rec;
  rec.lsn = next_lsn_++;
  rec.kind = kind;
  rec.tx = tx;
  rec.key = key;
  rec.value = value;
  storage_.append(rec.encode());
  return rec.lsn;
}

std::vector<LogRecord> WriteAheadLog::replay() {
  std::vector<LogRecord> out;
  last_replay_ = WalReplayStats{};
  std::size_t i = 0;
  for (; i < storage_.size(); ++i) {
    auto rec = LogRecord::decode(storage_.read(i));
    if (!rec) break;  // torn tail: stop at the first corrupt record
    // Keep next_lsn monotone across restarts.
    if (rec->lsn >= next_lsn_) next_lsn_ = rec->lsn + 1;
    out.push_back(std::move(*rec));
  }
  last_replay_.records_replayed = out.size();
  // Account for everything past the tear instead of dropping it silently:
  // still-decodable records there mean mid-log corruption, not a benign
  // interrupted final append.
  for (std::size_t j = i; j < storage_.size(); ++j) {
    const Bytes& entry = storage_.read(j);
    last_replay_.records_dropped++;
    last_replay_.bytes_dropped += entry.size();
    if (j > i && LogRecord::decode(entry).has_value()) {
      last_replay_.records_dropped_valid++;
    }
  }
  total_records_dropped_ += last_replay_.records_dropped;
  total_bytes_dropped_ += last_replay_.bytes_dropped;
  if (last_replay_.mid_log_corruption()) {
    NDSM_ERROR("recovery", "WAL mid-log corruption: tear at entry " << i << " dropped "
                           << last_replay_.records_dropped_valid << " valid record(s), "
                           << last_replay_.bytes_dropped << " bytes");
  } else if (last_replay_.torn()) {
    NDSM_WARN("recovery", "WAL torn tail: dropped " << last_replay_.records_dropped
                          << " entr(ies), " << last_replay_.bytes_dropped << " bytes");
  }
  return out;
}

RedoResult WriteAheadLog::redo(const std::function<void(const LogRecord&)>& apply) {
  RedoResult out;
  // Open transactions collect in out.in_doubt; what is left at the end of
  // the log is in doubt.
  for (LogRecord& rec : replay()) {
    switch (rec.kind) {
      case LogKind::kPut:
      case LogKind::kErase:
        if (rec.tx == 0) {
          apply(rec);
          out.applied++;
        } else {
          out.in_doubt[rec.tx].push_back(std::move(rec));
        }
        break;
      case LogKind::kBegin: {
        auto& writes = out.in_doubt[rec.tx];
        out.discarded += writes.size();
        writes.clear();
        break;
      }
      case LogKind::kCommit:
        if (auto tx = out.in_doubt.extract(rec.tx)) {
          for (const LogRecord& w : tx.mapped()) apply(w);
          out.applied += tx.mapped().size();
        }
        out.committed.push_back(rec.tx);
        break;
      case LogKind::kAbort:
        if (auto tx = out.in_doubt.extract(rec.tx)) out.discarded += tx.mapped().size();
        break;
      case LogKind::kCheckpoint:
        break;
    }
  }
  return out;
}

void WriteAheadLog::truncate() { storage_.truncate_front(storage_.size()); }

}  // namespace ndsm::recovery
