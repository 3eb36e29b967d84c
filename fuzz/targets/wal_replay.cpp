// Fuzz boundary: write-ahead-log replay over corrupt stable storage. The
// input is split into records (u16 little-endian length prefix, then that
// many bytes, repeated; the final short record takes whatever remains) to
// model a log whose every record the adversary controls. Properties:
//   * LogRecord::decode and WriteAheadLog::replay never crash/UB;
//   * stop-at-tear bookkeeping balances: replayed + dropped == records;
//   * a record that decodes re-encodes and decodes back (digest included);
//   * the redo over the same image accounts for every write it replayed:
//     applied + discarded + in doubt == the Put and Erase records.

#include "fuzz_target.hpp"
#include "recovery/wal.hpp"

using namespace ndsm;

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Whole input as one record through the raw decoder.
  {
    const Bytes whole(data, data + size);
    if (auto rec = recovery::LogRecord::decode(whole)) {
      const Bytes wire = rec->encode();
      const auto again = recovery::LogRecord::decode(wire);
      NDSM_FUZZ_CHECK(again.has_value());
      NDSM_FUZZ_CHECK(again->lsn == rec->lsn);
      NDSM_FUZZ_CHECK(again->key == rec->key);
    }
  }

  // Length-prefix split into a storage image, then a full replay.
  recovery::StableStorage storage;
  std::size_t pos = 0;
  while (pos < size && storage.size() < 64) {
    if (size - pos < 2) {
      storage.append(Bytes(data + pos, data + size));
      break;
    }
    const std::size_t want = static_cast<std::size_t>(data[pos]) |
                             (static_cast<std::size_t>(data[pos + 1]) << 8);
    pos += 2;
    const std::size_t take = std::min(want, size - pos);
    storage.append(Bytes(data + pos, data + pos + take));
    pos += take;
  }

  recovery::WriteAheadLog wal{storage};
  const auto records = wal.replay();
  const auto& stats = wal.last_replay();
  NDSM_FUZZ_CHECK(records.size() == stats.records_replayed);
  NDSM_FUZZ_CHECK(stats.records_replayed + stats.records_dropped == storage.size());
  NDSM_FUZZ_CHECK(stats.records_dropped_valid <= stats.records_dropped);

  std::uint64_t writes = 0;
  for (const auto& rec : records) {
    if (rec.kind == recovery::LogKind::kPut || rec.kind == recovery::LogKind::kErase) writes++;
  }
  std::uint64_t applied = 0;
  const auto redo = wal.redo([&](const recovery::LogRecord&) { applied++; });
  std::uint64_t in_doubt = 0;
  for (const auto& [tx, tx_writes] : redo.in_doubt) in_doubt += tx_writes.size();
  NDSM_FUZZ_CHECK(wal.last_replay().records_replayed == records.size());
  NDSM_FUZZ_CHECK(applied == redo.applied);
  NDSM_FUZZ_CHECK(redo.applied + redo.discarded + in_doubt == writes);
  return 0;
}
