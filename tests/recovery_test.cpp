#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

#include "common/rng.hpp"
#include "recovery/store.hpp"
#include "recovery/wal.hpp"

namespace ndsm::serialize {
// Readable failure messages for Value comparisons.
void PrintTo(const Value& v, std::ostream* os) { *os << v.to_string(); }
}  // namespace ndsm::serialize

namespace ndsm::recovery {
namespace {

using serialize::Value;

struct StoreTest : ::testing::Test {
  StableStorage log;
  StableStorage checkpoints;
  RecoverableStore store{log, checkpoints};
};

TEST_F(StoreTest, PutGetErase) {
  store.put("a", Value{1});
  store.put("b", Value{"two"});
  EXPECT_EQ(store.get("a"), Value{1});
  EXPECT_EQ(store.get("b"), Value{"two"});
  store.erase("a");
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_EQ(store.size(), 1u);
}

TEST_F(StoreTest, CrashLosesVolatileState) {
  store.put("a", Value{1});
  store.crash();
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_EQ(store.size(), 0u);
}

TEST_F(StoreTest, RecoveryReplaysCommittedOps) {
  store.put("a", Value{1});
  store.put("b", Value{2});
  store.erase("a");
  store.crash();
  const auto report = store.recover();
  EXPECT_FALSE(store.get("a").has_value());
  EXPECT_EQ(store.get("b"), Value{2});
  EXPECT_EQ(report.ops_applied, 3u);
  EXPECT_FALSE(report.from_checkpoint);
}

TEST_F(StoreTest, UncommittedTransactionDiscardedOnRecovery) {
  store.put("stable", Value{0});
  const auto tx = store.begin_tx();
  store.put("dirty", Value{1}, tx);
  // Crash before commit.
  store.crash();
  const auto report = store.recover();
  EXPECT_EQ(store.get("stable"), Value{0});
  EXPECT_FALSE(store.get("dirty").has_value());
  EXPECT_EQ(report.uncommitted_discarded, 1u);
}

TEST_F(StoreTest, CommittedTransactionSurvives) {
  const auto tx = store.begin_tx();
  store.put("x", Value{42}, tx);
  store.put("y", Value{43}, tx);
  store.commit(tx);
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("x"), Value{42});
  EXPECT_EQ(store.get("y"), Value{43});
}

TEST_F(StoreTest, TransactionIsolationBeforeCommit) {
  const auto tx = store.begin_tx();
  store.put("x", Value{1}, tx);
  // Buffered writes are invisible until commit.
  EXPECT_FALSE(store.get("x").has_value());
  store.commit(tx);
  EXPECT_EQ(store.get("x"), Value{1});
}

TEST_F(StoreTest, AbortDropsWrites) {
  store.put("keep", Value{1});
  const auto tx = store.begin_tx();
  store.put("drop", Value{2}, tx);
  store.abort(tx);
  EXPECT_FALSE(store.get("drop").has_value());
  // Also after crash + recovery.
  store.crash();
  store.recover();
  EXPECT_FALSE(store.get("drop").has_value());
  EXPECT_EQ(store.get("keep"), Value{1});
}

TEST_F(StoreTest, CheckpointTruncatesLog) {
  for (int i = 0; i < 50; ++i) store.put("k" + std::to_string(i), Value{i});
  EXPECT_EQ(store.log_records(), 50u);
  store.checkpoint();
  EXPECT_LE(store.log_records(), 1u);  // just the checkpoint marker
  store.crash();
  const auto report = store.recover();
  EXPECT_TRUE(report.from_checkpoint);
  EXPECT_EQ(store.size(), 50u);
  EXPECT_EQ(store.get("k17"), Value{17});
}

TEST_F(StoreTest, RecoveryCombinesCheckpointAndLogTail) {
  store.put("before", Value{1});
  store.checkpoint();
  store.put("after", Value{2});
  store.crash();
  const auto report = store.recover();
  EXPECT_TRUE(report.from_checkpoint);
  EXPECT_EQ(store.get("before"), Value{1});
  EXPECT_EQ(store.get("after"), Value{2});
  EXPECT_EQ(report.ops_applied, 1u);  // only the tail op replayed
}

// A transaction's writes take effect at its commit, live and in recovery:
// of two transactions writing one key, the one that commits last decides
// the value, whatever order their writes were logged in.
TEST_F(StoreTest, RecoveryAppliesTransactionsInCommitOrder) {
  const auto first = store.begin_tx();
  const auto second = store.begin_tx();
  store.put("k", Value{1}, first);
  store.put("k", Value{2}, second);
  store.commit(second);
  store.commit(first);
  ASSERT_EQ(store.get("k"), Value{1});
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("k"), Value{1});
}

// A write outside any transaction takes effect at once; a transaction
// that writes the same key and commits later overrides it.
TEST_F(StoreTest, RecoveryOrdersSingletonWritesBeforeALaterCommit) {
  const auto tx = store.begin_tx();
  store.put("k", Value{1}, tx);
  store.put("k", Value{2});
  store.commit(tx);
  ASSERT_EQ(store.get("k"), Value{1});
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("k"), Value{1});
}

// A store rebuilt on the same volumes, as a restarted process builds it,
// numbers its transactions from 1 again. Its Begin starts the reused id
// afresh, so the old incarnation's Commit of that id does not commit the
// new transaction's writes.
TEST_F(StoreTest, RebuiltStoreDoesNotInheritAnOldCommit) {
  const auto tx = store.begin_tx();
  store.put("k", Value{1}, tx);
  store.commit(tx);

  RecoverableStore reborn{log, checkpoints};
  reborn.recover();
  const auto reused = reborn.begin_tx();
  EXPECT_EQ(reused, tx);
  reborn.put("k", Value{2}, reused);  // never commits
  ASSERT_EQ(reborn.get("k"), Value{1});
  reborn.crash();
  const auto report = reborn.recover();
  EXPECT_EQ(reborn.get("k"), Value{1});
  EXPECT_EQ(report.uncommitted_discarded, 1u);
}

// The other side of a reused id: the old incarnation left it open, and
// the new one's Begin resets it, so its Commit applies only its own write.
TEST_F(StoreTest, ReusedIdCommitsOnlyTheNewIncarnationsWrites) {
  const auto tx = store.begin_tx();
  store.put("old", Value{1}, tx);  // the restart leaves this one open

  RecoverableStore reborn{log, checkpoints};
  reborn.recover();
  const auto reused = reborn.begin_tx();
  EXPECT_EQ(reused, tx);
  reborn.put("new", Value{2}, reused);
  reborn.commit(reused);
  reborn.crash();
  const auto report = reborn.recover();
  EXPECT_EQ(reborn.get("new"), Value{2});
  EXPECT_FALSE(reborn.get("old").has_value());
  EXPECT_EQ(report.uncommitted_discarded, 1u);
}

TEST_F(StoreTest, OpenTransactionSurvivesCheckpoint) {
  const auto tx = store.begin_tx();
  store.put("pending", Value{9}, tx);
  store.checkpoint();  // open tx must be re-logged
  store.commit(tx);
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("pending"), Value{9});
}

TEST_F(StoreTest, TornLogTailIgnored) {
  store.put("good", Value{1});
  store.put("torn", Value{2});
  log.corrupt(log.size() - 1);  // simulate a torn final write
  store.crash();
  const auto report = store.recover();
  EXPECT_EQ(store.get("good"), Value{1});
  EXPECT_FALSE(store.get("torn").has_value());
  EXPECT_EQ(report.log_records_replayed, 1u);
}

// Regression: a corrupt record in the *middle* of the log used to be
// indistinguishable from a benign torn tail — replay() silently stopped and
// the still-valid records after the tear vanished without a trace. Replay
// still stops at the tear (replaying past it is unsound), but now accounts
// for every dropped record and flags the decodable ones as mid-log
// corruption.
TEST(WalReplay, CorruptMiddleStopsAtTearAndCountsDroppedValidRecords) {
  StableStorage storage;
  WriteAheadLog wal(storage);
  for (int i = 0; i < 5; ++i) {
    wal.append(LogKind::kPut, 0, "k" + std::to_string(i), Value{i});
  }
  storage.corrupt(2);  // records 0,1 intact; 2 torn; 3,4 valid but stranded
  const auto records = wal.replay();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[1].key, "k1");
  const auto& report = wal.last_replay();
  EXPECT_EQ(report.records_replayed, 2u);
  EXPECT_EQ(report.records_dropped, 3u);
  EXPECT_EQ(report.records_dropped_valid, 2u);
  EXPECT_GT(report.bytes_dropped, 0u);
  EXPECT_TRUE(report.torn());
  EXPECT_TRUE(report.mid_log_corruption());
}

TEST(WalReplay, TornFinalRecordIsNotMidLogCorruption) {
  StableStorage storage;
  WriteAheadLog wal(storage);
  for (int i = 0; i < 3; ++i) {
    wal.append(LogKind::kPut, 0, "k" + std::to_string(i), Value{i});
  }
  storage.corrupt(storage.size() - 1);  // crash mid-append of the last record
  const auto records = wal.replay();
  EXPECT_EQ(records.size(), 2u);
  const auto& report = wal.last_replay();
  EXPECT_EQ(report.records_dropped, 1u);
  EXPECT_EQ(report.records_dropped_valid, 0u);
  EXPECT_TRUE(report.torn());
  EXPECT_FALSE(report.mid_log_corruption());
}

TEST(WalReplay, CleanLogReportsNothingDropped) {
  StableStorage storage;
  WriteAheadLog wal(storage);
  wal.append(LogKind::kPut, 0, "k", Value{1});
  (void)wal.replay();
  const auto& report = wal.last_replay();
  EXPECT_EQ(report.records_replayed, 1u);
  EXPECT_FALSE(report.torn());
  EXPECT_FALSE(report.mid_log_corruption());
}

// Satellite regression (DESIGN §15): a storage image an attacker wrote
// wholesale — random noise, a hostile length field, an empty record — must
// replay without crashing, and the accounting invariant
// replayed + dropped == storage.size() must hold on every shape.
TEST(WalReplay, HostileStorageImageFailsClosed) {
  Rng rng{0xbadbeef};
  for (int trial = 0; trial < 64; ++trial) {
    StableStorage storage;
    const auto n = rng.uniform_int(1, 6);
    for (int i = 0; i < n; ++i) {
      Bytes rec;
      const auto len = rng.uniform_int(0, 64);
      for (int b = 0; b < len; ++b) {
        rec.push_back(static_cast<std::uint8_t>(rng.next_u32()));
      }
      (void)storage.append(std::move(rec));
    }
    WriteAheadLog wal(storage);
    const auto records = wal.replay();
    const auto& report = wal.last_replay();
    EXPECT_EQ(records.size(), report.records_replayed) << trial;
    EXPECT_EQ(report.records_replayed + report.records_dropped, storage.size())
        << trial;
  }
}

TEST(WalReplay, HugeDeclaredKeyLengthRejected) {
  StableStorage storage;
  WriteAheadLog wal(storage);
  wal.append(LogKind::kPut, 1, "real", Value{1});
  // Hand-craft a record whose key length claims 2^60 bytes, with a VALID
  // integrity digest so the decode reaches the length clamp — the digest
  // proves integrity, not honesty, and must not be the only defence.
  serialize::Writer w;
  w.varint(2);  // lsn
  w.u8(static_cast<std::uint8_t>(LogKind::kPut));
  w.varint(2);           // txn
  w.varint(1ULL << 60);  // hostile key length — must not allocate
  w.u64(fnv1a(w.data()));
  (void)storage.append(std::move(w).take());
  const auto records = wal.replay();
  const auto& report = wal.last_replay();
  EXPECT_EQ(records.size(), 1u);  // the real record replays, the bomb drops
  EXPECT_EQ(report.records_replayed + report.records_dropped, storage.size());
  EXPECT_EQ(report.records_dropped, 1u);
}

TEST_F(StoreTest, CorruptCheckpointFallsBackToOlder) {
  store.put("a", Value{1});
  store.checkpoint();
  store.put("b", Value{2});
  store.checkpoint();
  checkpoints.corrupt(checkpoints.size() - 1);  // newest checkpoint damaged
  store.crash();
  const auto report = store.recover();
  EXPECT_TRUE(report.from_checkpoint);
  EXPECT_EQ(store.get("a"), Value{1});
  // "b" was only in the newest (corrupt) checkpoint and its log segment was
  // truncated — documented data-loss window of single-copy checkpoints.
  EXPECT_FALSE(store.get("b").has_value());
}

TEST_F(StoreTest, OverwritesKeepLatestValue) {
  for (int i = 0; i < 10; ++i) store.put("k", Value{i});
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("k"), Value{9});
}

TEST_F(StoreTest, RecoveryIsIdempotent) {
  store.put("a", Value{1});
  store.crash();
  store.recover();
  const auto again = store.recover();
  EXPECT_EQ(store.get("a"), Value{1});
  EXPECT_EQ(again.ops_applied, 1u);
}

TEST_F(StoreTest, LsnMonotoneAcrossRecovery) {
  store.put("a", Value{1});
  store.crash();
  store.recover();
  store.put("b", Value{2});  // must not reuse LSNs
  store.crash();
  store.recover();
  EXPECT_EQ(store.get("a"), Value{1});
  EXPECT_EQ(store.get("b"), Value{2});
}

TEST_F(StoreTest, LoggingCostsAreModelled) {
  const Time before = log.stats().time_spent;
  store.put("a", Value{std::string(1000, 'x')});
  EXPECT_GT(log.stats().time_spent, before);
  EXPECT_GT(log.stats().bytes_written, 1000u);
}

TEST_F(StoreTest, RecoveryTimeGrowsWithLogLength) {
  for (int i = 0; i < 10; ++i) store.put("k" + std::to_string(i), Value{i});
  store.crash();
  const auto short_log = store.recover();

  for (int i = 0; i < 500; ++i) store.put("k" + std::to_string(i), Value{i});
  store.crash();
  const auto long_log = store.recover();
  EXPECT_GT(long_log.modelled_time, short_log.modelled_time * 5);
}

// A file-backed volume cut at every byte of its last two records, as a
// crash in the middle of an append leaves it: reopened, it loads every
// whole record before the cut, and two records appended then load again
// on the next open (the load trims the torn bytes, so the appends do not
// land behind them).
TEST(StableStorageFile, AppendsAfterATornTailLoadOnTheNextOpen) {
  namespace fs = std::filesystem;
  struct TempDir {
    fs::path path = fs::temp_directory_path() / ("ndsm-storage-" + std::to_string(getpid()));
    TempDir() {
      fs::remove_all(path);
      fs::create_directories(path);
    }
    ~TempDir() {
      std::error_code ignored;
      fs::remove_all(path, ignored);
    }
  } dir;
  const auto record = [](std::size_t i) {
    return Bytes(3 + 7 * i, static_cast<std::uint8_t>(0xa0 + i));
  };
  const fs::path full = dir.path / "full";
  std::vector<std::uintmax_t> ends;  // file size after each record
  {
    StableStorage volume{full.string()};
    for (std::size_t i = 0; i < 5; ++i) {
      (void)volume.append(record(i));
      ends.push_back(fs::file_size(full));
    }
  }
  const fs::path cut = dir.path / "cut";
  for (std::uintmax_t at = ends[2]; at < ends[4]; ++at) {
    SCOPED_TRACE(::testing::Message() << "cut at byte " << at);
    fs::copy_file(full, cut, fs::copy_options::overwrite_existing);
    fs::resize_file(cut, at);
    std::size_t whole = 0;
    while (ends[whole] <= at) whole++;
    {
      StableStorage volume{cut.string()};
      ASSERT_EQ(volume.size(), whole);
      (void)volume.append(record(5));
      (void)volume.append(record(6));
    }
    StableStorage reopened{cut.string()};
    ASSERT_EQ(reopened.size(), whole + 2);
    for (std::size_t i = 0; i < whole; ++i) EXPECT_EQ(reopened.read(i), record(i));
    EXPECT_EQ(reopened.read(whole), record(5));
    EXPECT_EQ(reopened.read(whole + 1), record(6));
  }
}

TEST(LogRecord, CodecRejectsTampering) {
  LogRecord rec;
  rec.lsn = 5;
  rec.kind = LogKind::kPut;
  rec.tx = 1;
  rec.key = "k";
  rec.value = Value{7};
  Bytes data = rec.encode();
  ASSERT_TRUE(LogRecord::decode(data).has_value());
  data[2] ^= 0x01;
  EXPECT_FALSE(LogRecord::decode(data).has_value());  // digest mismatch
  EXPECT_FALSE(LogRecord::decode(Bytes{1, 2, 3}).has_value());
}

}  // namespace
}  // namespace ndsm::recovery
