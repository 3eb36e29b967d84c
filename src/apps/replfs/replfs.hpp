#pragma once
// apps::replfs — flagship application #2 (ROADMAP item 3, DESIGN §16): a
// ReplFS-style replicated store written against the net::Stack seam plus
// the reliable transport, so the same client/server pair runs unmodified
// on the deterministic sim (WorldStack) and on real sockets (UdpStack).
//
// The split between the two network paths is the point of the design:
//   * bulk data rides the *unreliable* broadcast path — the client
//     multicasts write blocks (Proto::kReplfsData) once, unacknowledged,
//     reaching all N replicas for one transmission;
//   * correctness rides the *reliable* control path — a two-phase commit
//     on transport port kReplfs. Prepare answers tell the client exactly
//     which blocks a replica is missing (loss repair is targeted unicast,
//     not a blind re-multicast), and the commit/ack exchange is made
//     exactly-once by the server's WAL: Begin+Put records are forced at
//     vote time, the Commit record at commit time, so a replica that
//     crashes and restarts mid-protocol rehydrates its in-doubt
//     transactions and its committed-id set from the log and re-acks
//     duplicate commits without re-applying them (§3.6 transactions,
//     §3.8 log-based recovery). The log is redone by the shared rule,
//     recovery::WriteAheadLog::redo; a Begin whose Put was torn off was
//     never voted on and comes back not prepared.
//
// Guarantee, pinned by tests/replfs_test.cpp and the multi-process fleet
// test: once the client's write callback fires with kOk, the write is
// durably applied on every replica — through any interleaving of loss,
// partition, and replica crash/restart the fault plan can produce.
//
// One ReplFS role per node: Server and Client both bind transport port
// kReplfs on their own node (the transport rejects duplicate binds).

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/ids.hpp"
#include "common/status.hpp"
#include "common/time.hpp"
#include "net/stack.hpp"
#include "obs/metrics.hpp"
#include "recovery/storage.hpp"
#include "recovery/wal.hpp"
#include "transport/reliable.hpp"

namespace ndsm::apps::replfs {

struct ReplfsConfig {
  // Bulk-path fragment size. Must clear the UDP datagram limit with
  // header room; small enough that sim media with modest MTUs still
  // benefit from the transport's own fragmentation on the repair path.
  std::size_t block_bytes = 512;
  // Client re-drive period: unanswered prepares/commits are re-sent each
  // tick (a restarted replica lost its volatile protocol state; the
  // re-driven prepare walks it back through vote-missing repair).
  Time retry_period = duration::millis(500);
  // Re-drive rounds before a write that has not reached its commit point
  // is aborted (callback gets an error). Past the commit point the client
  // re-drives commit until every replica acks.
  int max_write_attempts = 40;
  // Server-side cap on staged-but-unprepared blocks (hostile/stray
  // traffic on the raw data path must not grow memory unboundedly).
  std::size_t max_staged_blocks = 8192;
  // Upper bound on blocks per write, mirrored by the server's prepare
  // validation.
  std::size_t max_blocks_per_write = 4096;
};

// The commit id of client node `client`'s write number `seq`: the node id
// above bit 32, the sequence below, so no two clients' ids and no two of
// one client's ids meet. Servers key all 2PC state by it. Nullopt when the
// node id or the sequence does not fit in 32 bits.
[[nodiscard]] std::optional<std::uint64_t> make_commit_id(NodeId client, std::uint64_t seq);

struct ServerStats {
  std::uint64_t blocks_staged = 0;
  std::uint64_t blocks_evicted = 0;   // staging cap pressure
  std::uint64_t prepares = 0;
  std::uint64_t votes_yes = 0;
  std::uint64_t votes_missing = 0;
  std::uint64_t commits_applied = 0;
  std::uint64_t duplicate_commits = 0;  // re-acked from the committed set
  std::uint64_t commit_nacks = 0;       // commit for a tx we never prepared
  std::uint64_t aborts = 0;
  std::uint64_t reads = 0;
  std::uint64_t malformed_dropped = 0;
  std::uint64_t wal_records_replayed = 0;
  std::uint64_t indoubt_recovered = 0;  // prepared-not-committed txs rehydrated
};

// Replica: stages multicast blocks, votes on prepares, commits through the
// WAL. It keeps protocol state only; the WAL's volume is the caller's.
// Construct inside a Runtime service factory on storage that survives
// crash() — a Runtime volume, or a file-backed recovery::StableStorage
// that also survives the process:
//   rt.add_service<apps::replfs::Server>("replfs", [&](node::Runtime& rt) {
//     return std::make_unique<apps::replfs::Server>(
//         rt.transport(), rt.net_stack(), rt.storage("replfs-wal"));
//   });
class Server {
 public:
  Server(transport::ReliableTransport& transport, net::Stack& stack,
         recovery::StableStorage& wal_storage, ReplfsConfig config = {});
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  [[nodiscard]] const std::map<std::string, Bytes>& store() const { return store_; }
  [[nodiscard]] const ServerStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t indoubt_count() const { return pending_.size(); }
  // FNV-1a fold of the committed store + committed-tx count: equal across
  // replicas at quiesce, and the twin-run determinism witness.
  [[nodiscard]] std::uint64_t digest() const;

 private:
  struct StagedBlock {
    std::string key;
    Bytes data;
  };
  struct PendingTx {
    std::string key;
    Bytes value;
  };

  void on_data_frame(const net::LinkFrame& frame);
  void on_control(NodeId src, const Bytes& payload);
  // Stages block `index` of `commit_id`, the one staging rule of the
  // multicast and repair paths: past max_staged_blocks it evicts the
  // oldest other commits' blocks, never those of `commit_id`.
  void stage_block(std::uint64_t commit_id, std::uint32_t index, std::string key, Bytes data);
  void reply(NodeId dst, Bytes payload);

  transport::ReliableTransport& transport_;
  net::Stack& stack_;
  ReplfsConfig config_;
  recovery::WriteAheadLog wal_;
  // Raw multicast staging: commit -> block index -> block. Volatile —
  // lost on crash by design; the client's re-driven prepare repairs it.
  std::map<std::uint64_t, std::map<std::uint32_t, StagedBlock>> staging_;
  std::size_t staged_blocks_ = 0;
  // Prepared (WAL-forced) transactions awaiting commit/abort.
  std::map<std::uint64_t, PendingTx> pending_;
  std::set<std::uint64_t> committed_;
  std::map<std::string, Bytes> store_;
  ServerStats stats_;
  obs::MetricGroup metrics_;
};

struct ClientStats {
  std::uint64_t writes_started = 0;
  std::uint64_t writes_committed = 0;
  std::uint64_t writes_failed = 0;
  std::uint64_t blocks_multicast = 0;
  std::uint64_t blocks_repaired = 0;  // unicast re-sends after vote-missing
  std::uint64_t prepares_sent = 0;
  std::uint64_t commits_sent = 0;
  std::uint64_t retry_rounds = 0;
  std::uint64_t malformed_dropped = 0;
};

// Write coordinator (2PC). Writes are serialized: one in flight, the rest
// queued, so replicas apply one client's writes in issue order and the
// acked-value-per-key invariant is well defined.
class Client {
 public:
  using WriteCallback = std::function<void(Status)>;
  using ReadCallback = std::function<void(bool found, const Bytes& value)>;

  Client(transport::ReliableTransport& transport, net::Stack& stack,
         std::vector<NodeId> servers, ReplfsConfig config = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Queue a replicated write. `done` fires exactly once: kOk only after
  // every replica acknowledged its commit. It fires at once with
  // kResourceExhausted when this client has no commit id left for it
  // (make_commit_id).
  void write(std::string key, Bytes value, WriteCallback done);
  // Read `key` from one replica (verification path). `done` fires exactly
  // once; found == false also means no answer came within
  // retry_period x max_write_attempts (a write's re-drive budget).
  void read(NodeId server, std::string key, ReadCallback done);

  [[nodiscard]] std::size_t pending_writes() const { return queue_.size(); }
  [[nodiscard]] const ClientStats& stats() const { return stats_; }
  // Acked writes, in commit order: (commit_id, key, value checksum).
  struct CommittedWrite {
    std::uint64_t commit_id;
    std::string key;
    std::uint64_t checksum;
  };
  [[nodiscard]] const std::vector<CommittedWrite>& committed_log() const {
    return committed_log_;
  }
  // Commit latency (write() to all-acks), milliseconds.
  [[nodiscard]] const obs::Histogram& commit_latency() const { return *latency_; }
  [[nodiscard]] std::uint64_t digest() const;

 private:
  enum class Phase : std::uint8_t { kWaitVote, kWaitAck, kDone };
  struct WriteOp {
    std::uint64_t commit_id = 0;
    std::string key;
    std::uint64_t checksum = 0;
    std::vector<Bytes> fragments;
    WriteCallback done;
    Time started = 0;
    int attempts = 0;
    bool commit_point = false;  // all replicas voted at least once
    std::map<NodeId, Phase> phase;
  };

  void on_control(NodeId src, const Bytes& payload);
  void start_head();
  void tick();
  void multicast_blocks(const WriteOp& op);
  void send_prepare(NodeId server, const WriteOp& op);
  void send_commit(NodeId server, const WriteOp& op);
  void repair_blocks(NodeId server, const WriteOp& op,
                     const std::vector<std::uint32_t>& missing);
  void finish_head(Status status);
  void maybe_reach_commit_point();

  transport::ReliableTransport& transport_;
  net::Stack& stack_;
  std::vector<NodeId> servers_;
  ReplfsConfig config_;
  std::uint64_t next_seq_ = 1;
  bool head_active_ = false;
  std::deque<WriteOp> queue_;  // front is the active write
  net::RequestTable<ReadCallback> reads_;  // answered by the replica asked
  std::vector<CommittedWrite> committed_log_;
  ClientStats stats_;
  obs::MetricGroup metrics_;
  obs::Histogram* latency_ = nullptr;  // owned by the registry via metrics_
  net::PeriodicTimer ticker_;
};

}  // namespace ndsm::apps::replfs
