#include "apps/replfs/replfs.hpp"

#include <fstream>
#include <utility>

#include "common/bytes.hpp"
#include "serialize/codec.hpp"

namespace ndsm::apps::replfs {

namespace {

// Control-path message kinds on transport port kReplfs. Client and server
// share the enum; each side ignores kinds addressed to the other role.
enum class Kind : std::uint8_t {
  kPrepare = 1,
  kVoteYes = 2,
  kVoteMissing = 3,
  kCommit = 4,
  kCommitAck = 5,
  kCommitNack = 6,
  kAbort = 7,
  kRead = 8,
  kReadResp = 9,
  kBlocks = 10,  // targeted loss repair: blocks re-sent reliably
};

// Replies listing missing blocks are clamped: repair proceeds in waves
// rather than encoding an unbounded index list into one control message.
constexpr std::size_t kMaxMissingPerVote = 512;
// wal_file records larger than this are treated as a torn/corrupt tail.
constexpr std::uint32_t kMaxWalFileRecord = 16u << 20;

[[nodiscard]] Bytes make_simple(Kind kind, std::uint64_t commit_id) {
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.varint(commit_id);
  return std::move(w).take();
}

}  // namespace

std::optional<std::uint64_t> make_commit_id(NodeId client, std::uint64_t seq) {
  constexpr std::uint64_t kLimit = std::uint64_t{1} << 32;
  if (client.value() >= kLimit || seq >= kLimit) return std::nullopt;
  return (client.value() << 32) | seq;
}

// --- Server ----------------------------------------------------------------

Server::Server(transport::ReliableTransport& transport, net::Stack& stack,
               recovery::StableStorage& wal_storage, ReplfsConfig config)
    : transport_(transport),
      stack_(stack),
      storage_(wal_storage),
      config_(std::move(config)),
      wal_(storage_) {
  if (!config_.wal_file.empty() && storage_.empty()) load_wal_file();
  persisted_records_ = storage_.size();
  replay_wal();

  metrics_.set_labels("apps.replfs.server",
                      static_cast<std::int64_t>(transport_.self().value()));
  metrics_.counter("apps.replfs.server.commits_applied", &stats_.commits_applied);
  metrics_.counter("apps.replfs.server.duplicate_commits", &stats_.duplicate_commits);
  metrics_.counter("apps.replfs.server.votes_missing", &stats_.votes_missing);
  metrics_.counter("apps.replfs.server.malformed_dropped", &stats_.malformed_dropped);

  stack_.set_frame_handler(net::Proto::kReplfsData,
                           [this](const net::LinkFrame& f) { on_data_frame(f); });
  transport_.set_receiver(transport::ports::kReplfs,
                          [this](NodeId src, const Bytes& p) { on_control(src, p); });
}

Server::~Server() {
  transport_.clear_receiver(transport::ports::kReplfs);
  stack_.clear_frame_handler(net::Proto::kReplfsData);
}

void Server::load_wal_file() {
  std::ifstream in(config_.wal_file, std::ios::binary);
  if (!in) return;  // first boot: no file yet
  while (true) {
    std::uint8_t len_buf[4];
    if (!in.read(reinterpret_cast<char*>(len_buf), 4)) break;
    const std::uint32_t len = static_cast<std::uint32_t>(len_buf[0]) |
                              (static_cast<std::uint32_t>(len_buf[1]) << 8) |
                              (static_cast<std::uint32_t>(len_buf[2]) << 16) |
                              (static_cast<std::uint32_t>(len_buf[3]) << 24);
    if (len > kMaxWalFileRecord) break;  // corrupt length: stop at the tear
    Bytes record(len);
    if (!in.read(reinterpret_cast<char*>(record.data()),
                 static_cast<std::streamsize>(len))) {
      break;  // torn tail: the crash interrupted the final append
    }
    storage_.append(std::move(record));
  }
}

void Server::persist_wal_tail() {
  if (config_.wal_file.empty()) return;
  std::ofstream out(config_.wal_file, std::ios::binary | std::ios::app);
  if (!out) return;
  for (std::size_t i = persisted_records_; i < storage_.size(); ++i) {
    const Bytes& record = storage_.read(i);
    const auto len = static_cast<std::uint32_t>(record.size());
    const std::uint8_t len_buf[4] = {
        static_cast<std::uint8_t>(len & 0xff), static_cast<std::uint8_t>((len >> 8) & 0xff),
        static_cast<std::uint8_t>((len >> 16) & 0xff),
        static_cast<std::uint8_t>((len >> 24) & 0xff)};
    out.write(reinterpret_cast<const char*>(len_buf), 4);
    out.write(reinterpret_cast<const char*>(record.data()),
              static_cast<std::streamsize>(record.size()));
  }
  out.flush();
  persisted_records_ = storage_.size();
}

void Server::replay_wal() {
  // Redo pass: committed transactions are applied, begun-but-undecided
  // ones come back as in-doubt (the client's re-driven commit or abort
  // settles them without re-shipping blocks).
  std::map<std::uint64_t, PendingTx> staged;
  for (const recovery::LogRecord& rec : wal_.replay()) {
    stats_.wal_records_replayed++;
    switch (rec.kind) {
      case recovery::LogKind::kBegin:
        staged[rec.tx] = PendingTx{};
        break;
      case recovery::LogKind::kPut: {
        const auto it = staged.find(rec.tx);
        if (it != staged.end() && rec.value.type() == serialize::Value::Type::kBytes) {
          it->second.key = rec.key;
          it->second.value = rec.value.as_bytes();
        }
        break;
      }
      case recovery::LogKind::kCommit: {
        const auto it = staged.find(rec.tx);
        if (it != staged.end()) {
          store_[it->second.key] = it->second.value;
          staged.erase(it);
        }
        committed_.insert(rec.tx);
        break;
      }
      case recovery::LogKind::kAbort:
        staged.erase(rec.tx);
        break;
      case recovery::LogKind::kErase:
      case recovery::LogKind::kCheckpoint:
        break;
    }
  }
  stats_.indoubt_recovered += staged.size();
  for (auto& [tx, pending] : staged) pending_.emplace(tx, std::move(pending));
}

void Server::reply(NodeId dst, Bytes payload) {
  transport_.send(dst, transport::ports::kReplfs, std::move(payload));
}

void Server::on_data_frame(const net::LinkFrame& frame) {
  serialize::Reader r(frame.payload());
  const auto commit_id = r.varint();
  const auto index = r.varint();
  const auto key = r.str();
  const auto data = r.bytes();
  if (!commit_id || !index || !key || !data || *index >= config_.max_blocks_per_write) {
    stats_.malformed_dropped++;
    return;
  }
  if (committed_.count(*commit_id) > 0 || pending_.count(*commit_id) > 0) return;
  stage_block(*commit_id, static_cast<std::uint32_t>(*index), std::move(*key),
              std::move(*data));
}

void Server::stage_block(std::uint64_t commit_id, std::uint32_t index, std::string key,
                         Bytes data) {
  auto& blocks = staging_[commit_id];
  if (blocks.count(index) == 0) {
    staged_blocks_++;
    stats_.blocks_staged++;
  }
  blocks[index] = StagedBlock{std::move(key), std::move(data)};
  // Hostile/stray traffic guard: bound staging memory by evicting the
  // oldest commit's blocks (never the one being filled right now).
  while (staged_blocks_ > config_.max_staged_blocks && staging_.size() > 1) {
    auto victim = staging_.begin();
    if (victim->first == commit_id) ++victim;
    staged_blocks_ -= victim->second.size();
    stats_.blocks_evicted += victim->second.size();
    staging_.erase(victim);
  }
}

void Server::on_control(NodeId src, const Bytes& payload) {
  serialize::Reader r(payload);
  const auto kind = r.u8();
  if (!kind) {
    stats_.malformed_dropped++;
    return;
  }
  switch (static_cast<Kind>(*kind)) {
    case Kind::kPrepare: {
      const auto commit_id = r.varint();
      const auto block_count = r.varint();
      const auto checksum = r.u64();
      if (!commit_id || !block_count || !checksum || *block_count == 0 ||
          *block_count > config_.max_blocks_per_write) {
        stats_.malformed_dropped++;
        return;
      }
      stats_.prepares++;
      if (committed_.count(*commit_id) > 0) {
        // Already through phase 2 (the client re-drove an old prepare):
        // jump it straight to done.
        reply(src, make_simple(Kind::kCommitAck, *commit_id));
        return;
      }
      if (pending_.count(*commit_id) > 0) {
        stats_.votes_yes++;
        reply(src, make_simple(Kind::kVoteYes, *commit_id));
        return;
      }
      auto sit = staging_.find(*commit_id);
      std::vector<std::uint32_t> missing;
      for (std::uint32_t i = 0; i < *block_count; ++i) {
        if (sit == staging_.end() || sit->second.count(i) == 0) {
          missing.push_back(i);
          if (missing.size() >= kMaxMissingPerVote) break;
        }
      }
      if (!missing.empty()) {
        stats_.votes_missing++;
        serialize::Writer w;
        w.u8(static_cast<std::uint8_t>(Kind::kVoteMissing));
        w.varint(*commit_id);
        w.varint(missing.size());
        for (const std::uint32_t i : missing) w.varint(i);
        reply(src, std::move(w).take());
        return;
      }
      // All blocks present: verify, force Begin+Put, vote yes.
      Bytes value;
      for (std::uint32_t i = 0; i < *block_count; ++i) {
        const Bytes& frag = sit->second.at(i).data;
        value.insert(value.end(), frag.begin(), frag.end());
      }
      const std::string key = sit->second.at(0).key;
      staged_blocks_ -= sit->second.size();
      staging_.erase(sit);
      if (fnv1a(value) != *checksum) {
        // Corrupt/mismatched staging (e.g. stray blocks from a recycled
        // commit id): discard and ask for everything again.
        stats_.votes_missing++;
        serialize::Writer w;
        w.u8(static_cast<std::uint8_t>(Kind::kVoteMissing));
        w.varint(*commit_id);
        const std::size_t n =
            std::min<std::size_t>(*block_count, kMaxMissingPerVote);
        w.varint(n);
        for (std::uint32_t i = 0; i < n; ++i) w.varint(i);
        reply(src, std::move(w).take());
        return;
      }
      wal_.append(recovery::LogKind::kBegin, *commit_id);
      wal_.append(recovery::LogKind::kPut, *commit_id, key, serialize::Value(value));
      persist_wal_tail();
      pending_[*commit_id] = PendingTx{key, std::move(value)};
      stats_.votes_yes++;
      reply(src, make_simple(Kind::kVoteYes, *commit_id));
      return;
    }
    case Kind::kBlocks: {
      const auto commit_id = r.varint();
      const auto count = r.varint();
      if (!commit_id || !count || *count > config_.max_blocks_per_write) {
        stats_.malformed_dropped++;
        return;
      }
      if (committed_.count(*commit_id) > 0 || pending_.count(*commit_id) > 0) return;
      for (std::uint64_t n = 0; n < *count; ++n) {
        const auto index = r.varint();
        const auto key = r.str();
        const auto data = r.bytes();
        if (!index || !key || !data || *index >= config_.max_blocks_per_write) {
          stats_.malformed_dropped++;
          return;
        }
        stage_block(*commit_id, static_cast<std::uint32_t>(*index), std::move(*key),
                    std::move(*data));
      }
      return;
    }
    case Kind::kCommit: {
      const auto commit_id = r.varint();
      if (!commit_id) {
        stats_.malformed_dropped++;
        return;
      }
      if (committed_.count(*commit_id) > 0) {
        // Exactly-once re-ack: the commit applied in a previous life (or
        // the ack was lost); never apply twice.
        stats_.duplicate_commits++;
        reply(src, make_simple(Kind::kCommitAck, *commit_id));
        return;
      }
      const auto it = pending_.find(*commit_id);
      if (it == pending_.end()) {
        // Never prepared here (crashed before Begin hit the log): the
        // client walks us back through the prepare phase.
        stats_.commit_nacks++;
        reply(src, make_simple(Kind::kCommitNack, *commit_id));
        return;
      }
      wal_.append(recovery::LogKind::kCommit, *commit_id);
      persist_wal_tail();
      store_[it->second.key] = std::move(it->second.value);
      committed_.insert(*commit_id);
      pending_.erase(it);
      stats_.commits_applied++;
      reply(src, make_simple(Kind::kCommitAck, *commit_id));
      return;
    }
    case Kind::kAbort: {
      const auto commit_id = r.varint();
      if (!commit_id) {
        stats_.malformed_dropped++;
        return;
      }
      const auto it = pending_.find(*commit_id);
      if (it != pending_.end()) {
        wal_.append(recovery::LogKind::kAbort, *commit_id);
        persist_wal_tail();
        pending_.erase(it);
        stats_.aborts++;
      }
      const auto sit = staging_.find(*commit_id);
      if (sit != staging_.end()) {
        staged_blocks_ -= sit->second.size();
        staging_.erase(sit);
      }
      return;
    }
    case Kind::kRead: {
      const auto req_id = r.varint();
      const auto key = r.str();
      if (!req_id || !key) {
        stats_.malformed_dropped++;
        return;
      }
      stats_.reads++;
      serialize::Writer w;
      w.u8(static_cast<std::uint8_t>(Kind::kReadResp));
      w.varint(*req_id);
      const auto it = store_.find(*key);
      w.boolean(it != store_.end());
      w.bytes(it != store_.end() ? it->second : Bytes{});
      reply(src, std::move(w).take());
      return;
    }
    case Kind::kVoteYes:
    case Kind::kVoteMissing:
    case Kind::kCommitAck:
    case Kind::kCommitNack:
    case Kind::kReadResp:
      return;  // client-role kinds; not ours
  }
  stats_.malformed_dropped++;
}

std::uint64_t Server::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const auto& [key, value] : store_) {
    h = fnv_mix(h, fnv1a(key));
    h = fnv_mix(h, fnv1a(value));
  }
  h = fnv_mix(h, committed_.size());
  return h;
}

// --- Client ----------------------------------------------------------------

Client::Client(transport::ReliableTransport& transport, net::Stack& stack,
               std::vector<NodeId> servers, ReplfsConfig config)
    : transport_(transport),
      stack_(stack),
      servers_(std::move(servers)),
      config_(std::move(config)),
      ticker_(stack, config_.retry_period, [this] { tick(); }) {
  metrics_.set_labels("apps.replfs.client",
                      static_cast<std::int64_t>(transport_.self().value()));
  metrics_.counter("apps.replfs.client.writes_committed", &stats_.writes_committed);
  metrics_.counter("apps.replfs.client.writes_failed", &stats_.writes_failed);
  metrics_.counter("apps.replfs.client.blocks_repaired", &stats_.blocks_repaired);
  metrics_.counter("apps.replfs.client.retry_rounds", &stats_.retry_rounds);
  latency_ = &metrics_.histogram("apps.replfs.client.commit_latency_ms",
                                 obs::latency_ms_bounds());
  transport_.set_receiver(transport::ports::kReplfs,
                          [this](NodeId src, const Bytes& p) { on_control(src, p); });
  ticker_.start();
}

Client::~Client() {
  ticker_.stop();
  transport_.clear_receiver(transport::ports::kReplfs);
}

void Client::write(std::string key, Bytes value, WriteCallback done) {
  const auto commit_id = make_commit_id(transport_.self(), next_seq_);
  if (!commit_id) {
    // Never reuse an id: a server answers a repeated one from its
    // committed set, and the write would read as committed unapplied.
    if (done) done(Status{ErrorCode::kResourceExhausted, "replfs: commit ids exhausted"});
    return;
  }
  next_seq_++;
  WriteOp op;
  op.commit_id = *commit_id;
  op.key = std::move(key);
  op.checksum = fnv1a(value);
  op.done = std::move(done);
  const std::size_t block = config_.block_bytes;
  if (value.empty()) {
    op.fragments.emplace_back();
  } else {
    for (std::size_t off = 0; off < value.size(); off += block) {
      const std::size_t len = std::min(block, value.size() - off);
      op.fragments.emplace_back(value.begin() + static_cast<std::ptrdiff_t>(off),
                                value.begin() + static_cast<std::ptrdiff_t>(off + len));
    }
  }
  stats_.writes_started++;
  queue_.push_back(std::move(op));
  if (!head_active_) start_head();
}

void Client::read(NodeId server, std::string key, ReadCallback done) {
  const std::uint64_t req_id = next_read_id_++;
  reads_[req_id] = std::move(done);
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kRead));
  w.varint(req_id);
  w.str(key);
  transport_.send(server, transport::ports::kReplfs, std::move(w).take());
}

void Client::start_head() {
  head_active_ = true;
  WriteOp& op = queue_.front();
  op.started = stack_.now();
  for (const NodeId server : servers_) op.phase[server] = Phase::kWaitVote;
  multicast_blocks(op);
  for (const NodeId server : servers_) send_prepare(server, op);
}

void Client::multicast_blocks(const WriteOp& op) {
  for (std::size_t i = 0; i < op.fragments.size(); ++i) {
    serialize::Writer w;
    w.varint(op.commit_id);
    w.varint(i);
    w.str(op.key);
    w.bytes(op.fragments[i]);
    stack_.broadcast_frame(net::Proto::kReplfsData, std::move(w).take());
    stats_.blocks_multicast++;
  }
}

void Client::send_prepare(NodeId server, const WriteOp& op) {
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kPrepare));
  w.varint(op.commit_id);
  w.varint(op.fragments.size());
  w.u64(op.checksum);
  transport_.send(server, transport::ports::kReplfs, std::move(w).take());
  stats_.prepares_sent++;
}

void Client::send_commit(NodeId server, const WriteOp& op) {
  transport_.send(server, transport::ports::kReplfs,
                  make_simple(Kind::kCommit, op.commit_id));
  stats_.commits_sent++;
}

void Client::repair_blocks(NodeId server, const WriteOp& op,
                           const std::vector<std::uint32_t>& missing) {
  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kBlocks));
  w.varint(op.commit_id);
  w.varint(missing.size());
  for (const std::uint32_t i : missing) {
    w.varint(i);
    w.str(op.key);
    w.bytes(op.fragments[i]);
  }
  transport_.send(server, transport::ports::kReplfs, std::move(w).take());
  stats_.blocks_repaired += missing.size();
}

void Client::maybe_reach_commit_point() {
  WriteOp& op = queue_.front();
  if (op.commit_point) return;
  for (const auto& [server, phase] : op.phase) {
    if (phase == Phase::kWaitVote) return;
  }
  // Every replica has a WAL-forced prepare: the write is now guaranteed
  // committable everywhere. Phase 2 begins.
  op.commit_point = true;
  for (const auto& [server, phase] : op.phase) {
    if (phase == Phase::kWaitAck) send_commit(server, op);
  }
}

void Client::finish_head(Status status) {
  WriteOp op = std::move(queue_.front());
  queue_.pop_front();
  head_active_ = false;
  if (status.is_ok()) {
    stats_.writes_committed++;
    committed_log_.push_back({op.commit_id, op.key, op.checksum});
    latency_->observe(static_cast<double>(stack_.now() - op.started) / 1000.0);
  } else {
    stats_.writes_failed++;
  }
  if (op.done) op.done(status);
  if (!queue_.empty() && !head_active_) start_head();
}

void Client::tick() {
  if (!head_active_) return;
  WriteOp& op = queue_.front();
  op.attempts++;
  stats_.retry_rounds++;
  // Past the commit point some replica may have applied the write, so the
  // decision is commit: re-drive it until every replica acks (2PC blocks).
  if (!op.commit_point && op.attempts > config_.max_write_attempts) {
    for (const NodeId server : servers_) {
      transport_.send(server, transport::ports::kReplfs,
                      make_simple(Kind::kAbort, op.commit_id));
    }
    finish_head({ErrorCode::kUnavailable, "replfs: write attempts exhausted"});
    return;
  }
  for (const auto& [server, phase] : op.phase) {
    if (phase == Phase::kWaitVote) {
      send_prepare(server, op);
    } else if (phase == Phase::kWaitAck && op.commit_point) {
      send_commit(server, op);
    }
  }
}

void Client::on_control(NodeId src, const Bytes& payload) {
  serialize::Reader r(payload);
  const auto kind = r.u8();
  if (!kind) {
    stats_.malformed_dropped++;
    return;
  }
  if (static_cast<Kind>(*kind) == Kind::kReadResp) {
    const auto req_id = r.varint();
    const auto found = r.boolean();
    const auto value = r.bytes();
    if (!req_id || !found || !value) {
      stats_.malformed_dropped++;
      return;
    }
    const auto it = reads_.find(*req_id);
    if (it == reads_.end()) return;
    ReadCallback cb = std::move(it->second);
    reads_.erase(it);
    cb(*found, *value);
    return;
  }
  const auto commit_id = r.varint();
  if (!commit_id) {
    stats_.malformed_dropped++;
    return;
  }
  // Late replies for settled writes are expected under re-drive; only the
  // active head's commit id is live protocol state.
  if (!head_active_ || queue_.front().commit_id != *commit_id) return;
  WriteOp& op = queue_.front();
  const auto pit = op.phase.find(src);
  if (pit == op.phase.end()) return;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kVoteYes: {
      if (pit->second != Phase::kWaitVote) return;
      pit->second = Phase::kWaitAck;
      if (op.commit_point) {
        send_commit(src, op);  // straggler rejoining after the commit point
      } else {
        maybe_reach_commit_point();
      }
      return;
    }
    case Kind::kVoteMissing: {
      if (pit->second != Phase::kWaitVote) return;
      const auto count = r.varint();
      if (!count || *count > config_.max_blocks_per_write) {
        stats_.malformed_dropped++;
        return;
      }
      std::vector<std::uint32_t> missing;
      for (std::uint64_t n = 0; n < *count; ++n) {
        const auto index = r.varint();
        if (!index) {
          stats_.malformed_dropped++;
          return;
        }
        if (*index < op.fragments.size()) {
          missing.push_back(static_cast<std::uint32_t>(*index));
        }
      }
      if (!missing.empty()) repair_blocks(src, op, missing);
      send_prepare(src, op);
      return;
    }
    case Kind::kCommitAck: {
      if (pit->second == Phase::kDone) return;
      pit->second = Phase::kDone;
      for (const auto& [server, phase] : op.phase) {
        if (phase != Phase::kDone) return;
      }
      finish_head(Status::ok());
      return;
    }
    case Kind::kCommitNack: {
      // The replica lost its prepared state (crashed before Begin was
      // forced): walk it back through prepare; commit_point stays set so
      // its fresh vote converts straight into a commit.
      if (pit->second != Phase::kWaitAck) return;
      pit->second = Phase::kWaitVote;
      send_prepare(src, op);
      return;
    }
    default:
      return;  // server-role kinds; not ours
  }
}

std::uint64_t Client::digest() const {
  std::uint64_t h = kFnvBasis;
  for (const CommittedWrite& w : committed_log_) {
    h = fnv_mix(h, w.commit_id);
    h = fnv_mix(h, fnv1a(w.key));
    h = fnv_mix(h, w.checksum);
  }
  h = fnv_mix(h, stats_.writes_committed);
  h = fnv_mix(h, stats_.writes_failed);
  return h;
}

}  // namespace ndsm::apps::replfs
