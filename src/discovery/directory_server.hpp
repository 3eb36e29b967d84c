#pragma once
// Centralized service directory (§3.3 "completely centralized"). Runs on
// one node; stores records, enforces leases, answers QoS-matched queries,
// and optionally replicates every mutation to mirror directories ("to
// further increase scalability, mirroring approaches can be introduced").

#include <deque>
#include <memory>
#include <vector>

#include "discovery/messages.hpp"
#include "recovery/wal.hpp"
#include "transport/reliable.hpp"

namespace ndsm::discovery {

struct DirectoryStats {
  std::uint64_t registers = 0;
  std::uint64_t unregisters = 0;
  std::uint64_t queries = 0;
  std::uint64_t records_returned = 0;
  std::uint64_t replications_sent = 0;
  std::uint64_t replications_applied = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t records_rehydrated = 0;  // recovered from the WAL at start
};

class DirectoryServer {
 public:
  // With `stable` set, every registration mutation is appended to a
  // write-ahead log on that storage before being applied, and a freshly
  // constructed server rehydrates its record table by replaying the log
  // (§3.8 "a simple log-based scheme"): a directory that crashes and
  // restarts on the same storage comes back knowing every live lease.
  explicit DirectoryServer(transport::ReliableTransport& transport,
                           Time sweep_period = duration::seconds(1),
                           recovery::StableStorage* stable = nullptr);
  ~DirectoryServer();

  DirectoryServer(const DirectoryServer&) = delete;
  DirectoryServer& operator=(const DirectoryServer&) = delete;

  // Other directory nodes that receive a copy of every mutation.
  void set_mirrors(std::vector<NodeId> mirrors) { mirrors_ = std::move(mirrors); }
  [[nodiscard]] const std::vector<NodeId>& mirrors() const { return mirrors_; }

  // Model a per-query CPU cost: queries are served one at a time, each
  // taking `processing_time` (0 = infinitely fast directory, the default).
  // With a cost set, a single directory saturates at 1/processing_time
  // queries per second — the scalability limit mirroring addresses (E3).
  void set_processing_time(Time processing_time) { processing_time_ = processing_time; }

  [[nodiscard]] NodeId node() const { return transport_.self(); }
  [[nodiscard]] std::size_t record_count() const { return records_.copy_count(); }
  [[nodiscard]] std::vector<ServiceRecord> snapshot() const;
  [[nodiscard]] const DirectoryStats& stats() const { return stats_; }

  // Local (in-process) interface, used by tests and co-located services.
  void apply_register(ServiceRecord record, bool replicate_out);
  void apply_unregister(ServiceId id, bool replicate_out);
  [[nodiscard]] std::vector<ServiceRecord> match(const qos::ConsumerQos& consumer,
                                                 std::uint32_t max_results);

 private:
  void on_message(NodeId src, const Bytes& frame);
  // Answers `query` under a span of its own whose parent is `parent`, the
  // context the query's delivery ran under.
  void serve_query(const QueryMessage& query, const obs::TraceContext& parent);
  void drain_query_queue();
  void sweep_leases();
  void replicate(const ServiceRecord& record, bool removal);
  void log_mutation(recovery::LogKind kind, const ServiceRecord* record, ServiceId id);
  void rehydrate();

  transport::ReliableTransport& transport_;
  std::unique_ptr<recovery::WriteAheadLog> wal_;  // null = no persistence
  // The registered records, held as copies with no age limit: only their
  // leases expire them.
  RecordTable records_;
  std::vector<NodeId> mirrors_;
  DirectoryStats stats_;
  Time processing_time_ = 0;
  // A query waiting for the directory keeps the context its delivery ran
  // under, which has ended by the time the query is served.
  struct QueuedQuery {
    QueryMessage query;
    obs::TraceContext trace;
  };
  std::deque<QueuedQuery> query_queue_;
  EventId drain_ = EventId::invalid();  // the query being served, if any
  net::PeriodicTimer sweeper_;
};

}  // namespace ndsm::discovery
