#pragma once
// The transaction manager (§3.6): "We use the word transaction to denote
// this interaction between a service supplier and a service consumer. A
// transaction should be established by the middleware based on matching
// specifications including QoS constraints. Transactions can be classified
// as continuous, intermittent with some prediction, or on demand."
//
// The consumer side asks service discovery for the best-matched supplier,
// starts the flow, and *supervises* it: if data stops arriving (supplier
// died / moved away), it automatically re-discovers and re-binds — the
// paper's plug-and-play / graceful-degradation requirement. Delivered
// utility is accounted through the consumer's benefit function.

#include <functional>
#include <set>
#include <unordered_map>

#include "discovery/service_discovery.hpp"
#include "transport/reliable.hpp"

namespace ndsm::transactions {

enum class TransactionKind : std::uint8_t {
  kContinuous = 1,   // supplier pushes every period
  kIntermittent = 2, // supplier pushes bursts with a predictable schedule
  kOnDemand = 3,     // consumer pulls when it wants data
};

struct TransactionSpec {
  qos::ConsumerQos consumer;                   // what to discover & match
  TransactionKind kind = TransactionKind::kContinuous;
  Time period = duration::seconds(1);          // push period / pull period
  std::uint32_t samples_per_burst = 4;         // intermittent only
  Time lifetime = kTimeNever;                  // transaction auto-ends after this
  std::size_t payload_bytes = 0;               // 0 = whatever the source returns
};

struct TransactionManagerStats {
  std::uint64_t begun = 0;
  std::uint64_t bound = 0;            // successful supplier bindings
  std::uint64_t rebinds = 0;          // supervision-triggered re-bindings
  std::uint64_t bind_failures = 0;    // discovery found no supplier
  std::uint64_t ended = 0;
  std::uint64_t data_received = 0;
  std::uint64_t pulls_sent = 0;
  std::uint64_t pushes_sent = 0;      // supplier side
  double delivered_utility = 0.0;     // sum of benefit(delay) over samples
};

class TransactionManager {
 public:
  using DataSink = std::function<void(const Bytes& data, NodeId supplier, Time produced)>;
  using DataSource = std::function<Bytes()>;
  using EndCallback = std::function<void(Status)>;

  TransactionManager(transport::ReliableTransport& transport,
                     discovery::ServiceDiscovery& discovery);
  ~TransactionManager();

  TransactionManager(const TransactionManager&) = delete;
  TransactionManager& operator=(const TransactionManager&) = delete;

  // --- supplier side ---------------------------------------------------------
  // Serve transactions for a service type hosted on this node. (Register
  // the service with discovery separately; the manager only handles flows.)
  void serve(const std::string& service_type, DataSource source);
  // Supplier-side duty cycling: push no faster than `period` for this
  // service, regardless of what consumers requested. Announced to
  // consumers through the per-sample prediction so their supervision
  // follows the actual schedule (§3.6 "intermittent with some prediction").
  void set_push_period(const std::string& service_type, Time period);

  // --- consumer side ---------------------------------------------------------
  // Begin a transaction: discover, bind, supervise. `sink` receives every
  // data sample; `on_end` fires once, when the transaction ends (kOk after
  // `lifetime`/end(), or an error when no supplier can be (re)bound).
  TransactionId begin(TransactionSpec spec, DataSink sink, EndCallback on_end = nullptr);
  void end(TransactionId id);

  [[nodiscard]] NodeId supplier_of(TransactionId id) const;  // invalid() if unbound
  [[nodiscard]] std::size_t active_count() const { return consumers_.size(); }
  [[nodiscard]] const TransactionManagerStats& stats() const { return stats_; }

  // Supervision tuning: how many missed periods before declaring the
  // supplier lost, and how many rebind attempts before giving up.
  struct Supervision {
    int missed_periods = 3;
    int max_rebinds = 5;
    Time rebind_backoff = duration::millis(500);
  };
  void set_supervision(Supervision s) { supervision_ = s; }

 private:
  enum class Kind : std::uint8_t {
    kStart = 1,
    kStartAck = 2,
    kStop = 3,
    kData = 4,
    kPull = 5,
  };

  struct ConsumerTx {
    TransactionSpec spec;
    DataSink sink;
    EndCallback on_end;
    NodeId supplier = NodeId::invalid();
    Time last_data = -1;
    Time predicted_next = kTimeNever;  // supplier-announced next push
    int rebinds_left = 0;
    std::set<NodeId> blacklist;  // suppliers that already failed us
    EventId watchdog = EventId::invalid();
    EventId pull_timer = EventId::invalid();
    EventId lifetime_timer = EventId::invalid();
    // Scheduled rebind backoff. Tracked like every other timer: an
    // untracked backoff event would outlive finish()/the manager itself
    // and fire into freed state after a node crash.
    EventId rebind_timer = EventId::invalid();
    bool binding = false;  // a discovery query for this tx is in flight
    // The transaction's root span: bind queries, kStart, and supplier
    // pushes all join this trace across the async timer gaps.
    obs::TraceContext trace;
  };

  struct SupplierFlow {
    NodeId consumer;
    TransactionId tx;
    TransactionSpec spec;  // kind/period/burst as requested
    std::string service_type;
    std::uint64_t seq = 0;
    EventId push_timer = EventId::invalid();
    // The context kStart's delivery ran under, which descends from the
    // consumer's transaction span; every push continues it so the full
    // flow is one causal graph.
    obs::TraceContext trace;
  };

  void on_message(NodeId src, const Bytes& frame);
  void bind(TransactionId id);
  void on_bound(TransactionId id, NodeId supplier);
  void supplier_lost(TransactionId id);
  void finish(TransactionId id, Status status);
  void arm_watchdog(TransactionId id);
  void arm_pull(TransactionId id);
  void push_sample(std::uint64_t flow_key);
  void cancel_timers(ConsumerTx& tx);

  [[nodiscard]] net::Stack& stack() { return transport_.router().stack(); }

  transport::ReliableTransport& transport_;
  discovery::ServiceDiscovery& discovery_;
  Supervision supervision_;
  IdGenerator<TransactionId> tx_ids_;
  std::unordered_map<TransactionId, ConsumerTx> consumers_;
  std::unordered_map<std::string, DataSource> sources_;
  std::unordered_map<std::string, Time> push_period_override_;
  // Supplier-side flows keyed by (consumer node, tx id) packed together.
  std::unordered_map<std::uint64_t, SupplierFlow> flows_;
  TransactionManagerStats stats_;
};

}  // namespace ndsm::transactions
