#include "transactions/manager.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "serialize/codec.hpp"

namespace ndsm::transactions {

namespace {

std::uint64_t flow_key(NodeId consumer, TransactionId tx) {
  return (consumer.value() << 32) ^ tx.value();
}

}  // namespace

TransactionManager::TransactionManager(transport::ReliableTransport& transport,
                                       discovery::ServiceDiscovery& discovery)
    : transport_(transport), discovery_(discovery) {
  transport_.set_receiver(transport::ports::kTransactions,
                          [this](NodeId src, const Bytes& b) { on_message(src, b); });
}

TransactionManager::~TransactionManager() {
  transport_.clear_receiver(transport::ports::kTransactions);
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [id, tx] : consumers_) cancel_timers(tx);
  // ndsm-lint: allow(unordered-iter): cancel order is irrelevant — cancel() is an O(1) tombstone with no observable ordering effect
  for (auto& [key, flow] : flows_) {
    if (flow.push_timer.valid()) stack().cancel(flow.push_timer);
  }
}

void TransactionManager::serve(const std::string& service_type, DataSource source) {
  sources_[service_type] = std::move(source);
}

void TransactionManager::set_push_period(const std::string& service_type, Time period) {
  push_period_override_[service_type] = period;
}

TransactionId TransactionManager::begin(TransactionSpec spec, DataSink sink,
                                        EndCallback on_end) {
  const TransactionId id = tx_ids_.next();
  ConsumerTx tx;
  tx.spec = std::move(spec);
  tx.sink = std::move(sink);
  tx.on_end = std::move(on_end);
  tx.rebinds_left = supervision_.max_rebinds;
  // Root span for the whole transaction; binds, starts, and pushes all
  // join it (id drawn unconditionally — behaviour neutrality).
  const obs::TraceContext parent = obs::active_trace();
  tx.trace.span_id = transport_.trace_ids().next();
  tx.trace.trace_id = parent.valid() ? parent.trace_id : tx.trace.span_id;
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.event_traced("transactions.manager", "begin",
                        static_cast<std::int64_t>(transport_.self().value()),
                        tx.trace.trace_id, tx.trace.span_id, parent.span_id,
                        {{"tx", std::to_string(id.value())},
                         {"type", tx.spec.consumer.service_type}});
  }
  if (tx.spec.lifetime != kTimeNever) {
    tx.lifetime_timer = stack().schedule_after(tx.spec.lifetime, [this, id] {
      auto it = consumers_.find(id);
      if (it == consumers_.end()) return;
      it->second.lifetime_timer = EventId::invalid();  // firing now; nothing to cancel
      finish(id, Status::ok());
    });
  }
  consumers_.emplace(id, std::move(tx));
  stats_.begun++;
  bind(id);
  return id;
}

void TransactionManager::bind(TransactionId id) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  // At most one discovery query in flight per transaction: a second bind
  // (e.g. a watchdog re-armed by a flapping supplier's late data) would
  // race two query callbacks into on_bound and double-send kStart.
  if (it->second.binding) return;
  it->second.binding = true;
  const auto consumer_qos = it->second.spec.consumer;
  // The discovery query (and its reply chain) continues the tx trace.
  const obs::ScopedTrace scope(it->second.trace);
  discovery_.query(
      consumer_qos,
      [this, id](std::vector<discovery::ServiceRecord> records) {
        auto it = consumers_.find(id);
        if (it == consumers_.end()) return;  // finished while the query was in flight
        ConsumerTx& tx = it->second;
        tx.binding = false;
        // Skip suppliers that already failed this transaction.
        const discovery::ServiceRecord* chosen = nullptr;
        for (const auto& rec : records) {
          if (tx.blacklist.count(rec.provider) > 0) continue;
          chosen = &rec;
          break;
        }
        if (chosen == nullptr) {
          if (tx.rebinds_left-- > 0) {
            tx.rebind_timer = stack().schedule_after(supervision_.rebind_backoff, [this, id] {
              auto it = consumers_.find(id);
              if (it == consumers_.end()) return;
              it->second.rebind_timer = EventId::invalid();
              bind(id);
            });
          } else {
            stats_.bind_failures++;
            finish(id, Status{ErrorCode::kUnavailable, "no matching supplier"});
          }
          return;
        }
        on_bound(id, chosen->provider);
      },
      /*max_results=*/8, /*timeout=*/duration::seconds(2));
}

void TransactionManager::on_bound(TransactionId id, NodeId supplier) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  ConsumerTx& tx = it->second;
  const bool is_rebind = tx.supplier.valid();
  tx.supplier = supplier;
  tx.last_data = stack().now();
  if (is_rebind) {
    stats_.rebinds++;
  } else {
    stats_.bound++;
  }
  NDSM_DEBUG("txn", "tx " << id.value() << (is_rebind ? " rebound to " : " bound to ")
                          << supplier.value());
  obs::Tracer& tracer = obs::Tracer::instance();
  if (tracer.enabled()) {
    tracer.event_traced("transactions.manager", is_rebind ? "rebound" : "bound",
                        static_cast<std::int64_t>(transport_.self().value()),
                        tx.trace.trace_id, tx.trace.span_id, tx.trace.span_id,
                        {{"tx", std::to_string(id.value())},
                         {"supplier", std::to_string(supplier.value())}});
  }

  serialize::Writer w;
  w.u8(static_cast<std::uint8_t>(Kind::kStart));
  w.id(id);
  w.u8(static_cast<std::uint8_t>(tx.spec.kind));
  w.svarint(tx.spec.period);
  w.u32(tx.spec.samples_per_burst);
  w.str(tx.spec.consumer.service_type);
  // Sent under the transaction's context: the supplier stores the context
  // its delivery runs under and threads every push of this flow back into
  // the transaction's trace.
  {
    const obs::ScopedTrace scope(tx.trace);
    transport_.send(supplier, transport::ports::kTransactions, std::move(w).take());
  }

  if (tx.spec.kind == TransactionKind::kOnDemand) {
    arm_pull(id);
  } else {
    arm_watchdog(id);
  }
}

void TransactionManager::arm_watchdog(TransactionId id) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  ConsumerTx& tx = it->second;
  if (tx.watchdog.valid()) stack().cancel(tx.watchdog);
  Time deadline = tx.spec.period * supervision_.missed_periods + duration::millis(200);
  // "Intermittent with some prediction" (§3.6): trust the supplier's
  // announced next-push time when it extends past our period-based guess,
  // so legitimate schedule gaps do not trigger spurious rebinds.
  if (tx.predicted_next != kTimeNever && tx.predicted_next > stack().now()) {
    const Time predicted_deadline = (tx.predicted_next - stack().now()) +
                                    tx.spec.period * (supervision_.missed_periods - 1) +
                                    duration::millis(200);
    deadline = std::max(deadline, predicted_deadline);
  }
  tx.watchdog = stack().schedule_after(deadline, [this, id] {
    auto it = consumers_.find(id);
    if (it == consumers_.end()) return;
    it->second.watchdog = EventId::invalid();
    supplier_lost(id);
  });
}

void TransactionManager::arm_pull(TransactionId id) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  ConsumerTx& tx = it->second;
  if (tx.pull_timer.valid()) stack().cancel(tx.pull_timer);
  tx.pull_timer = stack().schedule_after(tx.spec.period, [this, id] {
    auto it = consumers_.find(id);
    if (it == consumers_.end()) return;
    ConsumerTx& tx = it->second;
    tx.pull_timer = EventId::invalid();
    // Declare the supplier lost if several pulls went unanswered.
    if (stack().now() - tx.last_data >
        tx.spec.period * supervision_.missed_periods + duration::millis(200)) {
      supplier_lost(id);
      return;
    }
    serialize::Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kPull));
    w.id(id);
    stats_.pulls_sent++;
    {
      const obs::ScopedTrace scope(tx.trace);
      transport_.send(tx.supplier, transport::ports::kTransactions, std::move(w).take());
    }
    arm_pull(id);
  });
}

void TransactionManager::supplier_lost(TransactionId id) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  ConsumerTx& tx = it->second;
  // A rebind is already in flight (flapping supplier: late data re-armed
  // the watchdog mid-query). Re-entering would double-decrement
  // rebinds_left and race a second query callback against the first.
  if (tx.binding) return;
  NDSM_INFO("txn", "tx " << id.value() << " lost supplier " << tx.supplier.value()
                         << ", rebinding");
  if (tx.supplier.valid()) tx.blacklist.insert(tx.supplier);
  if (tx.pull_timer.valid()) {
    stack().cancel(tx.pull_timer);
    tx.pull_timer = EventId::invalid();
  }
  if (tx.rebinds_left-- > 0) {
    bind(id);
  } else {
    stats_.bind_failures++;
    finish(id, Status{ErrorCode::kUnavailable, "supplier lost, rebinds exhausted"});
  }
}

void TransactionManager::cancel_timers(ConsumerTx& tx) {
  for (EventId* timer : {&tx.watchdog, &tx.pull_timer, &tx.lifetime_timer, &tx.rebind_timer}) {
    if (timer->valid()) {
      stack().cancel(*timer);
      *timer = EventId::invalid();
    }
  }
}

void TransactionManager::finish(TransactionId id, Status status) {
  auto it = consumers_.find(id);
  if (it == consumers_.end()) return;
  ConsumerTx tx = std::move(it->second);
  cancel_timers(tx);
  consumers_.erase(it);
  stats_.ended++;
  if (tx.supplier.valid()) {
    serialize::Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kStop));
    w.id(id);
    const obs::ScopedTrace scope(tx.trace);
    transport_.send(tx.supplier, transport::ports::kTransactions, std::move(w).take());
  }
  if (tx.on_end) tx.on_end(status);
}

void TransactionManager::end(TransactionId id) { finish(id, Status::ok()); }

NodeId TransactionManager::supplier_of(TransactionId id) const {
  const auto it = consumers_.find(id);
  return it == consumers_.end() ? NodeId::invalid() : it->second.supplier;
}

void TransactionManager::push_sample(std::uint64_t key) {
  const auto it = flows_.find(key);
  if (it == flows_.end()) return;
  SupplierFlow& flow = it->second;
  flow.push_timer = EventId::invalid();
  if (!transport_.router().stack().online()) return;
  const auto source = sources_.find(flow.service_type);
  if (source == sources_.end()) return;
  // Duty cycling: the effective schedule is the slower of what the
  // consumer asked for and what this supplier is willing to sustain.
  Time effective_period = flow.spec.period;
  const auto override_it = push_period_override_.find(flow.service_type);
  if (override_it != push_period_override_.end()) {
    effective_period = std::max(effective_period, override_it->second);
  }

  const std::uint32_t burst = flow.spec.kind == TransactionKind::kIntermittent
                                  ? flow.spec.samples_per_burst
                                  : 1;
  for (std::uint32_t i = 0; i < burst; ++i) {
    Bytes data = source->second();
    if (flow.spec.payload_bytes > 0) data.resize(flow.spec.payload_bytes);
    // Each sample is a child span of the consumer's transaction, bridging
    // the push-timer gap back to the kStart context.
    obs::TraceContext sample_ctx = flow.trace;
    sample_ctx.span_id = transport_.trace_ids().next();
    if (sample_ctx.trace_id == 0) sample_ctx.trace_id = sample_ctx.span_id;
    serialize::Writer w;
    w.u8(static_cast<std::uint8_t>(Kind::kData));
    w.id(flow.tx);
    w.varint(flow.seq++);
    w.svarint(stack().now());  // production timestamp for benefit accounting
    // Prediction (§3.6 "intermittent with some prediction"): when the next
    // push is scheduled, so the consumer can supervise against the actual
    // schedule instead of guessing from its own period.
    w.svarint(flow.spec.kind == TransactionKind::kOnDemand
                  ? kTimeNever
                  : stack().now() + effective_period);
    w.bytes(data);
    stats_.pushes_sent++;
    obs::Tracer& tracer = obs::Tracer::instance();
    if (tracer.enabled() && flow.trace.valid()) {
      tracer.event_traced("transactions.manager", "push",
                          static_cast<std::int64_t>(transport_.self().value()),
                          sample_ctx.trace_id, sample_ctx.span_id, flow.trace.span_id,
                          {{"tx", std::to_string(flow.tx.value())},
                           {"seq", std::to_string(flow.seq - 1)}});
    }
    const obs::ScopedTrace scope(sample_ctx);
    transport_.send(flow.consumer, transport::ports::kTransactions, std::move(w).take());
  }
  if (flow.spec.kind != TransactionKind::kOnDemand) {
    flow.push_timer =
        stack().schedule_after(effective_period, [this, key] { push_sample(key); });
  }
}

void TransactionManager::on_message(NodeId src, const Bytes& frame) {
  serialize::Reader r{frame};
  const auto kind = r.u8();
  if (!kind) return;
  switch (static_cast<Kind>(*kind)) {
    case Kind::kStart: {
      const auto tx = r.id<TransactionId>();
      const auto tx_kind = r.u8();
      const auto period = r.svarint();
      const auto burst = r.u32();
      const auto type = r.str();
      if (!tx || !tx_kind || !period || !burst || !type) return;
      const obs::TraceContext start_ctx = obs::active_trace();
      const std::uint64_t key = flow_key(src, *tx);
      // Replace any existing flow with the same key (consumer re-sent start).
      auto existing = flows_.find(key);
      if (existing != flows_.end() && existing->second.push_timer.valid()) {
        stack().cancel(existing->second.push_timer);
      }
      SupplierFlow flow;
      flow.consumer = src;
      flow.tx = *tx;
      flow.spec.kind = static_cast<TransactionKind>(*tx_kind);
      flow.spec.period = *period;
      flow.spec.samples_per_burst = *burst;
      flow.service_type = *type;
      flow.trace = start_ctx;
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled() && start_ctx.valid()) {
        tracer.event_traced("transactions.manager", "flow_start",
                            static_cast<std::int64_t>(transport_.self().value()),
                            start_ctx.trace_id, start_ctx.span_id, start_ctx.span_id,
                            {{"tx", std::to_string(tx->value())},
                             {"consumer", std::to_string(src.value())},
                             {"type", *type}});
      }
      flows_[key] = std::move(flow);
      if (static_cast<TransactionKind>(*tx_kind) != TransactionKind::kOnDemand) {
        // First sample immediately, then on the period. Tracked in
        // push_timer so teardown (node crash) cancels it — an untracked
        // event here would fire into a destroyed manager.
        flows_[key].push_timer = stack().schedule_after(0, [this, key] { push_sample(key); });
      }
      break;
    }
    case Kind::kStop: {
      const auto tx = r.id<TransactionId>();
      if (!tx) return;
      const auto it = flows_.find(flow_key(src, *tx));
      if (it == flows_.end()) return;
      if (it->second.push_timer.valid()) stack().cancel(it->second.push_timer);
      flows_.erase(it);
      break;
    }
    case Kind::kPull: {
      const auto tx = r.id<TransactionId>();
      if (!tx) return;
      push_sample(flow_key(src, *tx));
      break;
    }
    case Kind::kData: {
      const auto tx = r.id<TransactionId>();
      const auto seq = r.varint();
      const auto produced = r.svarint();
      const auto next_predicted = r.svarint();
      const auto data = r.bytes();
      if (!tx || !seq || !produced || !next_predicted || !data) return;
      const obs::TraceContext sample_ctx = obs::active_trace();
      auto it = consumers_.find(*tx);
      if (it == consumers_.end()) return;  // ended while data in flight
      ConsumerTx& ctx = it->second;
      if (src != ctx.supplier) return;  // stale data from a replaced supplier
      ctx.last_data = stack().now();
      ctx.predicted_next = *next_predicted;
      stats_.data_received++;
      stats_.delivered_utility +=
          ctx.spec.consumer.timeliness.eval(stack().now() - *produced);
      if (ctx.spec.kind != TransactionKind::kOnDemand) arm_watchdog(*tx);
      obs::Tracer& tracer = obs::Tracer::instance();
      if (tracer.enabled() && sample_ctx.valid()) {
        tracer.event_traced("transactions.manager", "data",
                            static_cast<std::int64_t>(transport_.self().value()),
                            sample_ctx.trace_id, /*span_id=*/0, sample_ctx.span_id,
                            {{"tx", std::to_string(tx->value())},
                             {"seq", std::to_string(*seq)},
                             {"supplier", std::to_string(src.value())}});
      }
      // The sink runs under the delivery's context, so what it sends
      // continues the sample's trace.
      if (ctx.sink) ctx.sink(*data, src, *produced);
      break;
    }
    case Kind::kStartAck:
      break;
  }
}

}  // namespace ndsm::transactions
