#pragma once
// Causal trace context propagated across the wire (§3.4–§3.6): every
// traced message carries a trace id (constant across the whole causal
// chain) plus the span id of its immediate parent, so cross-node spans
// reassemble into one causal graph offline (scripts/trace_analyze.py,
// Perfetto flow events).
//
// Determinism contract: ids are derived purely from sim state — a FNV-1a
// mix of (node, incarnation epoch, per-node counter) — never from
// randomness or wall clocks, so twin runs allocate identical ids and the
// tracing-enabled run stays digest-identical to the disabled one.
//
// On the wire the block ends every routing frame, after its body
// (routing/router.cpp), so legacy decoders that stop early still parse.
// It is the only place a frame carries a context: the transport,
// discovery and transactions carry none of their own and read the one
// their delivery runs under (active_trace() below), which the router
// scopes to the header's. Wire format:
//   u8  flags      0 = no context, 1 = context v1 follows
//   u64 trace_id   (flags >= 1)
//   u64 span_id    (flags >= 1)
//   u8  hops       (flags >= 1)
// Future versions append fields after the v1 block and bump flags; v1
// decoders read their prefix and ignore the rest. An exhausted reader at
// decode time means "no context" (frames predating this header, or
// hand-crafted test frames).
//
// Behaviour-neutrality: the context block is encoded *unconditionally* —
// whether tracing is enabled only gates ring recording, never frame
// bytes — because frame size feeds both transmission delay and the loss
// RNG draw sequence (net/world.cpp). Allocators likewise advance their
// counters unconditionally.

#include <cstdint>

#include "common/ids.hpp"

namespace ndsm::serialize {
class Writer;
class Reader;
}  // namespace ndsm::serialize

namespace ndsm::obs {

struct TraceContext {
  std::uint64_t trace_id = 0;  // 0 = untraced
  std::uint64_t span_id = 0;   // span that emitted the message
  std::uint8_t hops = 0;       // routing hops accumulated so far

  [[nodiscard]] bool valid() const { return trace_id != 0; }

  friend bool operator==(const TraceContext& a, const TraceContext& b) {
    return a.trace_id == b.trace_id && a.span_id == b.span_id && a.hops == b.hops;
  }
};

// Worst-case encoded size of the context block (flags + 2×u64 + hops);
// used for Writer::reserve hints.
inline constexpr std::size_t kTraceWireMax = 1 + 8 + 8 + 1;

// Appends the context block to `w` (unconditionally — see header note).
void encode_trace(serialize::Writer& w, const TraceContext& ctx);

// Reads a context block; returns an invalid context for flags==0, for an
// exhausted reader (legacy frame), or on a truncated block.
[[nodiscard]] TraceContext decode_trace(serialize::Reader& r);

// Deterministic id source: FNV-1a over (node, epoch, ++counter). Never
// returns 0 (0 means "untraced"). One allocator per transport incarnation;
// the epoch folds crash/restart into the id space so post-restart spans
// are distinguishable in one causal graph.
class TraceIdAllocator {
 public:
  TraceIdAllocator(NodeId node, std::uint64_t epoch)
      : node_(node.value()), epoch_(epoch) {}

  [[nodiscard]] std::uint64_t next();
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

 private:
  std::uint64_t node_;
  std::uint64_t epoch_;
  std::uint64_t counter_ = 0;
};

// Ambient context for the currently-executing handler. The sim is
// single-threaded run-to-completion, so a plain stack suffices: the router
// scopes each delivery to its frame's context, the transport re-scopes its
// receivers to their deliver span, and any send issued inside one inherits
// the active context (continuing the trace instead of rooting a new one).
[[nodiscard]] TraceContext active_trace();

class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext ctx);
  ~ScopedTrace();

  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;
};

}  // namespace ndsm::obs
