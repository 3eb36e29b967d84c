#include "obs/trace_context.hpp"

#include <vector>

#include "common/bytes.hpp"
#include "serialize/codec.hpp"

namespace ndsm::obs {
namespace {

std::vector<TraceContext>& context_stack() {
  static std::vector<TraceContext> stack;
  return stack;
}

}  // namespace

void encode_trace(serialize::Writer& w, const TraceContext& ctx) {
  if (!ctx.valid()) {
    w.u8(0);
    return;
  }
  w.u8(1);
  w.u64(ctx.trace_id);
  w.u64(ctx.span_id);
  w.u8(ctx.hops);
}

TraceContext decode_trace(serialize::Reader& r) {
  if (r.exhausted()) return {};  // legacy frame without a context block
  const auto flags = r.u8();
  if (!flags || *flags == 0) return {};
  const auto trace_id = r.u64();
  const auto span_id = r.u64();
  const auto hops = r.u8();
  if (!trace_id || !span_id || !hops) return {};  // truncated block
  TraceContext ctx;
  ctx.trace_id = *trace_id;
  ctx.span_id = *span_id;
  ctx.hops = *hops;
  return ctx;
}

std::uint64_t TraceIdAllocator::next() {
  // Counter advances unconditionally (even when tracing is disabled) so
  // allocator state never depends on the tracing switch.
  std::uint64_t h = fnv_mix(fnv_mix(fnv_mix(kFnvTruncatedBasis, node_), epoch_), ++counter_);
  return h == 0 ? 1 : h;
}

TraceContext active_trace() {
  auto& stack = context_stack();
  return stack.empty() ? TraceContext{} : stack.back();
}

ScopedTrace::ScopedTrace(TraceContext ctx) { context_stack().push_back(ctx); }

ScopedTrace::~ScopedTrace() { context_stack().pop_back(); }

}  // namespace ndsm::obs
