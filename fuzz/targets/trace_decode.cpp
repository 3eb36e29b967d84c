// Fuzz boundary: the versioned trace-context trailer riding at the end of
// every routing header, the one place a frame carries its context. Contract
// under hostile bytes: decode_trace never fails hard — an exhausted
// reader (legacy frame), flags==0, or a truncated v1 block all yield an
// invalid context; any decoded context re-encodes into a trailer that
// decodes back to the identical context.

#include "fuzz_target.hpp"
#include "obs/trace_context.hpp"
#include "serialize/codec.hpp"

using namespace ndsm;

namespace {
void round_trip(const obs::TraceContext& ctx) {
  serialize::Writer w;
  obs::encode_trace(w, ctx);
  serialize::Reader r{w.data()};
  const obs::TraceContext again = obs::decode_trace(r);
  NDSM_FUZZ_CHECK(again.trace_id == ctx.trace_id);
  NDSM_FUZZ_CHECK(again.span_id == ctx.span_id);
  NDSM_FUZZ_CHECK(again.hops == ctx.hops);
  NDSM_FUZZ_CHECK(r.exhausted());
}
}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  // Whole buffer as one trailer.
  {
    serialize::Reader r{data, size};
    const obs::TraceContext ctx = obs::decode_trace(r);
    if (ctx.valid()) round_trip(ctx);
  }
  // Trailer at every suffix: a trailer never sits at offset 0 in real
  // frames, so sweep the start position to catch offset-dependence.
  for (std::size_t off = 1; off <= size && off <= 32; ++off) {
    serialize::Reader r{data + off, size - off};
    const obs::TraceContext ctx = obs::decode_trace(r);
    if (ctx.valid()) round_trip(ctx);
  }
  return 0;
}
