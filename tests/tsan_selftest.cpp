// ThreadSanitizer self-test, built only with -DNDSM_TSAN=ON. A green TSan
// run of the sharded-engine tests means something only if TSan can see a
// race between two shards of one engine at all, so this program makes one
// on purpose: in every window, the events of two shards write unguarded
// shared variables while two workers run the shards. ctest passes it when
// the output reports "ThreadSanitizer: data race" (scripts/check.sh
// --tsan sets halt_on_error, which stops it at the first report).

#include <cstdint>
#include <cstdio>

#include "sim/simulator.hpp"

int main() {
  using ndsm::sim::Simulator;
  constexpr std::uint64_t kWindows = 50;
  Simulator engine({.shards = 2, .workers = 2, .lookahead = 10, .seed = 1});
  // `volatile` only keeps the compiler from hoisting the loads out of the
  // wait loop below; nothing orders these accesses between the threads.
  volatile std::uint64_t shared = 0;
  volatile std::uint64_t entered = 0;  // windows whose shard-1 event has run
  for (std::uint64_t w = 0; w < kWindows; ++w) {
    const auto at = static_cast<ndsm::Time>(w * 10);  // one event per shard per window
    engine.schedule(1, at, 0, w, [&shared, &entered] {
      entered = entered + 1;
      shared = shared + 1;
    });
    // Shard 0 waits for shard 1's event of the same window. A thread
    // blocked here cannot claim shard 1, so the other thread runs it: the
    // two shards always overlap, whichever thread claims first.
    engine.schedule(0, at, 0, w, [&shared, &entered, w] {
      while (entered <= w) {
      }
      shared = shared + 1;
    });
  }
  engine.run_until(static_cast<ndsm::Time>(kWindows * 10));
  std::printf("tsan_selftest: no race reported (shared=%llu)\n",
              static_cast<unsigned long long>(shared));
  return 0;
}
