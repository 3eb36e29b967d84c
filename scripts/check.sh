#!/bin/bash
# CI gate: build the whole tree under a sanitizer (asserts re-enabled)
# and run the tier-1 test suite under it. A separate build directory per
# sanitizer keeps the instrumented trees from invalidating the normal one.
#
# Usage: ./scripts/check.sh [--tsan|--fuzz] [ctest-args...]
#   default  AddressSanitizer + UBSan over the whole suite
#   --tsan   ThreadSanitizer (TSan and ASan cannot be combined), aimed at
#            the sharded parallel engine; pass e.g.
#            `--no-tests=error -R 'Sharded|ShardMap|tsan_selftest'` to scope
#            the run to the threaded tests and the TSan self-test
#   --fuzz   the deterministic fuzz gate: ASan+UBSan build, then each
#            replay_<target> driver replays the committed corpus plus a
#            deep structured-mutation sweep (fuzz/replay_main.cpp). Runs
#            on any toolchain — the libFuzzer build (-DNDSM_FUZZ=ON,
#            clang) is the CI fuzz-smoke job's business, not this one's.
set -e
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--fuzz" ]; then
  shift
  BUILD_DIR=build-san
  cmake -B "$BUILD_DIR" -S . -DNDSM_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
  export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
  for t in value_decode transport_frame discovery_msg trace_decode udp_wire wal_replay; do
    "$BUILD_DIR/fuzz/replay_$t" "fuzz/corpus/$t" --mutations 20000 "$@"
  done
  echo "CHECK_OK: fuzz replay green under ASan+UBSan"
  exit 0
fi

if [ "${1:-}" = "--tsan" ]; then
  shift
  BUILD_DIR=build-tsan
  cmake -B "$BUILD_DIR" -S . -DNDSM_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build "$BUILD_DIR" -j "$(nproc)"
  export TSAN_OPTIONS=halt_on_error=1:second_deadlock_stack=1
  cd "$BUILD_DIR"
  ctest --output-on-failure -j "$(nproc)" "$@"
  echo "CHECK_OK: green under TSan"
  exit 0
fi

BUILD_DIR=build-san
cmake -B "$BUILD_DIR" -S . -DNDSM_SANITIZE=address,undefined \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build "$BUILD_DIR" -j "$(nproc)"

export ASAN_OPTIONS=detect_leaks=1:strict_string_checks=1
export UBSAN_OPTIONS=print_stacktrace=1:halt_on_error=1
cd "$BUILD_DIR"
ctest --output-on-failure -j "$(nproc)" "$@"
echo "CHECK_OK: tier-1 green under ASan+UBSan"
