#!/bin/bash
# Regenerates every table/figure (DESIGN.md experiment index) into
# out/bench_output.txt, and collects each bench's machine-readable
# BENCH_JSON summary line into out/bench_metrics.jsonl (out/ is the
# gitignored run-artifact directory; the work tree stays clean). Exits
# nonzero (listing the offenders) if any bench fails.
#
# Usage: ./run_benches.sh [--quick]
#   --quick  sets NDSM_BENCH_QUICK=1 so benches run reduced workloads —
#            smoke-testing the harness, not producing publishable numbers.
cd "$(dirname "$0")"
quick=0
for arg in "$@"; do
  case "$arg" in
    --quick) quick=1 ;;
    *) echo "unknown option: $arg" >&2; exit 2 ;;
  esac
done
if [ "$quick" -eq 1 ]; then
  export NDSM_BENCH_QUICK=1
  echo "quick mode: reduced workloads (NDSM_BENCH_QUICK=1)"
fi
mkdir -p out
: > out/bench_output.txt
: > out/bench_metrics.jsonl
failed=()
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  name=$(basename "$b")
  echo "######## $name" >> out/bench_output.txt
  out=$(timeout 900 "$b" 2>&1)
  status=$?
  printf '%s\n\n' "$out" >> out/bench_output.txt
  if [ $status -ne 0 ]; then
    failed+=("$name (exit $status)")
    continue
  fi
  printf '%s\n' "$out" | sed -n 's/^BENCH_JSON //p' >> out/bench_metrics.jsonl
done
if [ ${#failed[@]} -gt 0 ]; then
  echo "BENCH FAILURES:" >&2
  printf '  %s\n' "${failed[@]}" >&2
  echo "BENCHES_FAILED" >> out/bench_output.txt
  exit 1
fi
echo "ALL_BENCHES_DONE" >> out/bench_output.txt
echo "wrote out/bench_output.txt and out/bench_metrics.jsonl ($(wc -l < out/bench_metrics.jsonl) summaries)"

# Regression + determinism gate: diff against the committed baseline
# (10% threshold). bench_compare checks equality-gated fields exactly —
# boolean invariants like bench_scale's digest_match must be true, and
# *_digest values must match the baseline bit-for-bit — so the old
# hand-rolled SCALE_DIGEST grep lives there now. Quick-mode numbers are
# not comparable (reduced workloads), so quick runs apply only the
# equality gates; full runs check everything.
if [ -f bench/baseline_metrics.jsonl ]; then
  if [ "$quick" -eq 1 ]; then
    if python3 scripts/bench_compare.py --equality-only \
        bench/baseline_metrics.jsonl out/bench_metrics.jsonl; then
      echo "BENCH_EQUALITY_OK: boolean/digest invariants hold (quick mode)"
    else
      echo "BENCH_EQUALITY_FAILED: see above" >&2
      exit 1
    fi
  else
    if python3 scripts/bench_compare.py bench/baseline_metrics.jsonl out/bench_metrics.jsonl; then
      echo "BENCH_COMPARE_OK: within 10% of bench/baseline_metrics.jsonl"
    else
      echo "BENCH_COMPARE_REGRESSION: see above" >&2
      exit 1
    fi
  fi
fi

# Tracing-overhead gate: bench_sim_engine's transport ping-pong with the
# tracer recording must stay within 5% of the same run with recording
# disabled (trace_overhead_ratio = traced/untraced throughput, ideal
# 1.0). Compared against the ideal rather than a measured baseline so the
# bound is absolute; quick-mode ratios are too noisy (single short pass)
# to gate on.
if [ "$quick" -eq 0 ] && grep -q '"bench":"transport_pingpong"' out/bench_metrics.jsonl; then
  printf '{"bench":"transport_pingpong","trace_overhead_ratio":1.0}\n' > out/trace_overhead_ideal.jsonl
  grep '"bench":"transport_pingpong"' out/bench_metrics.jsonl > out/trace_overhead_measured.jsonl
  if python3 scripts/bench_compare.py --threshold 5 \
      out/trace_overhead_ideal.jsonl out/trace_overhead_measured.jsonl; then
    echo "TRACE_OVERHEAD_OK: tracing costs <5% of transport throughput"
  else
    echo "TRACE_OVERHEAD_REGRESSION: tracing costs >5% of transport throughput" >&2
    exit 1
  fi
fi
