#!/usr/bin/env python3
"""Compare two bench_metrics.jsonl files and flag regressions.

Usage: bench_compare.py BASELINE.jsonl CURRENT.jsonl [--threshold PCT]
                        [--equality-only]

Each input line is one BENCH_JSON object keyed by its "bench" field.

Numeric fields present in both files are diffed; a change worse than
--threshold percent (default 10) in the bad direction is a regression and
makes the script exit 1. Throughput-style fields (*_per_s, *_ops, *_gain,
*_throughput, *_ratio, *_wps and goodput*) are higher-better; everything
else (latencies, counts of lost frames, ...) is treated as lower-better.

Equality-gated fields are checked exactly, never by percentage:
  * boolean fields (digest_match, all_deterministic, ...) are invariants:
    they must be true in CURRENT — unless the baseline explicitly records
    the same field as false, which marks it a descriptive mode flag
    (e.g. "quick": false) rather than an invariant — and one present in
    the baseline must not silently vanish from the current run;
  * *_digest fields are identity values (event-order digests): when a
    digest appears in both files it must match bit-for-bit (compared as
    exact ints/strings — no float rounding), and a baseline digest missing
    from the current run is an error. A digest only in CURRENT is fine
    (new coverage, no baseline yet).

--equality-only skips the numeric comparison and applies just the
equality gates — what run_benches.sh uses in --quick mode, where reduced
workloads make numbers incomparable but determinism invariants must hold.

Exit codes: 0 ok, 1 regressions/equality failures found, 2 usage/parse
error.
"""

import argparse
import json
import sys

HIGHER_BETTER_SUFFIXES = ("_per_s", "_ops", "_gain", "_throughput", "_ratio", "_wps")
HIGHER_BETTER_PREFIXES = ("goodput",)


def higher_is_better(field: str) -> bool:
    return field.endswith(HIGHER_BETTER_SUFFIXES) or field.startswith(HIGHER_BETTER_PREFIXES)


def is_digest_field(field: str) -> bool:
    return field == "digest" or field.endswith("_digest")


def load(path: str) -> dict:
    """Map bench name -> {"metrics": numeric fields, "gates": equality fields}."""
    benches = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as e:
                    print(f"{path}:{lineno}: bad JSON: {e}", file=sys.stderr)
                    sys.exit(2)
                name = obj.get("bench")
                if not name:
                    print(f"{path}:{lineno}: missing 'bench' key", file=sys.stderr)
                    sys.exit(2)
                entry = benches.setdefault(name, {"metrics": {}, "gates": {}})
                for k, v in obj.items():
                    if k == "bench":
                        continue
                    if isinstance(v, bool) or is_digest_field(k):
                        # Kept verbatim: a 64-bit digest would lose its low
                        # bits as a float, turning a mismatch into a pass.
                        entry["gates"][k] = v
                    elif isinstance(v, (int, float)):
                        entry["metrics"][k] = float(v)
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return benches


def check_gates(bench, base_gates, curr_gates, failures, rows):
    for field in sorted(base_gates.keys() | curr_gates.keys()):
        in_base, in_curr = field in base_gates, field in curr_gates
        b = base_gates.get(field)
        c = curr_gates.get(field)
        if not in_curr:
            # An invariant the baseline pins must not silently vanish.
            rows.append((bench, field, str(b), "-", "MISSING"))
            failures.append(f"{bench}.{field}: present in baseline, missing from current")
            continue
        if isinstance(c, bool):
            # False fails unless the baseline explicitly pins this flag
            # false (a descriptive mode flag, e.g. "quick": false, rather
            # than an invariant like digest_match).
            ok = c or (in_base and b is False)
            rows.append((bench, field, str(b) if in_base else "-", str(c),
                         "" if ok else "FAILED"))
            if not ok:
                failures.append(f"{bench}.{field}: boolean invariant is false")
            continue
        # Digest identity: exact match required when both sides have it.
        if not in_base:
            rows.append((bench, field, "-", str(c), "new (no baseline)"))
            continue
        if b == c:
            rows.append((bench, field, str(b), str(c), ""))
        else:
            rows.append((bench, field, str(b), str(c), "MISMATCH"))
            failures.append(f"{bench}.{field}: digest mismatch {b} != {c}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=10.0,
                    help="regression threshold in percent (default 10)")
    ap.add_argument("--equality-only", action="store_true",
                    help="check only equality-gated (boolean/digest) fields; "
                         "skip the numeric threshold comparison")
    args = ap.parse_args()

    base = load(args.baseline)
    curr = load(args.current)

    failures = []
    rows = []
    empty = {"metrics": {}, "gates": {}}
    for bench in sorted(base.keys() | curr.keys()):
        if bench not in curr:
            rows.append((bench, "-", "missing from current", "", ""))
            continue
        base_entry = base.get(bench, empty)
        curr_entry = curr[bench]
        if bench not in base:
            rows.append((bench, "-", "new (no baseline)", "", ""))
        check_gates(bench, base_entry["gates"], curr_entry["gates"], failures, rows)
        if args.equality_only or bench not in base:
            continue
        for field in sorted(base_entry["metrics"].keys() & curr_entry["metrics"].keys()):
            b, c = base_entry["metrics"][field], curr_entry["metrics"][field]
            if b == 0:
                delta_pct = 0.0 if c == 0 else float("inf")
            else:
                delta_pct = (c - b) / abs(b) * 100.0
            hb = higher_is_better(field)
            regressed = (delta_pct < -args.threshold) if hb else (delta_pct > args.threshold)
            mark = "REGRESSION" if regressed else ""
            rows.append((bench, field, f"{b:.6g}", f"{c:.6g}",
                         f"{delta_pct:+.1f}%{' ' + mark if mark else ''}"))
            if regressed:
                failures.append(f"{bench}.{field}: {b:.6g} -> {c:.6g} ({delta_pct:+.1f}%)")

    widths = [max(len(r[i]) for r in rows + [("bench", "field", "baseline", "current", "delta")])
              for i in range(5)] if rows else [5] * 5
    header = ("bench", "field", "baseline", "current", "delta")
    for r in [header] + rows:
        print("  ".join(str(r[i]).ljust(widths[i]) for i in range(5)).rstrip())

    if failures:
        print(f"\n{len(failures)} failure(s) "
              f"(threshold {args.threshold:.0f}% for numeric fields):", file=sys.stderr)
        for r in failures:
            print(f"  {r}", file=sys.stderr)
        return 1
    what = "equality gates" if args.equality_only else f"regressions beyond {args.threshold:.0f}%"
    print(f"\nno {what} failed" if args.equality_only else f"\nno {what}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
