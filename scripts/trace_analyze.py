#!/usr/bin/env python3
"""Causal-trace critical-path analysis for Tracer jsonl dumps.

Usage:
  trace_analyze.py TRACE.jsonl            # analyze the longest trace
  trace_analyze.py TRACE.jsonl --trace ID # analyze one trace id
  trace_analyze.py TRACE.jsonl --all      # one summary line per trace
  trace_analyze.py --self-test            # exit 0 iff the analyzer works

Input is the obs::Tracer jsonl format (one event per line):
  {"t_us":..,"component":..,"name":..,"node":..,["dur_us":..,]
   ["trace":..,"span":..,"parent":..,]["kv":{...}]}

Events sharing a "trace" id form one causal chain (wire-propagated
TraceContext). The analyzer orders a chain's events by virtual time and
attributes every inter-event interval to one of four categories, decided
by what the chain was waiting for when the interval ended:

  retransmit  next event is a retransmission: the chain sat out an RTO
  air         next event is a delivery ("deliver"/"deliver_local"/"data"):
              the frame was in flight (transmission + propagation + any
              fault-injected jitter)
  queue       next event is "serve_query": the request waited in the
              directory's processing queue
  processing  everything else: a node was computing / scheduling between
              causally-linked steps

The categories partition the trace's extent exactly, so the breakdown
always sums to the end-to-end latency (last event time - first event
time).

Exit codes: 0 ok, 1 no matching trace, 2 usage/parse error.
"""

import argparse
import json
import sys

DELIVERY_NAMES = ("deliver", "deliver_local", "data")


def load_events(path):
    """Parse a Tracer jsonl file into a list of event dicts."""
    events = []
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
                # Flight-recorder dumps carry one non-event header line.
                if "flightrec" in obj:
                    continue
                if "t_us" not in obj or "name" not in obj:
                    continue
                events.append(obj)
    except OSError as e:
        print(f"cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    return events


def traces_of(events):
    """Group events by trace id (events without one are ambient, skipped)."""
    traces = {}
    for ev in events:
        tid = ev.get("trace")
        if tid:
            traces.setdefault(tid, []).append(ev)
    for chain in traces.values():
        chain.sort(key=lambda e: (e["t_us"], e.get("span", 0)))
    return traces


def classify_gap(nxt):
    """Category of the interval that *ends* at event `nxt`."""
    name = nxt["name"]
    if name == "retransmit":
        return "retransmit"
    if name in DELIVERY_NAMES:
        return "air"
    if name == "serve_query":
        return "queue"
    return "processing"


def analyze(chain):
    """Breakdown dict for one causally-ordered chain of events."""
    start = chain[0]["t_us"]
    end = max(e["t_us"] for e in chain)
    breakdown = {"queue": 0, "air": 0, "retransmit": 0, "processing": 0}
    for prev, nxt in zip(chain, chain[1:]):
        gap = nxt["t_us"] - prev["t_us"]
        if gap > 0:
            breakdown[classify_gap(nxt)] += gap
    return {
        "trace": chain[0].get("trace"),
        "events": len(chain),
        "nodes": sorted({e["node"] for e in chain if "node" in e}),
        "start_us": start,
        "end_us": end,
        "e2e_us": end - start,
        "breakdown": breakdown,
    }


def print_report(result, chain):
    b = result["breakdown"]
    e2e = result["e2e_us"]
    print(f"trace {result['trace']}: {result['events']} events across "
          f"nodes {result['nodes']}")
    print(f"  e2e latency: {e2e} us "
          f"(t={result['start_us']} .. {result['end_us']})")
    print("  critical-path breakdown:")
    for cat in ("queue", "air", "retransmit", "processing"):
        pct = 100.0 * b[cat] / e2e if e2e > 0 else 0.0
        print(f"    {cat:<12} {b[cat]:>12} us  {pct:6.2f}%")
    total = sum(b.values())
    print(f"    {'total':<12} {total:>12} us  (sums to e2e: "
          f"{'yes' if total == e2e else 'NO'})")
    print("  timeline:")
    for ev in chain:
        node = f"node {ev['node']}" if "node" in ev else "global"
        dur = f" dur={ev['dur_us']}us" if "dur_us" in ev else ""
        print(f"    t={ev['t_us']:>10} {node:<10} "
              f"{ev.get('component', '?')}/{ev['name']}{dur}")


def self_test():
    """Analyzer contract on a synthetic two-hop request with one retry."""
    chain = [
        # client sends a query at t=1000 (message wire span starts)
        {"t_us": 1000, "component": "discovery.centralized", "name": "query",
         "node": 1, "trace": 7, "span": 7},
        {"t_us": 1000, "component": "transport.reliable", "name": "message",
         "node": 1, "dur_us": 900, "trace": 7, "span": 8, "parent": 7},
        # first copy lost; RTO fires at t=1300
        {"t_us": 1300, "component": "transport.reliable", "name": "retransmit",
         "node": 1, "trace": 7, "span": 8},
        # second copy lands at t=1500 (200us in the air)
        {"t_us": 1500, "component": "transport.reliable", "name": "deliver",
         "node": 2, "trace": 7, "span": 9, "parent": 8},
        # directory queue + processing until t=1650
        {"t_us": 1650, "component": "discovery.directory", "name": "serve_query",
         "node": 2, "trace": 7, "span": 10, "parent": 9},
        # reply crosses back, delivered at t=1800
        {"t_us": 1800, "component": "transport.reliable", "name": "deliver",
         "node": 1, "trace": 7, "span": 11, "parent": 10},
        {"t_us": 1800, "component": "discovery.centralized",
         "name": "query_answered", "node": 1, "trace": 7, "parent": 11},
    ]
    result = analyze(chain)
    b = result["breakdown"]
    assert result["e2e_us"] == 800, result
    assert sum(b.values()) == result["e2e_us"], result
    assert b["retransmit"] == 300, b   # 1000 -> 1300 waiting out the RTO
    assert b["air"] == 350, b          # 1300->1500 and 1650->1800 in flight
    assert b["queue"] == 150, b        # 1500 -> 1650 in the directory queue
    assert b["processing"] == 0, b
    # Unknown gap-enders fall into processing, never crash.
    odd = [
        {"t_us": 0, "name": "begin", "node": 3, "trace": 9, "span": 1},
        {"t_us": 40, "name": "bound", "node": 3, "trace": 9, "span": 2},
    ]
    r2 = analyze(odd)
    assert r2["breakdown"]["processing"] == 40, r2
    assert sum(r2["breakdown"].values()) == r2["e2e_us"], r2
    # Grouping drops untraced events and keeps chains time-ordered.
    traces = traces_of(chain + [{"t_us": 5, "name": "ambient", "node": 0}])
    assert set(traces) == {7}, traces
    assert [e["t_us"] for e in traces[7]] == sorted(e["t_us"] for e in chain)
    print("trace_analyze self-test ok")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace_file", nargs="?", help="Tracer jsonl dump")
    ap.add_argument("--trace", type=int, help="analyze this trace id only")
    ap.add_argument("--all", action="store_true",
                    help="print a one-line summary for every trace")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    if args.self_test:
        return self_test()
    if not args.trace_file:
        ap.print_usage(sys.stderr)
        return 2

    traces = traces_of(load_events(args.trace_file))
    if not traces:
        print("no traced events found", file=sys.stderr)
        return 1

    if args.all:
        for tid in sorted(traces, key=lambda t: -(analyze(traces[t])["e2e_us"])):
            r = analyze(traces[tid])
            b = r["breakdown"]
            print(f"trace {tid}: e2e={r['e2e_us']}us events={r['events']} "
                  f"nodes={len(r['nodes'])} queue={b['queue']} air={b['air']} "
                  f"retransmit={b['retransmit']} processing={b['processing']}")
        return 0

    if args.trace is not None:
        if args.trace not in traces:
            print(f"trace {args.trace} not in file", file=sys.stderr)
            return 1
        chain = traces[args.trace]
    else:
        chain = max(traces.values(), key=lambda c: analyze(c)["e2e_us"])
    print_report(analyze(chain), chain)
    return 0


if __name__ == "__main__":
    sys.exit(main())
