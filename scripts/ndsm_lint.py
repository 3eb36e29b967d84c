#!/usr/bin/env python3
"""ndsm_lint.py — repo-specific determinism & hygiene lint for NDSM.

Scans src/, tests/, bench/, examples/ (*.cpp, *.hpp) and enforces the
rules the simulator's bit-determinism argument rests on:

  wall-clock          No wall-clock reads (std::chrono::{system,steady,
                      high_resolution}_clock, gettimeofday, clock_gettime,
                      time(nullptr), localtime, gmtime) outside src/sim/
                      and src/common/clock.* — all simulation time comes
                      from sim::Simulator.
  raw-random          No std::random_device / rand() / srand() outside
                      src/sim/ and src/common/clock.* — all randomness
                      comes from the seeded common/rng PCG streams.
  unordered-iter      No iteration over std::unordered_map/_set in the
                      message-ordering paths (src/net, src/routing,
                      src/discovery, src/transactions, src/scheduling):
                      hash-bucket order would leak into packet order and
                      break twin-run determinism.
  raw-new-delete      No raw new/delete anywhere scanned — ownership goes
                      through unique_ptr/shared_ptr/containers.
  raw-concurrency     No raw threading primitives (std::thread, std::mutex,
                      std::atomic, std::condition_variable, std::async, ...)
                      outside src/sim/simulator.* — parallel execution goes
                      through the sharded sim::Simulator, which is the one
                      place the determinism argument for threads is made.
  assert-side-effect  assert() arguments must be effect-free: NDEBUG
                      builds strip them, so `assert(x++)` changes
                      behaviour between build types.
  metric-name         Metric registrations in src/ follow the dotted
                      `component.metric` convention from src/obs
                      (lowercase, digits, underscores, >= one dot).
  unchecked-reader    serialize::Reader primitive reads in src/ (outside
                      src/serialize/ itself) must not discard the optional
                      result or dereference it in the same expression
                      (`r.u8();`, `(void)r.u8();`, `*r.varint()`,
                      `r.id<NodeId>()->…`): on truncated or hostile wire
                      bytes the optional is empty and the deref is UB,
                      while a discarded read silently desynchronises the
                      decode. Bind, check, then use — or annotate why the
                      read cannot fail (e.g. the byte was already peeked).
  file-io             Durable file I/O has one home: std::ifstream,
                      std::ofstream, std::fstream and fopen appear in src/
                      only in src/recovery/storage.* (file-backed
                      StableStorage volumes) and the src/obs exporters
                      (flight, metrics, perfetto, trace).
  untracked-timer     In the code node::Runtime::crash() tears down while
                      the engine keeps running (src/transport, routing,
                      discovery, transactions, scheduling, apps, node), a
                      schedule_after/schedule_at call must keep the
                      EventId it returns, so that its owner can cancel it:
                      a dropped one runs after its owner is gone. Hold a
                      deferred delivery in a net::RequestTable instead.

Any finding can be suppressed with a written reason, on the same line or
the line directly above the construct:

    // ndsm-lint: allow(<rule>): <non-empty reason>

An allow() with an empty reason is itself a violation (bare-allow).

Usage:
    ndsm_lint.py [--root DIR]      lint the tree, exit 1 on violations
    ndsm_lint.py --self-test       inject one violation per rule into a
                                   temp tree and assert each is caught
"""

import argparse
import os
import re
import sys
import tempfile

SCAN_DIRS = ("src", "tests", "bench", "examples")
CXX_EXTENSIONS = (".cpp", ".hpp")

# Paths (relative, / separators) where simulated-time and RNG plumbing
# legitimately touches the forbidden primitives. src/net/udp* is the
# real-socket Stack backend (DESIGN §14): real time, real entropy and
# real sockets are its entire purpose, and nothing above the net::Stack
# seam may include it — the middleware stays clock-clean.
CLOCK_EXEMPT_PREFIXES = ("src/sim/", "src/common/clock", "src/net/udp")

# Sanctioned homes of raw threading primitives: the event engine
# (src/sim/simulator.{hpp,cpp}), whose worker pool carries the whole
# determinism-under-parallelism argument (DESIGN §13), and the
# real-socket backend src/net/udp* (kernel-facing I/O code; its public
# contract is still single-threaded, but OS signal/socket plumbing may
# need primitives the sim-side ban exists to keep out of protocol code).
CONCURRENCY_EXEMPT_PREFIXES = ("src/sim/simulator.", "src/net/udp")

# The only src/ files that may open files: the file-backed StableStorage
# volume, and the obs exporters that dump metrics and traces.
FILE_IO_HOMES = ("src/recovery/storage.", "src/obs/flight.", "src/obs/metrics.",
                 "src/obs/perfetto.", "src/obs/trace.")

# Directories where container iteration order becomes packet order.
ORDERING_DIRS = ("src/net/", "src/routing/", "src/discovery/",
                 "src/transactions/", "src/scheduling/")

# The code a Runtime crash() destroys while the engine keeps running: an
# event armed here must be cancellable by its owner.
TIMER_OWNER_DIRS = ("src/transport/", "src/routing/", "src/discovery/",
                    "src/transactions/", "src/scheduling/", "src/apps/",
                    "src/node/")

ANNOTATION_RE = re.compile(r"ndsm-lint:\s*allow\(([a-z-]+)\)\s*:?\s*(.*)")

WALL_CLOCK_RE = re.compile(
    r"std::chrono::(?:system|steady|high_resolution)_clock"
    r"|\bgettimeofday\b|\bclock_gettime\b"
    r"|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)"
    r"|\blocaltime\b|\bgmtime\b")
RAW_RANDOM_RE = re.compile(r"std::random_device|\bsrand\s*\(|\brand\s*\(")
UNORDERED_DECL_RE = re.compile(r"unordered_(?:map|set)\s*<.*>\s*(\w+)\s*(?:;|=|\{)")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(.*?:\s*(?:\w+\s*(?:\.|->)\s*)*(\w+)\s*\)")
BEGIN_CALL_RE = re.compile(r"(\w+)\s*(?:\.|->)\s*c?begin\s*\(")
RAW_CONCURRENCY_RE = re.compile(
    r"std::(?:jthread|thread|mutex|timed_mutex|recursive_mutex"
    r"|recursive_timed_mutex|shared_mutex|shared_timed_mutex"
    r"|scoped_lock|lock_guard|unique_lock|shared_lock"
    r"|condition_variable(?:_any)?|atomic(?:_\w+)?|async|future|promise"
    r"|packaged_task|barrier|latch|counting_semaphore|binary_semaphore"
    r"|stop_token|stop_source)\b"
    r"|#\s*include\s*<(?:thread|mutex|shared_mutex|atomic"
    r"|condition_variable|future|barrier|latch|semaphore|stop_token)>")
FILE_IO_RE = re.compile(r"std::(?:i|o)?fstream\b|\bfopen\b")
# A statement that starts with a timer call: its EventId is dropped. The
# call continues a statement when the line above ends in one of
# CONTINUATION_ENDINGS (`id =` then the call on the next line).
DROPPED_TIMER_RE = re.compile(
    r"^\s*(?:\(void\)\s*)?(?:\w+(?:\(\))?\s*(?:\.|->)\s*)*schedule_(?:after|at)\s*\(")
CONTINUATION_ENDINGS = ("=", "(", ",", "?", "return")
NEW_RE = re.compile(r"\bnew\b")
DELETE_RE = re.compile(r"\bdelete\b")
DELETED_FN_RE = re.compile(r"=\s*delete\b|\boperator\s+(?:new|delete)\b")
ASSERT_RE = re.compile(r"\bassert\s*\(")
METRIC_CALL_RE = re.compile(r"\.(?:counter|gauge|histogram|set_labels)\(\s*\"([^\"]*)\"")
METRIC_STRIPPED_RE = re.compile(r"\.(?:counter|gauge|histogram|set_labels)\(")
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
COMPARISON_RE = re.compile(r"==|!=|<=|>=")
SIDE_EFFECT_RE = re.compile(r"\+\+|--|=")
# Names declared (or taken as parameters) with type serialize::Reader.
# `\bReader\b` cannot match inside identifiers like WalReader, so only
# true Reader declarations seed the name set — Writer shares every method
# name, and resolving through declarations is what keeps `w.varint(x)`
# encode calls out of this rule.
READER_DECL_RE = re.compile(r"\b(?:serialize::)?Reader\s*&?\s+(\w+)\b")
READER_METHODS = (r"(?:u8|u16|u32|u64|varint|svarint|f64|boolean"
                  r"|str|str_view|bytes|bytes_view|vec2|id)")
# A whole statement that is nothing but a primitive read: result discarded.
READER_DISCARD_RE = re.compile(
    rf"^\s*(?:\(void\)\s*)?(\w+)\.{READER_METHODS}(?:<[\w:]+>)?\s*\([^()]*\)\s*;")
# Immediate dereference of the returned optional: *r.u64() / r.id<T>()->…
READER_DEREF_RE = re.compile(rf"\*\s*(\w+)\.{READER_METHODS}(?:<[\w:]+>)?\s*\(")
READER_ARROW_RE = re.compile(
    rf"\b(\w+)\.{READER_METHODS}(?:<[\w:]+>)?\s*\([^()]*\)\s*->")


class Violation:
    def __init__(self, path, line, rule, message):
        self.path, self.line, self.rule, self.message = path, line, rule, message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Blank out comments and string/char literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = None  # None | 'line' | 'block' | '"' | "'"
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state is None:
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c in ('"', "'"):
                state = c
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = None
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = None
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string/char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == state:
                state = None
            out.append(c if c == "\n" else " ")
        i += 1
    return "".join(out)


def parse_annotations(lines, path, violations):
    """Map line number -> set of allowed rules; flag reason-less allows."""
    allows = {}
    for ln, line in enumerate(lines, 1):
        m = ANNOTATION_RE.search(line)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            violations.append(Violation(
                path, ln, "bare-allow",
                f"allow({rule}) without a written reason"))
            continue
        allows.setdefault(ln, set()).add(rule)
    return allows


def allowed(allows, ln, rule):
    return rule in allows.get(ln, ()) or rule in allows.get(ln - 1, ())


def extract_assert_arg(code_lines, ln, col):
    """Balanced-paren argument of an assert starting at (ln, col), joined."""
    depth = 0
    arg = []
    for row in range(ln - 1, min(ln + 4, len(code_lines))):
        text = code_lines[row]
        start = col if row == ln - 1 else 0
        for i in range(start, len(text)):
            ch = text[i]
            if ch == "(":
                depth += 1
                if depth == 1:
                    continue
            elif ch == ")":
                depth -= 1
                if depth == 0:
                    return "".join(arg)
            if depth >= 1:
                arg.append(ch)
    return "".join(arg)


def decls_for(path, cache, kind):
    """Declared names of `kind` in `path` and its .hpp/.cpp twin."""
    names = set()
    stem, _ = os.path.splitext(path)
    for ext in CXX_EXTENSIONS:
        twin = stem + ext
        if twin in cache:
            names |= cache[twin][kind]
    return names


def collect_decls(code_text):
    return {
        "unordered": set(UNORDERED_DECL_RE.findall(code_text)),
        "reader": set(READER_DECL_RE.findall(code_text)),
    }


def lint_file(root, rel, decl_cache, violations):
    path = os.path.join(root, rel)
    try:
        with open(path, encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        violations.append(Violation(rel, 0, "io", f"cannot read: {e}"))
        return
    raw_lines = raw.splitlines()
    allows = parse_annotations(raw_lines, rel, violations)
    code = strip_comments_and_strings(raw)
    code_lines = code.splitlines()

    clock_exempt = rel.startswith(CLOCK_EXEMPT_PREFIXES)
    concurrency_exempt = rel.startswith(CONCURRENCY_EXEMPT_PREFIXES)
    ordering = rel.startswith(ORDERING_DIRS)
    timer_owner = rel.startswith(TIMER_OWNER_DIRS)
    in_src = rel.startswith("src/")
    file_io_rule = in_src and not rel.startswith(FILE_IO_HOMES)
    unordered_names = decls_for(rel, decl_cache, "unordered") if ordering else set()
    # The serialize module is the one place raw primitive reads are the
    # point (the Reader implementation and its immediate composites).
    reader_rule = in_src and not rel.startswith("src/serialize/")
    reader_names = decls_for(rel, decl_cache, "reader") if reader_rule else set()

    for ln, line in enumerate(code_lines, 1):
        if not clock_exempt:
            m = WALL_CLOCK_RE.search(line)
            if m and not allowed(allows, ln, "wall-clock"):
                violations.append(Violation(
                    rel, ln, "wall-clock",
                    f"wall-clock read `{m.group(0)}` outside src/sim — "
                    "use sim::Simulator::now()"))
            m = RAW_RANDOM_RE.search(line)
            if m and not allowed(allows, ln, "raw-random"):
                violations.append(Violation(
                    rel, ln, "raw-random",
                    f"non-deterministic source `{m.group(0).strip()}` — "
                    "use a seeded common/rng stream"))

        if not concurrency_exempt:
            m = RAW_CONCURRENCY_RE.search(line)
            if m and not allowed(allows, ln, "raw-concurrency"):
                violations.append(Violation(
                    rel, ln, "raw-concurrency",
                    f"raw threading primitive `{m.group(0).strip()}` outside "
                    "the engine core — parallelism goes through a sharded "
                    "sim::Simulator (src/sim/simulator.hpp)"))

        if ordering:
            iter_names = ([m.group(1) for m in RANGE_FOR_RE.finditer(line)]
                          + [m.group(1) for m in BEGIN_CALL_RE.finditer(line)])
            for name in iter_names:
                if name in unordered_names and not allowed(allows, ln, "unordered-iter"):
                    violations.append(Violation(
                        rel, ln, "unordered-iter",
                        f"iteration over unordered container `{name}` in a "
                        "message-ordering path — hash-bucket order leaks into "
                        "packet order; use std::map or annotate with a reason"))

        if timer_owner and DROPPED_TIMER_RE.match(line):
            above = next((code_lines[i].strip() for i in range(ln - 2, -1, -1)
                          if code_lines[i].strip()), "")
            if (not above.endswith(CONTINUATION_ENDINGS)
                    and not allowed(allows, ln, "untracked-timer")):
                violations.append(Violation(
                    rel, ln, "untracked-timer",
                    "timer armed without keeping its EventId — it runs after "
                    "its owner is gone; keep and cancel it, or hold the "
                    "delivery in a net::RequestTable"))

        if file_io_rule:
            m = FILE_IO_RE.search(line)
            if m and not allowed(allows, ln, "file-io"):
                violations.append(Violation(
                    rel, ln, "file-io",
                    f"file I/O `{m.group(0)}` outside src/recovery/storage.* and "
                    "the src/obs exporters — durable state goes through a "
                    "file-backed recovery::StableStorage"))

        if not DELETED_FN_RE.search(line):
            if NEW_RE.search(line) and not allowed(allows, ln, "raw-new-delete"):
                violations.append(Violation(
                    rel, ln, "raw-new-delete",
                    "raw `new` — use std::make_unique/make_shared"))
            if DELETE_RE.search(line) and not allowed(allows, ln, "raw-new-delete"):
                violations.append(Violation(
                    rel, ln, "raw-new-delete",
                    "raw `delete` — owning pointers must be smart pointers"))

        for m in ASSERT_RE.finditer(line):
            arg = extract_assert_arg(code_lines, ln, m.end() - 1)
            neutral = COMPARISON_RE.sub(" ", arg)
            if SIDE_EFFECT_RE.search(neutral) and not allowed(allows, ln, "assert-side-effect"):
                violations.append(Violation(
                    rel, ln, "assert-side-effect",
                    "assert() argument has a side effect — NDEBUG builds "
                    "strip it, changing behaviour between build types"))

        if reader_names:
            m = READER_DISCARD_RE.match(line)
            if (m and m.group(1) in reader_names
                    and not allowed(allows, ln, "unchecked-reader")):
                violations.append(Violation(
                    rel, ln, "unchecked-reader",
                    f"discarded result of `{m.group(1)}.<read>()` — a "
                    "truncated frame passes silently and desynchronises the "
                    "decode; check the optional or annotate why it cannot fail"))
            for m in READER_DEREF_RE.finditer(line):
                if (m.group(1) in reader_names
                        and not allowed(allows, ln, "unchecked-reader")):
                    violations.append(Violation(
                        rel, ln, "unchecked-reader",
                        f"unguarded `*{m.group(1)}.<read>()` — the optional is "
                        "empty on truncated/hostile input and the dereference "
                        "is UB; bind and check it first"))
            for m in READER_ARROW_RE.finditer(line):
                if (m.group(1) in reader_names
                        and not allowed(allows, ln, "unchecked-reader")):
                    violations.append(Violation(
                        rel, ln, "unchecked-reader",
                        f"unguarded `{m.group(1)}.<read>()->` — the optional is "
                        "empty on truncated/hostile input and the dereference "
                        "is UB; bind and check it first"))

        if in_src and METRIC_STRIPPED_RE.search(line):
            # The call is detected on comment-stripped code, but the name
            # itself must come from the raw line (literals are blanked).
            for m in METRIC_CALL_RE.finditer(raw_lines[ln - 1]):
                name = m.group(1)
                if not METRIC_NAME_RE.match(name) and not allowed(allows, ln, "metric-name"):
                    violations.append(Violation(
                        rel, ln, "metric-name",
                        f'metric name "{name}" does not follow the dotted '
                        "lowercase `component.metric` convention"))


def scan_tree(root):
    """All lintable files under root, relative with / separators."""
    rels = []
    for top in SCAN_DIRS:
        for dirpath, _dirnames, filenames in os.walk(os.path.join(root, top)):
            for fn in sorted(filenames):
                if fn.endswith(CXX_EXTENSIONS):
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


def run_lint(root, rels=None):
    rels = rels if rels is not None else scan_tree(root)
    decl_cache = {}
    # Load declarations for every linted file AND its .hpp/.cpp twin, so
    # a members-in-header / loop-in-source pair is caught even when only
    # one of the two files was passed on the command line.
    to_parse = set(rels)
    for rel in rels:
        stem, _ = os.path.splitext(rel)
        for ext in CXX_EXTENSIONS:
            if os.path.isfile(os.path.join(root, stem + ext)):
                to_parse.add(stem + ext)
    for rel in sorted(to_parse):
        try:
            with open(os.path.join(root, rel), encoding="utf-8") as f:
                decl_cache[rel] = collect_decls(strip_comments_and_strings(f.read()))
        except OSError:
            decl_cache[rel] = {"unordered": set(), "reader": set()}
    violations = []
    for rel in rels:
        lint_file(root, rel, decl_cache, violations)
    return violations


# --- self-test ---------------------------------------------------------------

SELF_TEST_CASES = [
    # (relative path, content, set of rules expected to fire)
    # Durable file I/O outside its home fires; the file-backed volume and
    # the obs exporters are that home.
    ("src/apps/own_log.cpp",
     "#include <fstream>\n"
     "void f() { std::ofstream out(\"app.log\", std::ios::app); }\n",
     {"file-io"}),
    ("src/recovery/storage.cpp",
     "#include <fstream>\n"
     "void f() { std::ifstream in(\"volume\"); }\n",
     set()),
    ("src/milan/clocky.cpp",
     "void f() { auto t = std::chrono::steady_clock::now(); }\n",
     {"wall-clock"}),
    ("tests/rng_test.cpp",
     "int f() { return rand(); }\n",
     {"raw-random"}),
    ("src/routing/bad_iter.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> table_;\n"
     "int f() { int s = 0; for (auto& [k, v] : table_) s += v; return s; }\n",
     {"unordered-iter"}),
    ("src/routing/iter_via_header.cpp",
     "#include \"iter_via_header.hpp\"\n"
     "int g(C& c) { int s = 0; for (auto& [k, v] : c.seen_) s += v; return s; }\n",
     {"unordered-iter"}),
    # The fault-injection layer must stay deterministic: src/net/faults.*
    # is NOT clock-exempt, so wall-clock reads and raw randomness there
    # are violations (fault draws must come from the forked sim RNG).
    ("src/net/faults_clock.cpp",
     "#include <chrono>\n"
     "#include <random>\n"
     "long f() { return std::chrono::system_clock::now().time_since_epoch().count(); }\n"
     "unsigned g() { std::random_device rd; return rd(); }\n",
     {"wall-clock", "raw-random"}),
    ("src/net/leaky.cpp",
     "int* f() { return new int(7); }\n"
     "void g(int* p) { delete p; }\n",
     {"raw-new-delete"}),
    # Raw threading primitives outside the engine core: both the include
    # and the use sites fire.
    ("src/net/threaded.cpp",
     "#include <mutex>\n"
     "#include <thread>\n"
     "std::mutex m_;\n"
     "std::atomic<int> n_{0};\n"
     "void f() { std::thread t([] {}); t.join(); }\n",
     {"raw-concurrency"}),
    # ...but the engine core itself is the sanctioned home...
    ("src/sim/simulator.cpp",
     "#include <condition_variable>\n"
     "#include <mutex>\n"
     "#include <thread>\n"
     "std::mutex m_;\n"
     "std::condition_variable cv_;\n",
     set()),
    # ...and only the engine core: another src/sim file still fires.
    ("src/sim/sim_helper.cpp",
     "#include <mutex>\n"
     "std::mutex m_;\n",
     {"raw-concurrency"}),
    # An annotated, reasoned exception passes (e.g. a bench reading
    # hardware_concurrency without ever creating a thread).
    ("bench/hw_probe.cpp",
     "// ndsm-lint: allow(raw-concurrency): only reads hardware_concurrency\n"
     "#include <thread>\n"
     "unsigned f() {\n"
     "  // ndsm-lint: allow(raw-concurrency): only reads hardware_concurrency\n"
     "  return std::thread::hardware_concurrency();\n"
     "}\n",
     set()),
    ("src/common/sneaky.cpp",
     "#include <cassert>\n"
     "void f(int x) { assert(x++ > 0); }\n",
     {"assert-side-effect"}),
    ("src/obs/badmetric.cpp",
     "void f(M& metrics_) { metrics_.counter(\"BadName\", nullptr); }\n",
     {"metric-name"}),
    ("src/net/bare.cpp",
     "// ndsm-lint: allow(raw-new-delete):\n"
     "int* f() { return new int; }\n",
     {"bare-allow", "raw-new-delete"}),
    # Suppressions with reasons, and clean code: nothing may fire.
    ("src/net/clean.cpp",
     "#include <map>\n"
     "#include <memory>\n"
     "std::map<int, int> table_;\n"
     "// ndsm-lint: allow(raw-new-delete): exercising the annotation path\n"
     "int* f() { return new int; }\n"
     "int g() { int s = 0; for (auto& [k, v] : table_) s += v; return s; }\n"
     "auto h() { return std::make_unique<int>(3); }\n",
     set()),
    ("src/discovery/annotated_iter.cpp",
     "#include <unordered_map>\n"
     "std::unordered_map<int, int> pending_;\n"
     "// ndsm-lint: allow(unordered-iter): order-insensitive teardown\n"
     "int f() { int s = 0; for (auto& [k, v] : pending_) s += v; return s; }\n",
     set()),
    # The sim/clock exemption: same constructs, exempt path.
    ("src/sim/clock_src.cpp",
     "void f() { auto t = std::chrono::steady_clock::now(); (void)rand(); }\n",
     set()),
    # The real-socket backend (src/net/udp*) is clock- and
    # concurrency-exempt: real time, entropy and threads are its job.
    ("src/net/udp_stack_selftest.cpp",
     "#include <thread>\n"
     "#include <chrono>\n"
     "#include <random>\n"
     "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n"
     "unsigned g() { std::random_device rd; return rd(); }\n"
     "std::thread worker_;\n",
     set()),
    # ...but the exemption is exactly src/net/udp*: the rest of net/ and
    # everything above the seam (transport, routing) stays banned — the
    # middleware must run identically on the sim and the UDP backend, so
    # it may not read real clocks or spawn threads itself.
    ("src/net/world_wallclock.cpp",
     "long f() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n",
     {"wall-clock"}),
    ("src/transport/retry_wallclock.cpp",
     "#include <chrono>\n"
     "long rto() { return std::chrono::system_clock::now().time_since_epoch().count(); }\n",
     {"wall-clock"}),
    ("src/routing/hello_thread.cpp",
     "#include <thread>\n"
     "void f() { std::thread t([] {}); t.join(); }\n",
     {"raw-concurrency"}),
    # Unchecked Reader reads: a discarded read, an immediate `*` deref and
    # an immediate `->` deref each fire; the checked bind-then-use and the
    # Writer's identically-named encode calls stay silent.
    ("src/discovery/unchecked_decode.cpp",
     "#include \"serialize/codec.hpp\"\n"
     "void f(serialize::Reader& r) {\n"
     "  r.u8();\n"
     "  (void)r.varint();\n"
     "  auto n = *r.u64();\n"
     "  auto id = r.id<NodeId>()->value();\n"
     "  (void)n; (void)id;\n"
     "}\n"
     "void g(serialize::Writer& w) {\n"
     "  w.u8(1);\n"
     "  w.varint(7);\n"
     "}\n"
     "bool ok(serialize::Reader& r) {\n"
     "  const auto v = r.u32();\n"
     "  if (!v) return false;\n"
     "  return *v > 0;\n"
     "}\n",
     {"unchecked-reader"}),
    # The zero-copy bytes_view() is a Reader read like any other, in a
    # module with no per-module clang-tidy backstop: a discarded call and
    # an immediate deref each fire on their own.
    ("src/routing/discarded_view.cpp",
     "#include \"serialize/codec.hpp\"\n"
     "void f(serialize::Reader& r) {\n"
     "  r.bytes_view();\n"
     "}\n",
     {"unchecked-reader"}),
    ("src/routing/deref_view.cpp",
     "#include \"serialize/codec.hpp\"\n"
     "std::size_t f(serialize::Reader& r) { return (*r.bytes_view()).size(); }\n",
     {"unchecked-reader"}),
    # The deref pattern is caught through the .hpp/.cpp twin: the Reader
    # member is declared in the header, the bad read in the source.
    ("src/transport/decode_via_header.cpp",
     "#include \"decode_via_header.hpp\"\n"
     "std::uint64_t D::seq() { return *reader_.varint(); }\n",
     {"unchecked-reader"}),
    # A reasoned allow() on a kind-byte skip passes (the peek_kind idiom).
    ("src/discovery/peeked_kind.cpp",
     "#include \"serialize/codec.hpp\"\n"
     "void f(serialize::Reader& r) {\n"
     "  // ndsm-lint: allow(unchecked-reader): kind byte validated by peek\n"
     "  (void)r.u8();\n"
     "}\n",
     set()),
    # src/serialize/ itself is exempt: raw primitive reads are the point.
    ("src/serialize/reader_impl_selftest.cpp",
     "#include \"serialize/codec.hpp\"\n"
     "namespace serialize {\n"
     "std::uint8_t peek(Reader& r) { return *r.u8(); }\n"
     "}\n",
     set()),
    # A timer whose EventId is dropped fires; one annotated with a reason,
    # one assigned across a line break, and one outside the torn-down
    # directories (the World outlives its events) do not.
    ("src/transport/dropped_timer.cpp",
     "void f(S& stack) {\n"
     "  stack.schedule_after(0, [] {});\n"
     "}\n",
     {"untracked-timer"}),
    ("src/discovery/annotated_timer.cpp",
     "void f(S& stack) {\n"
     "  // ndsm-lint: allow(untracked-timer): the stack outlives its events\n"
     "  stack.schedule_after(0, [] {});\n"
     "}\n",
     set()),
    ("src/apps/assigned_timer.cpp",
     "void f(S& stack, EventId& id) {\n"
     "  id =\n"
     "      stack.schedule_after(0, [] {});\n"
     "}\n",
     set()),
    ("src/net/world_timer.cpp",
     "void f(S& sim) {\n"
     "  sim.schedule_at(5, [] {});\n"
     "}\n",
     set()),
    # The tracing layer is NOT exempt: trace ids and event timestamps must
    # come from the sim clock and the deterministic id allocator, never
    # wall time or raw randomness — otherwise traced and untraced runs
    # diverge and the ON-vs-OFF digest contract breaks.
    ("src/obs/trace_wallclock.cpp",
     "#include <chrono>\n"
     "#include <random>\n"
     "long stamp() { return std::chrono::steady_clock::now().time_since_epoch().count(); }\n"
     "unsigned long span_id() { std::random_device rd; return rd(); }\n",
     {"wall-clock", "raw-random"}),
]

SELF_TEST_HEADERS = {
    "src/routing/iter_via_header.hpp":
        "#include <unordered_map>\n"
        "struct C { std::unordered_map<int, int> seen_; };\n",
    "src/transport/decode_via_header.hpp":
        "#include \"serialize/codec.hpp\"\n"
        "struct D { serialize::Reader reader_; std::uint64_t seq(); };\n",
}


def self_test():
    failures = []
    with tempfile.TemporaryDirectory(prefix="ndsm_lint_selftest_") as tmp:
        for rel, content in SELF_TEST_HEADERS.items():
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        for rel, content, _expected in SELF_TEST_CASES:
            os.makedirs(os.path.join(tmp, os.path.dirname(rel)), exist_ok=True)
            with open(os.path.join(tmp, rel), "w", encoding="utf-8") as f:
                f.write(content)
        violations = run_lint(tmp)
        by_file = {}
        for v in violations:
            by_file.setdefault(v.path, set()).add(v.rule)
        for rel, _content, expected in SELF_TEST_CASES:
            got = by_file.get(rel, set())
            if got != expected:
                failures.append(f"{rel}: expected rules {sorted(expected)}, got {sorted(got)}")
        for rel in SELF_TEST_HEADERS:
            if by_file.get(rel):
                failures.append(f"{rel}: header unexpectedly flagged {sorted(by_file[rel])}")
    if failures:
        print("ndsm_lint self-test FAILED:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"ndsm_lint self-test OK ({len(SELF_TEST_CASES)} cases)")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                    help="repo root to lint (default: the script's parent repo)")
    ap.add_argument("--self-test", action="store_true",
                    help="inject one violation per rule and assert each is caught")
    ap.add_argument("files", nargs="*",
                    help="optional root-relative files to lint instead of the whole tree")
    args = ap.parse_args()

    if args.self_test:
        return self_test()

    rels = [f.replace(os.sep, "/") for f in args.files] or None
    violations = run_lint(args.root, rels)
    for v in violations:
        print(v)
    if violations:
        print(f"\nndsm_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print(f"ndsm_lint: clean ({len(rels if rels is not None else scan_tree(args.root))} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
