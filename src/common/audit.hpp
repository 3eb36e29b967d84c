#pragma once
// NDSM_AUDIT invariant layer. Configuring with -DNDSM_AUDIT=ON compiles
// in debug invariant hooks across the stack: slab/heap consistency checks
// in sim::Simulator, sampled cell-index-vs-brute-force cross-checks in
// net::World and net::ShardedWorld, port-registry and node::Runtime
// lifecycle state-machine assertions. The checks fire in every build
// type (they do not ride on assert(), which RelWithDebInfo strips via
// NDEBUG) — an audited binary aborts with a file:line diagnostic the
// moment an invariant breaks, no matter how it was compiled.
//
// The verifier bodies (Simulator::audit_verify, World::audit_verify_grid,
// ...) are compiled unconditionally so tests can invoke them directly in
// any build; NDSM_AUDIT only controls whether the hot paths call them
// automatically at sampled intervals.

#if defined(NDSM_AUDIT)
#define NDSM_AUDIT_ENABLED 1
#else
#define NDSM_AUDIT_ENABLED 0
#endif

namespace ndsm::audit {

// Print `expr`/`msg` with location to stderr and abort. Out of line so
// the macro expansion in hot paths stays a compare and a call.
[[noreturn]] void fail(const char* expr, const char* file, int line, const char* msg);

// Last-gasp hook run by fail() before aborting (flight-recorder dump).
// common cannot depend on obs, so the observability layer installs this
// function pointer at simulator construction. The hook must not throw;
// re-entrant failures during the hook skip it and abort directly.
using FailureHook = void (*)(const char* expr, const char* file, int line, const char* msg);
void set_failure_hook(FailureHook hook);

}  // namespace ndsm::audit

// Always-armed invariant check used inside the audit verifiers (and at
// the few call sites cheap enough to keep in every build).
#define NDSM_INVARIANT(expr, msg) \
  ((expr) ? static_cast<void>(0) : ::ndsm::audit::fail(#expr, __FILE__, __LINE__, msg))

// Armed only in NDSM_AUDIT builds: for checks on hot paths.
#if NDSM_AUDIT_ENABLED
#define NDSM_AUDIT_ASSERT(expr, msg) NDSM_INVARIANT(expr, msg)
#else
#define NDSM_AUDIT_ASSERT(expr, msg) static_cast<void>(0)
#endif
