/**
 * @file
 * Deterministic, seeded fault-injection registry.
 *
 * Robustness paths — a full disk, an EIO mid-read, a dropped socket, a
 * job that throws mid-run — are unreachable in a healthy test
 * environment, so they rot. This registry makes them reachable on
 * demand: each injectable failure point in the codebase is a named
 * *site* (see Site), and a spec string assigns each site an
 * independent failure probability plus one global seed:
 *
 *     disk.write=0.02,engine.execute=0.01@seed=7
 *
 * `loas_cli --fault-spec` (run/sweep/serve/request) and the
 * LOAS_FAULT_SPEC environment variable (picked up at CLI start, for
 * tests and CI) both feed configure().
 *
 * Decisions are deterministic: the verdict of the n-th check of a
 * site is a pure function of (seed, site, n), so two runs with the
 * same spec and the same per-site call sequence inject the same
 * faults. Under concurrency the *assignment* of verdicts to callers
 * can vary with interleaving, but the number of injections per N
 * checks cannot.
 *
 * Cost contract: when no spec is configured (the production state),
 * shouldFail() is one relaxed atomic load and a branch — no locks, no
 * allocation, nothing on any profile. The slow path only exists once
 * configure() has armed the registry.
 *
 * Degradation policy (who handles an injected fault): disk sites
 * degrade to reject-and-recompile inside ArtifactStore/CompiledCache,
 * socket sites degrade to a dropped connection the client retries,
 * engine.execute surfaces as a structured `failed` job, cache.insert
 * degrades to "artifact not retained". No site may crash the process
 * or serve stale bytes — that is what tests/test_fault.cc and the
 * chaos-soak CI job enforce.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace loas {
namespace fault {

/** Every injectable failure point, by layer. */
enum class Site : int
{
    DiskWrite,     ///< ArtifactStore::store body write
    DiskRead,      ///< ArtifactStore::load of an existing file
    DiskRename,    ///< ArtifactStore::store publish rename
    SocketAccept,  ///< Server accept loop
    SocketRead,    ///< Server per-connection read
    SocketWrite,   ///< Server per-connection reply write
    EngineExecute, ///< SimEngine::run entry
    CacheInsert,   ///< CompiledCache in-memory insert
};

inline constexpr int kSiteCount = 8;

/** The spec-string name of `site` ("disk.write", ...). */
const char* siteName(Site site);

namespace detail {

/** Armed flag: the only state the disabled fast path touches. */
extern std::atomic<bool> g_armed;

/** Seeded per-site decision; counts the check. Armed registry only. */
bool shouldFailSlow(Site site);

} // namespace detail

/**
 * True when this site should fail now. Disabled registry: exactly one
 * relaxed atomic load (never allocates, never locks) — cheap enough
 * for every I/O call site to check unconditionally.
 */
inline bool
shouldFail(Site site)
{
    return detail::g_armed.load(std::memory_order_relaxed) &&
           detail::shouldFailSlow(site);
}

/** shouldFail(), but throws std::runtime_error naming the site. */
void maybeThrow(Site site);

/**
 * Arm the registry from a spec string:
 *
 *     site=rate[,site=rate...][@seed=N]
 *
 * Rates are in [0, 1]; unnamed sites stay at 0. An empty spec is
 * reset(). Throws std::invalid_argument on an unknown site name, a
 * malformed pair, or a rate outside [0, 1]. Not meant to race live
 * shouldFail() traffic beyond tests: configure before serving.
 */
void configure(const std::string& spec);

/**
 * configure() from $LOAS_FAULT_SPEC; returns true when the variable
 * was set (even to an invalid spec, which still throws).
 */
bool configureFromEnv();

/** Disarm every site and zero the counters. */
void reset();

/** True when a spec is configured (even one with all-zero rates). */
bool enabled();

/** Faults injected at `site` since the last configure()/reset(). */
std::uint64_t injectedCount(Site site);

/** Total faults injected across all sites. */
std::uint64_t injectedTotal();

} // namespace fault
} // namespace loas
