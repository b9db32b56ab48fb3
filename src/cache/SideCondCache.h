//===- cache/SideCondCache.h - Persistent side-condition store --*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cross-run half of the side-condition solver cache: a
/// content-addressed store of SMT check() results, implementing the
/// smt::SolverCache interface so warm re-verification skips SAT entirely.
///
/// Keys are 128-bit fingerprints over the solver's canonical *printed* goal
/// closure (sorted goals plus sorted free-variable declarations — see
/// Solver::printGoalClosure).  The printed form is builder-independent, so
/// a key matches across TermBuilders, processes, and runs.  Queries
/// discharged against an ISA model arrive through a SaltedSolverCache,
/// whose closure prefix carries cache::fingerprintModel of that model, so
/// editing the model invalidates its entries — a stale cache can only
/// miss, never lie.  Queries whose printed form would be ambiguous
/// (duplicate variable names) never reach this store.
///
/// Entries record the Sat/Unsat verdict and, for Sat, a full model of the
/// closure's variables by (name, width, value), so a hit restores
/// modelValue() behavior identical to a cold solve.  Storage is a
/// cache::EntryStore, like the trace cache's, under its own directory
/// (default resolveCacheDir() + "/sidecond"); this class is the codec.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_SIDECONDCACHE_H
#define ISLARIS_CACHE_SIDECONDCACHE_H

#include "cache/EntryStore.h"
#include "smt/Solver.h"

namespace islaris::cache {

struct SideCondConfig {
  /// Also read/write entries under dir() (one file per fingerprint).
  bool Persist = false;
  /// Store directory; empty means resolveCacheDir() + "/sidecond".
  std::string Dir;
  /// Run the clean-shutdown-marker protocol on construction (see
  /// cache/Scrub.h).  Same contract as TraceCacheConfig::ScrubOnOpen.
  bool ScrubOnOpen = false;
};

/// Thread-safe content-addressed store of side-condition results.  One
/// instance is shared by every solver of a run (suite harnesses install it
/// as the ambient store); all state sits behind one mutex, disk I/O
/// happens outside it.
class SideCondStore : public smt::SolverCache,
                      private EntryStore<smt::SolverCache::CachedResult> {
public:
  explicit SideCondStore(SideCondConfig C = SideCondConfig());

  std::optional<CachedResult> lookup(const std::string &Closure) override;
  /// Stores \p R under \p Closure's key.  A newly published entry of a
  /// SaltedSolverCache closure is recorded in its model's generation
  /// manifest (cache/Generations.h).
  void store(const std::string &Closure, const CachedResult &R) override;

  /// Same contracts as on TraceCache (see EntryStore); clearMemory lets one
  /// process demonstrate a cold-disk warm start.
  using EntryStore::clearMemory;
  using EntryStore::diskDisabled;
  using EntryStore::dir;
  using EntryStore::drainDiags;
  using EntryStore::setDiskDisabled;
  using EntryStore::size;
  using EntryStore::stats;

  /// The fingerprint \p Closure is stored under.
  static Fingerprint key(const std::string &Closure);

  /// The entry payload, one line:
  ///   (islaris-sidecond-cache 1 <keyhex> (result sat|unsat)
  ///    (model (|name| width #x..|#b..) ...))
  static std::string serializeEntry(const Fingerprint &K,
                                    const CachedResult &R);
  /// Inverse of serializeEntry; checks the embedded key against \p K.
  static bool parseEntry(const std::string &Text, const Fingerprint &K,
                         CachedResult &Out, std::string &Err);
};

/// A zero-copy view of another SolverCache that prefixes every closure with
/// a fingerprint salt before delegating.  Lets one shared store serve
/// queries discharged against different ISA models — the batch driver
/// wraps the suite store in the fingerprint of each job's model, so an
/// aarch64 pruning query can never answer a riscv64 one.  Stateless beyond the prefix; safe to construct per job.
class SaltedSolverCache : public smt::SolverCache {
public:
  SaltedSolverCache(smt::SolverCache &Inner, const Fingerprint &Salt)
      : Inner(Inner), Prefix("(salt " + Salt.toHex() + ") ") {}

  std::optional<CachedResult> lookup(const std::string &Closure) override {
    return Inner.lookup(Prefix + Closure);
  }
  void store(const std::string &Closure, const CachedResult &R) override {
    Inner.store(Prefix + Closure, R);
  }

private:
  smt::SolverCache &Inner;
  std::string Prefix;
};

/// Parses the SaltedSolverCache "(salt <32 hex>) " closure prefix into
/// \p Out; false when \p Closure is unsalted.  Exposed for the generation
/// bookkeeping and its tests.
bool extractClosureSalt(const std::string &Closure, Fingerprint &Out);

/// The process-wide ambient store consulted by newly constructed Verifiers
/// (null by default: side-condition persistence is opt-in).  Same contract
/// as ambientTraceCache: set before spawning concurrent case studies; the
/// pointer itself is not synchronized.
SideCondStore *ambientSideCondCache();
void setAmbientSideCondCache(SideCondStore *C);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_SIDECONDCACHE_H
