//===- cache/TraceCache.h - Content-addressed ITL trace store ---*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed store of symbolic-execution results, mirroring the
/// on-disk cache the real Isla tool keeps of per-opcode traces.  Entries are
/// keyed by cache::traceCacheKey fingerprints and stored in *serialized*
/// form: the ITL trace as its printed S-expression (Figs. 3/6 syntax) plus
/// the opcode-variable names and execution statistics.  Consumers
/// materialize an entry into their own TermBuilder through itl::TraceParser,
/// so every cache hit doubles as an adequacy test of the ITL grammar
/// (print . parse == id), and results are bit-identical whether they came
/// from a fresh execution, the in-memory cache, or disk.
///
/// Storage is a cache::EntryStore: an LRU-bounded, thread-safe memory map
/// of decoded entries over optional persistence, one enveloped file per
/// entry in the sharded layout EntryStore.h describes, under a cache
/// directory (ISLARIS_CACHE_DIR env override, default build/.trace-cache).
/// This class is the trace codec on top.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_TRACECACHE_H
#define ISLARIS_CACHE_TRACECACHE_H

#include "cache/EntryStore.h"
#include "itl/Trace.h"

namespace islaris::smt {
class TermBuilder;
}

namespace islaris::cache {

/// A cached symbolic-execution result in serialized, builder-independent
/// form.
struct CacheEntry {
  /// The printed "(trace ...)" S-expression.
  std::string TraceText;
  /// Names and widths of the fresh variables standing for symbolic opcode
  /// fields, low-to-high (ExecResult::OpcodeVars).  Every name is declared
  /// by a declare-const event inside TraceText.
  std::vector<std::pair<std::string, unsigned>> OpcodeVars;
  isla::ExecStats Stats;
};

struct TraceCacheConfig {
  /// LRU bound on in-memory entries (entries, not bytes; a per-opcode trace
  /// is a few KB).
  size_t MaxEntries = 4096;
  /// Also read/write entries under dir() (one file per fingerprint).
  bool Persist = false;
  /// Cache directory; empty means resolveCacheDir().
  std::string Dir;
  /// Run the clean-shutdown-marker protocol on construction (see
  /// cache/Scrub.h): consume the marker when present, otherwise reap stale
  /// writer temps and spot-check entries before first use.
  /// Long-lived owners (islarisd) enable this; batch runs keep the seed
  /// behavior of validating entries lazily on read.
  bool ScrubOnOpen = false;
};

/// Thread-safe content-addressed trace store.  Shared by all BatchDriver
/// workers; the lookup/insert/stats/degraded-mode surface is EntryStore's.
class TraceCache : public EntryStore<CacheEntry> {
public:
  explicit TraceCache(TraceCacheConfig C = TraceCacheConfig());

  //===------------------------------------------------------------------===//
  // Serialization (also used directly by tests and the batch driver).
  //===------------------------------------------------------------------===//

  /// Serializes a successful ExecResult (trace printed, opcode vars by
  /// name).  Asserts R.Ok.
  static CacheEntry encode(const isla::ExecResult &R);

  /// Materializes \p E into \p TB: parses the trace text (creating fresh
  /// variables in \p TB) and resolves the opcode variables by name.
  /// Returns false and sets \p Err if the text does not re-parse — which
  /// would mean the ITL grammar lost information (an adequacy bug).
  static bool decode(const CacheEntry &E, smt::TermBuilder &TB,
                     isla::ExecResult &Out, std::string &Err);

  /// The entry payload: a single-line header S-expression
  ///   (islaris-trace-cache 1 <keyhex> (opcode-vars (|v| w) ...)
  ///    (stats paths pruned queries events))
  /// followed by the trace text verbatim.
  static std::string serializeEntry(const Fingerprint &K,
                                    const CacheEntry &E);
  /// Inverse of serializeEntry; checks the embedded key against \p K.
  static bool parseEntry(const std::string &Text, const Fingerprint &K,
                         CacheEntry &Out, std::string &Err);
};

/// The process-wide ambient cache consulted by newly constructed Verifiers
/// (null by default: caching is opt-in and the seed pipeline is unchanged).
/// Set it before spawning concurrent case studies; the pointer itself is
/// not synchronized.
TraceCache *ambientTraceCache();
void setAmbientTraceCache(TraceCache *C);

} // namespace islaris::cache

#endif // ISLARIS_CACHE_TRACECACHE_H
