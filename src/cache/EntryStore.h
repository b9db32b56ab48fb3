//===- cache/EntryStore.h - Durable content-addressed entry store -*- C++ -*-===//
//
// Part of Islaris-CPP (PLDI 2022 "Islaris" reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one module that knows how persistent store entries live on disk.
/// TraceCache and SideCondStore are typed codecs over EntryStore<V>; the
/// scrubber and generation GC ask this module for entry names and paths.
///
/// Layout: one file per entry, sharded into 256 fan-out directories keyed
/// on the leading fingerprint byte so suite-scale stores never pile tens of
/// thousands of files into one directory:
///
///   <dir>/<first 2 hex>/<32 hex key>.itc   trace entries
///   <dir>/<first 2 hex>/<32 hex key>.scc   side-condition entries
///
/// Every file is its payload wrapped in a versioned, checksummed envelope
///
///   (islaris-entry <version> <fnv64-hex> <payload-size>)\n<payload>
///
/// so readers verify integrity before any parser sees the bytes.  A file
/// that fails the envelope — torn, bit-flipped, empty, unknown version, or
/// missing the header altogether — is a miss: it moves to <dir>/quarantine/
/// with an attributed Diag, and the next store of that key republishes it
/// (publishing is first-writer-wins through an atomic rename, so a corpse
/// left in place would shadow the key forever).  The model-fingerprint salt
/// rides inside the payload: both codecs embed the full content-addressed
/// key and verify it against the probe key on read.
///
//===----------------------------------------------------------------------===//

#ifndef ISLARIS_CACHE_ENTRYSTORE_H
#define ISLARIS_CACHE_ENTRYSTORE_H

#include "cache/Fingerprint.h"
#include "support/Diag.h"

#include <atomic>
#include <list>
#include <mutex>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace islaris::cache {

/// Resolves the on-disk cache location: $ISLARIS_CACHE_DIR if set and
/// non-empty, else "build/.trace-cache" (relative to the working
/// directory, which for the tier-1 flow is the repository root).
std::string resolveCacheDir();

/// Atomically publishes \p Content at \p Path via write-to-temp + rename.
/// The temp suffix combines the pid with a process-wide monotonic counter,
/// so concurrent writers — in this process or another one sharing the cache
/// directory — never collide on the temp name; on any failure the temp file
/// is removed rather than left orphaned.  The temp file is fsync'd before
/// the rename and the parent directory after it, so a crash after
/// atomicWriteFile returns cannot lose or tear the published file; set
/// ISLARIS_NO_FSYNC=1 to skip both syncs (tests, throwaway caches).
/// Returns false if \p Path could not be published (the caller treats that
/// as "no entry written").
bool atomicWriteFile(const std::string &Path, const std::string &Content);

//===----------------------------------------------------------------------===//
// Durability envelope (also framing the run journal's checksum).
//===----------------------------------------------------------------------===//

/// Current on-disk entry format version.  Version 1 was the headerless
/// pre-envelope format; such files now fail the envelope as Corrupt.
inline constexpr unsigned DurableFormatVersion = 2;

/// 64-bit FNV-1a over \p Data (the envelope checksum).
uint64_t fnv1a64(std::string_view Data);

/// Outcome of validating a store file's durability envelope.
enum class EnvelopeResult {
  Ok,         ///< checksum verified; payload extracted.
  BadVersion, ///< header present but written by an unknown format version.
  Corrupt,    ///< no header, truncated header/payload, or checksum mismatch.
  Empty,      ///< zero-length file (e.g. crash between create and write).
};

/// Wraps \p Payload in the versioned, checksummed envelope.
std::string wrapDurableEntry(const std::string &Payload);

/// Validates \p File's envelope; on Ok, \p Payload receives the entry
/// payload.  Never throws; any malformed input maps to a non-Ok result.
EnvelopeResult unwrapDurableEntry(const std::string &File,
                                  std::string &Payload);

/// Maps a non-Ok envelope verdict onto the Diag error code suite
/// aggregation reports (Empty -> CorruptCacheEntry, Corrupt ->
/// ChecksumMismatch, BadVersion -> CacheVersionMismatch).
support::ErrorCode envelopeErrorCode(EnvelopeResult R);

/// Moves the corrupt file at \p Path into \p Dir/quarantine/ (creating the
/// subdirectory as needed), freeing the path so first-writer-wins publishing
/// can heal the entry while preserving the corpse for post-mortem.  Falls
/// back to deleting the file when the move fails.  Returns true if the path
/// was freed either way.
bool quarantineFile(const std::string &Dir, const std::string &Path);

//===----------------------------------------------------------------------===//
// Entry layout, for the scrubber and generation GC.
//===----------------------------------------------------------------------===//

/// The entry kinds a store directory can hold, one file extension each.
enum class EntryKind : uint8_t { Trace, SideCond };
inline constexpr EntryKind EntryKinds[] = {EntryKind::Trace,
                                           EntryKind::SideCond};

/// Path of \p K's entry of kind \p Kind in the store rooted at \p Dir.
std::string entryPath(const std::string &Dir, const Fingerprint &K,
                      EntryKind Kind);

/// The regular files of the store rooted at \p Dir: those at the root and
/// in its shard directories.  Anything else under the root — quarantine/,
/// manifests/, a sibling store nested there (sidecond/ under the trace
/// root) — is not this store's.  A missing directory has no files.  Throws
/// std::filesystem::filesystem_error when the walk fails.
std::vector<std::string> storeFiles(const std::string &Dir);

/// True for a writer's temp file ("<entry>.tmp.<pid>.<n>"), which a crash
/// between create and rename leaves behind; never read, only reaped.
bool isWriterTemp(const std::string &Path);

/// True when \p Path's file name has an entry's shape ("<32 hex>.itc" or
/// "<32 hex>.scc"), wherever it sits.
bool isEntryFile(const std::string &Path);

enum class EntryCheck {
  Sound,      ///< envelope verifies, payload carries its key, sits in place.
  Unreadable, ///< the file could not be opened.
  Defective,  ///< must not be served; the Code/Why outputs say why.
};

/// Verifies the entry file \p Path found under store root \p Dir without
/// parsing it: the envelope must verify, the payload must embed the key
/// the file name promises (a renamed or cross-linked file would otherwise
/// answer the wrong key), and the file must sit at entryPath() — a flat or
/// wrong-shard placement is never looked up, so it is only dead weight.
/// Requires isEntryFile(Path).
EntryCheck checkEntryFile(const std::string &Dir, const std::string &Path,
                          support::ErrorCode &Code, std::string &Why);

//===----------------------------------------------------------------------===//
// The store.
//===----------------------------------------------------------------------===//

/// Counters of store behavior, surfaced through GenStats, bench_cache and
/// islarisd's stats.
struct CacheStats {
  uint64_t Hits = 0;       ///< In-memory lookups that found an entry.
  uint64_t DiskHits = 0;   ///< Memory misses satisfied from disk.
  uint64_t Misses = 0;     ///< Lookups satisfied nowhere.
  uint64_t Insertions = 0; ///< insert() calls that stored a new entry.
  uint64_t Evictions = 0;  ///< Entries dropped by the LRU bound.
  uint64_t DiskWrites = 0; ///< Entry files written.
  /// Corrupt on-disk entries displaced on read (self-repair: publishing is
  /// first-writer-wins, so a torn entry left in place would never heal).
  uint64_t CorruptRemoved = 0;
  /// Corrupt entries preserved under dir()/quarantine/ for post-mortem
  /// instead of being deleted outright (a subset of CorruptRemoved).
  uint64_t Quarantined = 0;
  /// Entry publishes that failed (directory unwritable, device full, rename
  /// refused).  islarisd watches this to flip into cache-off degraded mode
  /// instead of emitting one error per request.
  uint64_t WriteFailures = 0;
};

/// The untyped half of an entry store: the directory, envelope-checked
/// loads with quarantine, first-writer-wins publishing, write-failure
/// accounting, the degraded-mode switch, bounded diagnostics, and the
/// counters.  State sits behind one mutex; disk I/O happens outside it.
class EntryStoreBase {
public:
  EntryStoreBase(const EntryStoreBase &) = delete;
  EntryStoreBase &operator=(const EntryStoreBase &) = delete;

  CacheStats stats() const;
  /// Returns and clears the diagnostics accumulated by disk I/O (corrupt
  /// entries, unwritable directory).  Bounded: at most 64 are kept between
  /// drains so a corrupt store cannot balloon memory.
  std::vector<support::Diag> drainDiags();
  /// The directory persistent entries live in (valid even when persistence
  /// is off, for diagnostics).
  const std::string &dir() const { return Directory; }
  bool persistent() const { return Persist; }

  /// Degraded-mode switch: while disabled, lookups never touch disk and
  /// inserts never publish, but the in-memory LRU keeps working — the
  /// daemon's answer to a full or failing device is "serve from memory,
  /// stop hammering the disk" rather than one error per request.  Counters
  /// and existing on-disk entries are untouched; re-enabling resumes normal
  /// persistence (first-writer-wins fills any holes).
  void setDiskDisabled(bool Off) {
    DiskDisabled.store(Off, std::memory_order_relaxed);
  }
  bool diskDisabled() const {
    return DiskDisabled.load(std::memory_order_relaxed);
  }

protected:
  /// With \p ScrubOnOpen (and \p Persist), runs the clean-shutdown-marker
  /// protocol of cache/Scrub.h before first use.  Otherwise touches no
  /// file: in-memory stores are built on hot paths.
  EntryStoreBase(EntryKind Kind, std::string Dir, bool Persist,
                 bool ScrubOnOpen);

  /// Reads \p K's file and verifies its envelope.  False when persistence
  /// is off or disabled, the file is absent, or it failed the envelope (then
  /// quarantined).  \p Path receives the file's path.
  bool readPayload(const Fingerprint &K, std::string &Payload,
                   std::string &Path);
  /// Quarantines the corrupt file at \p Path and records a bounded Diag.
  void discardCorrupt(const std::string &Path, support::ErrorCode Code,
                      const std::string &Why);
  /// First half of a publish: true, with \p Path, when \p K's file should
  /// be written — persistence on and enabled, shard directory present, and
  /// no file there yet (entries are immutable: first writer wins).
  bool claimPath(const Fingerprint &K, std::string &Path);
  /// Second half: publishes \p Payload, enveloped, at \p Path.  True when
  /// this call wrote a new file.
  bool publish(const std::string &Path, const std::string &Payload);

  mutable std::mutex Mu;
  CacheStats St; ///< Guarded by Mu.

private:
  /// Requires Mu held.
  void noteDiag(support::Diag D);
  /// Counts a failed publish, plus a one-time Diag when the directory is
  /// unwritable (never silently run uncached).
  void noteWriteFailure(const std::string &Path);

  const EntryKind Kind;
  const std::string Directory;
  const bool Persist;
  std::atomic<bool> DiskDisabled{false};
  bool WarnedUnwritable = false;        ///< Guarded by Mu.
  std::vector<support::Diag> Diags;     ///< Guarded by Mu.
};

/// A thread-safe key -> \p V store: an LRU-bounded memory map of decoded
/// values (a memory hit costs no re-parse) over the optional disk layer.
/// The codec turns values into entry payloads and back; parse failures on
/// load are quarantined like envelope failures.
template <typename V> class EntryStore : public EntryStoreBase {
public:
  struct Codec {
    EntryKind Kind;
    std::string (*Serialize)(const Fingerprint &K, const V &Val);
    /// Must check the key embedded in \p Text against \p K.
    bool (*Parse)(const std::string &Text, const Fingerprint &K, V &Out,
                  std::string &Err);
  };

  EntryStore(const Codec &C, std::string Dir, size_t MaxEntries, bool Persist,
             bool ScrubOnOpen)
      : EntryStoreBase(C.Kind, std::move(Dir), Persist, ScrubOnOpen), C(C),
        MaxEntries(MaxEntries) {}

  /// Looks up \p K in memory, then (when persistent) on disk.  A disk hit
  /// is promoted into memory.
  std::optional<V> lookup(const Fingerprint &K) {
    {
      std::lock_guard<std::mutex> L(Mu);
      auto It = Map.find(K);
      if (It != Map.end()) {
        Lru.splice(Lru.begin(), Lru, It->second.LruIt);
        ++St.Hits;
        return It->second.Value;
      }
    }
    std::string Payload, Path, Err;
    if (readPayload(K, Payload, Path)) {
      V Val;
      if (C.Parse(Payload, K, Val, Err)) {
        std::lock_guard<std::mutex> L(Mu);
        ++St.DiskHits;
        if (!Map.count(K))
          remember(K, Val);
        return Val;
      }
      discardCorrupt(Path, support::ErrorCode::CorruptCacheEntry, Err);
    }
    std::lock_guard<std::mutex> L(Mu);
    ++St.Misses;
    return std::nullopt;
  }

  /// Stores \p Val under \p K (most-recently-used position) and, when
  /// persistent, publishes it.  Re-inserting a key refreshes its recency
  /// but keeps the first value.  Returns true when this call published a
  /// new entry file.
  bool insert(const Fingerprint &K, const V &Val) {
    {
      std::lock_guard<std::mutex> L(Mu);
      auto It = Map.find(K);
      if (It != Map.end()) {
        // Entries are immutable by content-addressing; refresh recency.
        Lru.splice(Lru.begin(), Lru, It->second.LruIt);
        return false;
      }
      remember(K, Val);
      ++St.Insertions;
    }
    std::string Path;
    return claimPath(K, Path) && publish(Path, C.Serialize(K, Val));
  }

  /// Drops all in-memory entries (disk files are kept).  Counters survive.
  void clearMemory() {
    std::lock_guard<std::mutex> L(Mu);
    Map.clear();
    Lru.clear();
  }

  size_t size() const {
    std::lock_guard<std::mutex> L(Mu);
    return Map.size();
  }

private:
  /// Caches \p Val as most recently used, evicting past the bound.
  /// Requires Mu held and \p K absent.
  void remember(const Fingerprint &K, const V &Val) {
    Lru.push_front(K);
    Map.emplace(K, Slot{Val, Lru.begin()});
    while (Map.size() > MaxEntries) {
      Map.erase(Lru.back());
      Lru.pop_back();
      ++St.Evictions;
    }
  }

  struct Slot {
    V Value;
    std::list<Fingerprint>::iterator LruIt;
  };
  const Codec C;
  const size_t MaxEntries;
  std::unordered_map<Fingerprint, Slot, FingerprintHash> Map; ///< Guarded by Mu.
  std::list<Fingerprint> Lru; ///< Front = most recently used; guarded by Mu.
};

} // namespace islaris::cache

#endif // ISLARIS_CACHE_ENTRYSTORE_H
