//===- cache/EntryStore.cpp - Durable content-addressed entry store -----------===//

#include "cache/EntryStore.h"

#include "cache/Scrub.h"
#include "support/FaultInjector.h"

#include <cerrno>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

std::string islaris::cache::resolveCacheDir() {
  if (const char *Env = std::getenv("ISLARIS_CACHE_DIR"))
    if (*Env)
      return Env;
  return "build/.trace-cache";
}

/// ISLARIS_NO_FSYNC=1 (any non-empty value) skips the durability syncs —
/// tests and throwaway caches don't need crash safety and fsync dominates
/// their wall time on some filesystems.  Read per call: it is two libc
/// lookups, and tests toggle the variable at runtime.
static bool fsyncEnabled() {
  const char *E = std::getenv("ISLARIS_NO_FSYNC");
  return !E || !*E;
}

/// fsync on the *directory* makes the rename itself durable (POSIX persists
/// a renamed dirent only once the containing directory is synced).
static void fsyncDir(const fs::path &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (Fd >= 0) {
    ::fsync(Fd);
    ::close(Fd);
  }
}

static constexpr std::string_view TempInfix = ".tmp.";

bool islaris::cache::atomicWriteFile(const std::string &Path,
                                     const std::string &Content) {
  using support::FaultInjector;
  using support::FaultSite;
  if (FaultInjector::fire(FaultSite::DiskFull))
    return false; // injected ENOSPC: the device stays full until disarmed
  if (FaultInjector::fire(FaultSite::CacheWrite))
    return false; // injected: entry file could not be created/written
  // Injected torn write: only a prefix reaches disk, and the truncated file
  // IS published — the one failure mode rename cannot mask, standing in for
  // a crash mid-write on a filesystem that reorders data and rename.
  bool Torn = FaultInjector::fire(FaultSite::CacheTornWrite);
  std::string_view Payload(Content);
  if (Torn)
    Payload = Payload.substr(0, Payload.size() / 2);
  static std::atomic<uint64_t> Counter{0};
  std::string Tmp = Path + std::string(TempInfix) +
                    std::to_string(uint64_t(::getpid())) + "." +
                    std::to_string(
                        Counter.fetch_add(1, std::memory_order_relaxed));
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return false;
  bool WriteOk = true;
  size_t Off = 0;
  while (Off < Payload.size()) {
    ssize_t N = ::write(Fd, Payload.data() + Off, Payload.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      WriteOk = false;
      break;
    }
    Off += size_t(N);
  }
  // Sync the temp file's *data* before the rename publishes it, so a crash
  // right after the rename cannot expose a file whose blocks never hit the
  // platter.
  if (WriteOk && fsyncEnabled() && ::fsync(Fd) != 0)
    WriteOk = false;
  if (::close(Fd) != 0)
    WriteOk = false;
  if (!WriteOk) {
    std::error_code EC;
    fs::remove(Tmp, EC);
    return false;
  }
  // Crash-storm probe #1: die with the temp durable but not yet visible.  A
  // resumed run must see a clean miss (plus a stale .tmp for scrub to reap).
  if (FaultInjector::fire(FaultSite::CrashPublish))
    std::_Exit(42);
  if (FaultInjector::fire(FaultSite::CacheRename)) {
    std::error_code EC2;
    fs::remove(Tmp, EC2);
    return false; // injected: publish rename failed, temp cleaned up
  }
  std::error_code EC;
  fs::rename(Tmp, Path, EC);
  if (EC) {
    std::error_code EC2;
    fs::remove(Tmp, EC2);
    return false;
  }
  // Crash-storm probe #2: die after the rename but before the directory
  // sync — the published entry may or may not survive; either state must be
  // recoverable.
  if (FaultInjector::fire(FaultSite::CrashPublish))
    std::_Exit(42);
  if (fsyncEnabled())
    fsyncDir(fs::path(Path).parent_path());
  return !Torn;
}

//===----------------------------------------------------------------------===//
// Durability envelope.
//===----------------------------------------------------------------------===//

uint64_t islaris::cache::fnv1a64(std::string_view Data) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Data) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

static constexpr std::string_view EnvelopeMagic = "(islaris-entry ";

std::string islaris::cache::wrapDurableEntry(const std::string &Payload) {
  std::ostringstream OS;
  OS << EnvelopeMagic << DurableFormatVersion << " " << std::hex
     << std::setfill('0') << std::setw(16) << fnv1a64(Payload) << std::dec
     << " " << Payload.size() << ")\n"
     << Payload;
  return OS.str();
}

static bool isDigits(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (C < '0' || C > '9')
      return false;
  return true;
}

EnvelopeResult islaris::cache::unwrapDurableEntry(const std::string &File,
                                                  std::string &Payload) {
  if (File.empty())
    return EnvelopeResult::Empty;
  if (File.compare(0, EnvelopeMagic.size(), EnvelopeMagic) != 0)
    return EnvelopeResult::Corrupt; // no envelope header at all
  size_t NL = File.find('\n');
  if (NL == std::string::npos)
    return EnvelopeResult::Corrupt; // header torn mid-line
  // "<version> <fnv64-hex> <size>)" between the magic and the newline.
  std::string_view Header(File.data() + EnvelopeMagic.size(),
                          NL - EnvelopeMagic.size());
  size_t Sp1 = Header.find(' ');
  if (Sp1 == std::string_view::npos)
    return EnvelopeResult::Corrupt;
  size_t Sp2 = Header.find(' ', Sp1 + 1);
  if (Sp2 == std::string_view::npos || Header.empty() ||
      Header.back() != ')')
    return EnvelopeResult::Corrupt;
  std::string_view Ver = Header.substr(0, Sp1);
  std::string_view Sum = Header.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  std::string_view Size = Header.substr(Sp2 + 1, Header.size() - Sp2 - 2);
  if (!isDigits(Ver))
    return EnvelopeResult::Corrupt;
  if (Ver != std::to_string(DurableFormatVersion))
    return EnvelopeResult::BadVersion; // don't guess at future layouts
  if (Sum.size() != 16 || !isDigits(Size))
    return EnvelopeResult::Corrupt;
  uint64_t WantSum = std::strtoull(std::string(Sum).c_str(), nullptr, 16);
  uint64_t WantSize = std::strtoull(std::string(Size).c_str(), nullptr, 10);
  std::string_view Body(File.data() + NL + 1, File.size() - NL - 1);
  if (Body.size() != WantSize || fnv1a64(Body) != WantSum)
    return EnvelopeResult::Corrupt; // truncated or bit-flipped payload
  Payload.assign(Body);
  return EnvelopeResult::Ok;
}

support::ErrorCode islaris::cache::envelopeErrorCode(EnvelopeResult R) {
  switch (R) {
  case EnvelopeResult::BadVersion:
    return support::ErrorCode::CacheVersionMismatch;
  case EnvelopeResult::Corrupt:
    return support::ErrorCode::ChecksumMismatch;
  case EnvelopeResult::Ok:
  case EnvelopeResult::Empty:
    break;
  }
  return support::ErrorCode::CorruptCacheEntry;
}

/// The Diag wording of a non-Ok envelope verdict.
static const char *envelopeProblem(EnvelopeResult R) {
  switch (R) {
  case EnvelopeResult::Empty:
    return "zero-length entry file";
  case EnvelopeResult::BadVersion:
    return "entry written by an unknown format version";
  case EnvelopeResult::Ok:
  case EnvelopeResult::Corrupt:
    break;
  }
  return "entry checksum did not verify (torn or corrupt)";
}

bool islaris::cache::quarantineFile(const std::string &Dir,
                                    const std::string &Path) {
  std::error_code EC;
  fs::path Dest = fs::path(Dir) / "quarantine" / fs::path(Path).filename();
  fs::create_directories(Dest.parent_path(), EC);
  if (!EC) {
    // rename overwrites an existing corpse of the same name: keeping the
    // latest is enough for post-mortem, and it cannot accumulate unboundedly.
    fs::rename(Path, Dest, EC);
    if (!EC)
      return true;
  }
  fs::remove(Path, EC);
  return !fs::exists(Path, EC);
}

//===----------------------------------------------------------------------===//
// Entry layout.
//===----------------------------------------------------------------------===//

static const char *extensionOf(EntryKind Kind) {
  return Kind == EntryKind::Trace ? ".itc" : ".scc";
}

static bool isLowerHex(std::string_view S) {
  if (S.empty())
    return false;
  for (char C : S)
    if (!((C >= '0' && C <= '9') || (C >= 'a' && C <= 'f')))
      return false;
  return true;
}

std::string islaris::cache::entryPath(const std::string &Dir,
                                      const Fingerprint &K, EntryKind Kind) {
  std::string Hex = K.toHex();
  return Dir + "/" + Hex.substr(0, 2) + "/" + Hex + extensionOf(Kind);
}

/// Parses an entry file name "<32 hex><ext>" into its key and kind.
static bool parseEntryName(const std::string &Path, Fingerprint &K,
                           EntryKind &Kind) {
  fs::path P(Path);
  std::string Ext = P.extension().string();
  std::string Stem = P.stem().string();
  for (EntryKind EK : EntryKinds)
    if (Ext == extensionOf(EK) && isLowerHex(Stem) &&
        Fingerprint::fromHex(Stem, K)) {
      Kind = EK;
      return true;
    }
  return false;
}

std::vector<std::string> islaris::cache::storeFiles(const std::string &Dir) {
  std::vector<std::string> Files;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return Files;
  fs::recursive_directory_iterator It(
      Dir, fs::directory_options::skip_permission_denied);
  for (auto End = fs::end(It); It != End; ++It) {
    if (It->is_directory()) {
      std::string D = It->path().filename().string();
      if (!(D.size() == 2 && isLowerHex(D)))
        It.disable_recursion_pending();
      continue;
    }
    if (It->is_regular_file())
      Files.push_back(It->path().string());
  }
  return Files;
}

bool islaris::cache::isWriterTemp(const std::string &Path) {
  return fs::path(Path).filename().string().find(TempInfix) !=
         std::string::npos;
}

bool islaris::cache::isEntryFile(const std::string &Path) {
  Fingerprint K;
  EntryKind Kind;
  return parseEntryName(Path, K, Kind);
}

EntryCheck islaris::cache::checkEntryFile(const std::string &Dir,
                                          const std::string &Path,
                                          support::ErrorCode &Code,
                                          std::string &Why) {
  Fingerprint K;
  EntryKind Kind;
  if (!parseEntryName(Path, K, Kind))
    return EntryCheck::Unreadable; // precondition violated; nothing to read
  std::string Text;
  {
    std::ifstream In(Path, std::ios::binary);
    if (!In)
      return EntryCheck::Unreadable;
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Text = Buf.str();
  }
  std::string Payload;
  EnvelopeResult V = unwrapDurableEntry(Text, Payload);
  if (V != EnvelopeResult::Ok) {
    Code = envelopeErrorCode(V);
    Why = envelopeProblem(V);
    return EntryCheck::Defective;
  }
  Code = support::ErrorCode::CorruptCacheEntry;
  if (Payload.find(K.toHex()) == std::string::npos) {
    Why = "entry payload does not carry the key its name promises";
    return EntryCheck::Defective;
  }
  std::error_code EC;
  if (fs::weakly_canonical(Path, EC) !=
      fs::weakly_canonical(entryPath(Dir, K, Kind), EC)) {
    Why = "entry is not at its shard path";
    return EntryCheck::Defective;
  }
  return EntryCheck::Sound;
}

//===----------------------------------------------------------------------===//
// EntryStoreBase.
//===----------------------------------------------------------------------===//

static constexpr size_t MaxDiags = 64;

EntryStoreBase::EntryStoreBase(EntryKind Kind, std::string Dir, bool Persist,
                               bool ScrubOnOpen)
    : Kind(Kind), Directory(std::move(Dir)), Persist(Persist) {
  if (Persist && ScrubOnOpen) {
    // Unclean-shutdown detection: no marker means the previous owner died
    // mid-flight — reap its temps and spot-check entries before the first
    // lookup can trip over a torn file.
    QuickScrubReport R = scrubOnOpen(Directory);
    St.CorruptRemoved += R.Quarantined;
    St.Quarantined += R.Quarantined;
    for (support::Diag &D : R.Diags)
      noteDiag(std::move(D));
  }
}

void EntryStoreBase::noteDiag(support::Diag D) {
  if (Diags.size() < MaxDiags)
    Diags.push_back(std::move(D));
}

CacheStats EntryStoreBase::stats() const {
  std::lock_guard<std::mutex> L(Mu);
  return St;
}

std::vector<support::Diag> EntryStoreBase::drainDiags() {
  std::lock_guard<std::mutex> L(Mu);
  std::vector<support::Diag> Out;
  Out.swap(Diags);
  return Out;
}

void EntryStoreBase::discardCorrupt(const std::string &Path,
                                    support::ErrorCode Code,
                                    const std::string &Why) {
  // Treat as a miss AND displace the file: publishing is first-writer-wins,
  // so leaving the corpse in place would shadow every future rewrite of
  // this key.  The corpse moves to dir()/quarantine/ for post-mortem.
  bool Freed = quarantineFile(Directory, Path);
  std::lock_guard<std::mutex> L(Mu);
  if (Freed) {
    ++St.CorruptRemoved;
    ++St.Quarantined;
  }
  noteDiag(support::Diag::error(Code, "cache", Why + ": " + Path));
}

void EntryStoreBase::noteWriteFailure(const std::string &Path) {
  // Every failed publish counts, whatever the cause — islarisd's degraded-
  // mode detector watches this counter, not the one-time Diag below, which
  // only fires when the directory really is unwritable/uncreatable (a
  // FaultInjector-failed publish into a healthy directory is a different,
  // already-attributed event).
  {
    std::lock_guard<std::mutex> L(Mu);
    ++St.WriteFailures;
    if (WarnedUnwritable)
      return;
  }
  std::string Parent = fs::path(Path).parent_path().string();
  if (::access(Parent.c_str(), W_OK) == 0)
    return;
  std::lock_guard<std::mutex> L(Mu);
  if (WarnedUnwritable)
    return;
  WarnedUnwritable = true;
  noteDiag(support::Diag::error(
      support::ErrorCode::IoError, "cache",
      "store directory is not writable, running uncached: " + Directory));
}

bool EntryStoreBase::readPayload(const Fingerprint &K, std::string &Payload,
                                 std::string &Path) {
  if (!Persist || diskDisabled())
    return false; // degraded mode: leave the failing device alone
  if (support::FaultInjector::fire(support::FaultSite::CacheRead))
    return false; // injected read failure: degrade to a miss
  Path = entryPath(Directory, K, Kind);
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buf;
  Buf << In.rdbuf();
  // Verify the durability envelope *before* parsing: a checksum or version
  // mismatch is attributed precisely instead of surfacing as whatever parse
  // error the garbage happens to trigger.
  EnvelopeResult R = unwrapDurableEntry(Buf.str(), Payload);
  if (R == EnvelopeResult::Ok)
    return true;
  discardCorrupt(Path, envelopeErrorCode(R), envelopeProblem(R));
  return false;
}

bool EntryStoreBase::claimPath(const Fingerprint &K, std::string &Path) {
  if (!Persist || diskDisabled())
    return false; // degraded mode: serve from memory, stop hammering disk
  Path = entryPath(Directory, K, Kind);
  std::error_code EC;
  fs::create_directories(fs::path(Path).parent_path(), EC);
  if (EC) {
    noteWriteFailure(Path);
    return false;
  }
  return !fs::exists(Path, EC);
}

bool EntryStoreBase::publish(const std::string &Path,
                             const std::string &Payload) {
  // Write-to-temp + rename keeps concurrent writers from exposing partial
  // files; racing writers produce identical content anyway.
  if (!atomicWriteFile(Path, wrapDurableEntry(Payload))) {
    noteWriteFailure(Path);
    return false;
  }
  std::lock_guard<std::mutex> L(Mu);
  ++St.DiskWrites;
  return true;
}
