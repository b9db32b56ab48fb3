//===- cache/Scrub.cpp - Offline store scrub & compaction ---------------------===//

#include "cache/Scrub.h"

#include "cache/EntryStore.h" // entry layout, verification, quarantine

#include <algorithm>
#include <filesystem>
#include <fstream>

using namespace islaris;
using namespace islaris::cache;

namespace fs = std::filesystem;

namespace {

struct LiveEntry {
  std::string Path;
  uint64_t Size = 0;
  fs::file_time_type MTime;
};

void note(ScrubReport &R, support::ErrorCode Code, const std::string &Msg) {
  if (R.Diags.size() < 64)
    R.Diags.push_back(support::Diag::error(Code, "scrub", Msg));
}

uint64_t sizeOf(const std::string &P) {
  std::error_code EC;
  uint64_t S = fs::file_size(P, EC);
  return EC ? 0 : S;
}

} // namespace

ScrubReport islaris::cache::scrubStore(const ScrubOptions &O) {
  ScrubReport R;
  std::vector<std::string> Files;
  try {
    Files = storeFiles(O.Dir);
  } catch (const fs::filesystem_error &E) {
    note(R, support::ErrorCode::IoError,
         std::string("store walk failed: ") + E.what());
    return R;
  }

  std::vector<LiveEntry> Live;
  std::error_code EC;
  for (const std::string &P : Files) {
    ++R.FilesScanned;
    if (isWriterTemp(P)) {
      uint64_t S = sizeOf(P);
      if (!O.DryRun)
        fs::remove(P, EC);
      ++R.TempsRemoved;
      R.BytesReclaimed += S;
      continue;
    }
    // Anything that is not an entry (generation registry, run journals,
    // operator notes) is left alone.
    if (!isEntryFile(P))
      continue;

    support::ErrorCode Code;
    std::string Why;
    switch (checkEntryFile(O.Dir, P, Code, Why)) {
    case EntryCheck::Sound:
      Live.push_back({P, sizeOf(P), fs::last_write_time(P, EC)});
      ++R.OkEntries;
      break;
    case EntryCheck::Unreadable:
      note(R, support::ErrorCode::IoError, "unreadable entry file: " + P);
      break;
    case EntryCheck::Defective: {
      uint64_t S = sizeOf(P);
      if (!O.DryRun)
        quarantineFile(O.Dir, P);
      ++R.Quarantined;
      R.BytesReclaimed += S;
      note(R, Code, "quarantined " + Why + ": " + P);
      break;
    }
    }
  }

  for (const LiveEntry &E : Live)
    R.BytesInUse += E.Size;

  // Compaction: evict least-recently-touched entries until the store fits
  // the budget.  Always safe — a future miss recomputes and republishes.
  if (O.MaxBytes && R.BytesInUse > O.MaxBytes) {
    std::sort(Live.begin(), Live.end(),
              [](const LiveEntry &A, const LiveEntry &B) {
                return A.MTime < B.MTime;
              });
    for (const LiveEntry &E : Live) {
      if (R.BytesInUse <= O.MaxBytes)
        break;
      if (!O.DryRun)
        fs::remove(E.Path, EC);
      ++R.Evicted;
      R.BytesReclaimed += E.Size;
      R.BytesInUse -= E.Size;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Clean-shutdown marker & scrub-on-open.
//===----------------------------------------------------------------------===//

bool islaris::cache::writeCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  std::ofstream Out(fs::path(Dir) / CleanShutdownMarker,
                    std::ios::binary | std::ios::trunc);
  Out << "clean\n";
  return bool(Out);
}

bool islaris::cache::hasCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  return fs::exists(fs::path(Dir) / CleanShutdownMarker, EC);
}

void islaris::cache::clearCleanShutdownMarker(const std::string &Dir) {
  std::error_code EC;
  fs::remove(fs::path(Dir) / CleanShutdownMarker, EC);
}

QuickScrubReport islaris::cache::scrubOnOpen(const std::string &Dir,
                                             size_t MaxSpotChecks) {
  QuickScrubReport R;
  std::error_code EC;
  if (!fs::is_directory(Dir, EC))
    return R;
  if (hasCleanShutdownMarker(Dir)) {
    // The previous owner drained cleanly; consume the marker (this store is
    // live again — only a clean close rewrites it) and skip the pass.
    clearCleanShutdownMarker(Dir);
    R.WasClean = true;
    return R;
  }
  R.Ran = true;

  auto Note = [&R](support::ErrorCode Code, const std::string &Msg) {
    if (R.Diags.size() < 64)
      R.Diags.push_back(support::Diag(Code, "scrub", Msg,
                                      support::Severity::Warning));
  };

  std::vector<std::string> Files;
  try {
    Files = storeFiles(Dir);
  } catch (const fs::filesystem_error &E) {
    Note(support::ErrorCode::IoError,
         std::string("scrub-on-open walk failed: ") + E.what());
    return R;
  }
  for (const std::string &P : Files) {
    if (isWriterTemp(P)) {
      // A crashed writer's temp: never read, only reaped.
      fs::remove(P, EC);
      ++R.TempsRemoved;
      continue;
    }
    if (!isEntryFile(P) || R.EntriesChecked >= MaxSpotChecks)
      continue; // keep reaping temps, stop opening entries
    ++R.EntriesChecked;
    support::ErrorCode Code;
    std::string Why;
    if (checkEntryFile(Dir, P, Code, Why) != EntryCheck::Defective)
      continue;
    quarantineFile(Dir, P);
    ++R.Quarantined;
    Note(Code, "scrub-on-open quarantined " + Why + ": " + P);
  }
  return R;
}
