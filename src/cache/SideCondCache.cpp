//===- cache/SideCondCache.cpp - Persistent side-condition store --------------===//

#include "cache/SideCondCache.h"

#include "cache/Generations.h" // per-model entry manifests
#include "itl/Parser.h"
#include "support/Parse.h"

#include <sstream>

using namespace islaris;
using namespace islaris::cache;

/// In-memory bound of the store (entries are small: a verdict plus a few
/// model values).
static constexpr size_t SideCondMaxEntries = 1 << 16;

SideCondStore::SideCondStore(SideCondConfig C)
    : EntryStore({EntryKind::SideCond, serializeEntry, parseEntry},
                 C.Dir.empty() ? resolveCacheDir() + "/sidecond" : C.Dir,
                 SideCondMaxEntries, C.Persist, C.ScrubOnOpen) {}

Fingerprint SideCondStore::key(const std::string &Closure) {
  Fingerprinter FP;
  FP.str("islaris-sidecond");
  FP.str(Closure);
  // Two zero words close the preimage, as in every store written so far:
  // dropping them would orphan existing entries.  Model salting happens in
  // the closure itself (SaltedSolverCache).
  FP.u64(0);
  FP.u64(0);
  return FP.digest();
}

//===----------------------------------------------------------------------===//
// Serialization.
//===----------------------------------------------------------------------===//

std::string SideCondStore::serializeEntry(const Fingerprint &K,
                                          const CachedResult &R) {
  std::ostringstream OS;
  OS << "(islaris-sidecond-cache 1 " << K.toHex() << " (result "
     << (R.Sat ? "sat" : "unsat") << ") (model";
  for (const auto &[Name, Width, Bits] : R.Model)
    OS << " (|" << Name << "| " << Width << " " << Bits.toString() << ")";
  OS << "))\n";
  return OS.str();
}

static std::string stripBars(const std::string &S) {
  if (S.size() >= 2 && S.front() == '|' && S.back() == '|')
    return S.substr(1, S.size() - 2);
  return S;
}

bool SideCondStore::parseEntry(const std::string &Text, const Fingerprint &K,
                               CachedResult &Out, std::string &Err) {
  itl::SExprParser P(Text);
  auto Header = P.parse();
  if (!Header) {
    Err = "bad side-condition entry: " + P.error();
    return false;
  }
  const std::vector<itl::SExpr> &L = Header->List;
  if (Header->isAtom() || L.size() != 5 ||
      L[0].Atom != "islaris-sidecond-cache" || L[1].Atom != "1") {
    Err = "unrecognized side-condition entry header/version";
    return false;
  }
  Fingerprint FileKey;
  if (!Fingerprint::fromHex(L[2].Atom, FileKey) || FileKey != K) {
    Err = "side-condition entry key mismatch";
    return false;
  }
  if (L[3].isAtom() || L[3].List.size() != 2 ||
      L[3].List[0].Atom != "result" ||
      (L[3].List[1].Atom != "sat" && L[3].List[1].Atom != "unsat")) {
    Err = "bad result clause";
    return false;
  }
  Out.Sat = L[3].List[1].Atom == "sat";
  if (L[4].isAtom() || L[4].List.empty() || L[4].List[0].Atom != "model") {
    Err = "bad model clause";
    return false;
  }
  Out.Model.clear();
  for (size_t I = 1; I < L[4].List.size(); ++I) {
    const itl::SExpr &V = L[4].List[I];
    if (V.isAtom() || V.List.size() != 3 || !V.List[0].isAtom() ||
        !V.List[1].isAtom() || !V.List[2].isAtom()) {
      Err = "bad model binding";
      return false;
    }
    BitVec Bits;
    if (!BitVec::fromString(V.List[2].Atom, Bits)) {
      Err = "bad model value";
      return false;
    }
    // Untrusted number: reject non-numeric/negative/oversized atoms with a
    // parse error (-> miss + quarantine) instead of throwing or wrapping.
    unsigned Width = 0;
    if (!support::parseUnsigned(V.List[1].Atom, 1u << 16, Width)) {
      Err = "bad model binding width '" + V.List[1].Atom + "'";
      return false;
    }
    // A declared width 0 marks a boolean (stored as one bit); otherwise the
    // value must have exactly the declared width.
    if (Width == 0 ? Bits.width() != 1 : Bits.width() != Width) {
      Err = "model value width mismatch";
      return false;
    }
    Out.Model.emplace_back(stripBars(V.List[0].Atom), Width,
                           std::move(Bits));
  }
  return true;
}

//===----------------------------------------------------------------------===//
// Store interface.
//===----------------------------------------------------------------------===//

std::optional<smt::SolverCache::CachedResult>
SideCondStore::lookup(const std::string &Closure) {
  return EntryStore::lookup(key(Closure));
}

void SideCondStore::store(const std::string &Closure,
                          const CachedResult &R) {
  Fingerprint K = key(Closure);
  Fingerprint Salt;
  // Generation bookkeeping: attribute a newly published entry to the model
  // it was discharged against, named by the SaltedSolverCache prefix.
  if (EntryStore::insert(K, R) && extractClosureSalt(Closure, Salt))
    recordEntryGeneration(dir(), Salt, K);
}

bool islaris::cache::extractClosureSalt(const std::string &Closure,
                                        Fingerprint &Out) {
  // The SaltedSolverCache prefix: "(salt <32 hex>) ".
  constexpr std::string_view Magic = "(salt ";
  constexpr size_t HexLen = 32;
  if (Closure.size() < Magic.size() + HexLen + 2 ||
      Closure.compare(0, Magic.size(), Magic) != 0 ||
      Closure[Magic.size() + HexLen] != ')' ||
      Closure[Magic.size() + HexLen + 1] != ' ')
    return false;
  return Fingerprint::fromHex(Closure.substr(Magic.size(), HexLen), Out);
}

//===----------------------------------------------------------------------===//
// Ambient store.
//===----------------------------------------------------------------------===//

static SideCondStore *AmbientSideCond = nullptr;

SideCondStore *islaris::cache::ambientSideCondCache() {
  return AmbientSideCond;
}

void islaris::cache::setAmbientSideCondCache(SideCondStore *C) {
  AmbientSideCond = C;
}
