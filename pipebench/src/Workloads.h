//===- pipebench/src/Workloads.h - The benchmark's workloads ----*- C++ -*-===//
//
// suite_cold / suite_warm (Suite.cpp) and daemon_mixed (Daemon.cpp).  Each
// runs its set-up, measures for RunArgs::Seconds, checks every output, and
// runs its checkers' self-test on planted faults.
//
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_WORKLOADS_H
#define PIPEBENCH_WORKLOADS_H

#include "Common.h"

#include "cache/SideCondCache.h"
#include "frontend/CaseStudies.h"

#include <mutex>

namespace pipebench {

/// Every per-layer metric, printed by every workload so the traced runs
/// all report the same set; a layer a workload does not reach reads 0.
struct LayerMetrics {
  double SailParseMs = 0;
  double IslaGenS = 0, IslaTracesExecuted = 0, IslaStmts = 0,
         IslaFreshMsP50 = 0;
  double SmtSatS = 0, SmtSatSharePct = 0, SmtSatCalls = 0,
         SmtSatQueryP50Ms = 0, SmtSatQueryMaxMs = 0, SmtSideS = 0;
  double SeplogicAutoS = 0, SeplogicEntailments = 0, SeplogicEvents = 0;
  double CacheScLookupS = 0, CacheScLookups = 0, CacheScHits = 0,
         CacheScStoreS = 0, CacheScStores = 0;
  double CacheTraceHits = 0, CacheTraceDiskHits = 0, CacheTraceMisses = 0,
         CacheTraceDiskWrites = 0;
  double ServerWireMsP50 = 0, ServerWarmMsP50 = 0, ServerStudyMsP50 = 0,
         ServerQueueDepthMax = 0, ServerExecuted = 0, ServerWarmHits = 0;
  /// Traced run only: how much slower the traced half ran than the
  /// untraced half of the same run.
  double TraceOverheadPct = 0;
};
void addLayerMetrics(Outcome &O, const LayerMetrics &L);

Outcome runSuiteWorkload(const RunArgs &A, bool Warm);
Outcome runDaemonWorkload(const RunArgs &A);

/// A side-condition store that times every lookup and publish, and the
/// interval between a lookup that misses and the publish that follows on
/// the same thread: the solver's bit-blast + SAT call for that query.
class ProbeStore : public islaris::cache::SideCondStore {
public:
  using SideCondStore::SideCondStore;

  std::optional<CachedResult> lookup(const std::string &Closure) override;
  void store(const std::string &Closure, const CachedResult &R) override;

  struct Counters {
    uint64_t Lookups = 0, Hits = 0, Stores = 0;
    /// Publishes of proof-engine queries (closures without the executor's
    /// model-salt prefix).
    uint64_t ProofStores = 0;
    double LookupS = 0, StoreS = 0, SatS = 0;
    std::vector<double> SatMs; ///< One entry per miss->store interval.
  };
  Counters counters() const;

private:
  mutable std::mutex Mu;
  Counters C; // guarded by Mu
};

/// Parses both ISA models and returns the seconds it took: through the
/// process-wide loaders on round 0 (their one real parse, reported as
/// sail.parse_ms), through sail::parseModel on later rounds so every
/// set-up round does the same work.
double parseModels(unsigned Round);

/// The fields a cached re-verification must reproduce exactly.
bool sameProofShape(const islaris::frontend::CaseResult &A,
                    const islaris::frontend::CaseResult &B);

/// Study latency as the program reports it: trace generation plus proof.
double studyMs(const islaris::frontend::CaseResult &R);

} // namespace pipebench

#endif // PIPEBENCH_WORKLOADS_H
