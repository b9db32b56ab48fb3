//===- pipebench/src/main.cpp - Pipeline benchmark entry point ------------===//
//
//   pipebench --workload suite_cold|suite_warm|daemon_mixed --seed N
//             --seconds S --trace 0|1 [--outdir DIR]
//
// Runs one workload for S seconds and prints, as its last stdout line, one
// JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// A traced run also writes its spans as Chrome trace-event JSON under
// DIR/traces/ and prints each span's self time.  Stores and the daemon's
// socket live in DIR/run-<pid>/, removed at exit except for suite_warm's
// stores (~12 MB a run).  DIR defaults to
// .bench_build; keep it relative so the socket path stays short.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cerrno>
#include <string>

#include <unistd.h>

using namespace pipebench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "pipebench: %s\nusage: pipebench --workload "
               "suite_cold|suite_warm|daemon_mixed --seed N --seconds S "
               "--trace 0|1 [--outdir DIR]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *S, uint64_t &Out) {
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(S, &End, 10);
  if (errno || End == S || *End || S[0] == '-')
    return false;
  Out = V;
  return true;
}

void printJson(const Outcome &O, bool Trace) {
  const std::vector<Metric> &Ms = Trace ? O.PerLayer : O.EndToEnd;
  std::string J = fmt("{\"correct\": %s, \"attempted\": %llu, \"failed\": "
                      "%llu, \"metrics\": {",
                      O.Correct ? "true" : "false",
                      (unsigned long long)O.Attempted,
                      (unsigned long long)O.Failed);
  for (size_t I = 0; I < Ms.size(); ++I)
    J += fmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", I ? ", " : "",
             Ms[I].Name.c_str(), Ms[I].Value, Ms[I].Unit.c_str());
  J += "}}";
  std::printf("%s\n", J.c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  RunArgs A;
  std::string OutDir = ".bench_build";
  uint64_t Trace = 0, Secs = 0;
  bool HaveSeed = false, HaveSecs = false;
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return usage(("missing value for " + K).c_str());
    const char *V = Argv[++I];
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      HaveSeed = parseUnsigned(V, A.Seed);
    else if (K == "--seconds")
      HaveSecs = parseUnsigned(V, Secs) && Secs > 0 && Secs <= 3600;
    else if (K == "--trace") {
      if (!parseUnsigned(V, Trace) || Trace > 1)
        return usage("--trace takes 0 or 1");
    } else if (K == "--outdir")
      OutDir = V;
    else
      return usage(("unknown option " + K).c_str());
  }
  if (!HaveSeed || !HaveSecs)
    return usage("--seed and --seconds (1..3600) are required");
  if (A.Workload != "suite_cold" && A.Workload != "suite_warm" &&
      A.Workload != "daemon_mixed")
    return usage("unknown workload");
  A.Seconds = double(Secs);
  A.Trace = Trace == 1;
  A.WorkDir = OutDir + fmt("/run-%d", int(::getpid()));
  if (!freshDir(A.WorkDir))
    return usage(("cannot create " + A.WorkDir).c_str());
  settleDisk(A.WorkDir);

  // The stores are throwaway: disk durability on a shared VM disk is not
  // what this benchmark measures.
  ::setenv("ISLARIS_NO_FSYNC", "1", 1);
  spans::setEnabled(A.Trace);

  Outcome O = A.Workload == "daemon_mixed"
                  ? runDaemonWorkload(A)
                  : runSuiteWorkload(A, A.Workload == "suite_warm");
  // suite_warm's populated stores stay (see Suite.cpp); the other
  // workloads leave only empty directories and a socket.
  if (A.Workload != "suite_warm")
    removeTree(A.WorkDir);
  settleDisk(OutDir);

  for (const std::string &N : O.Notes)
    std::printf("%s\n", N.c_str());
  for (const Metric &M : O.EndToEnd)
    std::printf("e2e   %-26s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  for (const Metric &M : O.PerLayer)
    std::printf("layer %-26s %14.6f %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  if (A.Trace) {
    for (const std::string &L : spans::selfTimeTable())
      std::printf("%s\n", L.c_str());
    std::string Path = OutDir + fmt("/traces/%s-seed%llu.json",
                                    A.Workload.c_str(),
                                    (unsigned long long)A.Seed);
    std::string Err;
    ensureDir(OutDir + "/traces");
    if (spans::writeChromeTrace(Path, Err))
      std::printf("trace: %zu spans written to %s\n", spans::count(),
                  Path.c_str());
    else {
      std::printf("trace: %s\n", Err.c_str());
      O.Correct = false;
    }
  }
  printJson(O, A.Trace);
  return 0;
}
