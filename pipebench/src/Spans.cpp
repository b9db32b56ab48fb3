//===- pipebench/src/Spans.cpp - In-memory span recorder ------------------===//

#include "Spans.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>

namespace pipebench::spans {

namespace {

struct Span {
  const char *Name;
  const char *Layer;
  Clock::time_point Start, End;
  uint64_t Id;
  unsigned Tid;
  std::string Args;
};

std::atomic<bool> On{false};
const Clock::time_point Epoch = Clock::now();
std::mutex Mu;
std::vector<Span> Log; // guarded by Mu

unsigned threadId() {
  static std::atomic<unsigned> Next{1};
  thread_local unsigned Tid = Next.fetch_add(1);
  return Tid;
}

double usSinceEpoch(Clock::time_point T) {
  return std::chrono::duration<double, std::micro>(T - Epoch).count();
}

std::string jsonEscape(const std::string &S) {
  std::string O;
  for (char C : S) {
    if (C == '"' || C == '\\')
      O += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    O += C;
  }
  return O;
}

} // namespace

void setEnabled(bool V) { On.store(V); }
bool enabled() { return On.load(std::memory_order_relaxed); }

void record(const char *Name, const char *Layer, Clock::time_point Start,
            Clock::time_point End, uint64_t Id, const std::string &Args) {
  if (!enabled())
    return;
  Span S{Name, Layer, Start, End, Id, threadId(), Args};
  std::lock_guard<std::mutex> L(Mu);
  Log.push_back(std::move(S));
}

size_t count() {
  std::lock_guard<std::mutex> L(Mu);
  return Log.size();
}

bool writeChromeTrace(const std::string &Path, std::string &Err) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    Err = "cannot write " + Path;
    return false;
  }
  std::lock_guard<std::mutex> L(Mu);
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t I = 0; I < Log.size(); ++I) {
    const Span &S = Log[I];
    std::string A = "\"id\":" + std::to_string(S.Id);
    if (!S.Args.empty())
      A += "," + S.Args;
    std::fprintf(F,
                 "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{%s}}\n",
                 I ? "," : "", jsonEscape(S.Name).c_str(),
                 jsonEscape(S.Layer).c_str(), usSinceEpoch(S.Start),
                 std::max(0.0, usSinceEpoch(S.End) - usSinceEpoch(S.Start)),
                 S.Tid, A.c_str());
  }
  std::fprintf(F, "]}\n");
  bool Ok = std::fflush(F) == 0;
  Ok = std::fclose(F) == 0 && Ok;
  if (!Ok)
    Err = "short write to " + Path;
  return Ok;
}

std::vector<std::string> selfTimeTable() {
  std::vector<Span> All;
  {
    std::lock_guard<std::mutex> L(Mu);
    All = Log;
  }
  // Per thread, sorted by start (longest first on ties), a stack of open
  // ancestors gives each span its direct parent.
  std::sort(All.begin(), All.end(), [](const Span &A, const Span &B) {
    if (A.Tid != B.Tid)
      return A.Tid < B.Tid;
    if (A.Start != B.Start)
      return A.Start < B.Start;
    return A.End > B.End;
  });
  std::vector<double> Self(All.size());
  std::vector<size_t> Stack;
  for (size_t I = 0; I < All.size(); ++I) {
    if (I && All[I].Tid != All[I - 1].Tid)
      Stack.clear();
    while (!Stack.empty() && All[Stack.back()].End <= All[I].Start)
      Stack.pop_back();
    double Dur = secondsBetween(All[I].Start, All[I].End);
    Self[I] = Dur;
    if (!Stack.empty())
      Self[Stack.back()] -= Dur;
    Stack.push_back(I);
  }
  struct Row {
    uint64_t N = 0;
    double Total = 0, Self = 0;
  };
  std::map<std::string, Row> Rows;
  for (size_t I = 0; I < All.size(); ++I) {
    Row &R = Rows[std::string(All[I].Layer) + "/" + All[I].Name];
    ++R.N;
    R.Total += secondsBetween(All[I].Start, All[I].End);
    R.Self += Self[I];
  }
  std::vector<std::string> Out;
  Out.push_back(fmt("%-32s %9s %12s %12s", "layer/span", "count",
                    "total_ms", "self_ms"));
  for (const auto &[K, R] : Rows)
    Out.push_back(fmt("%-32s %9llu %12.3f %12.3f", K.c_str(),
                      (unsigned long long)R.N, R.Total * 1e3, R.Self * 1e3));
  return Out;
}

} // namespace pipebench::spans
