//===- pipebench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// The traced run's spans.  Every span is recorded by the benchmark's own
// code around a call into one layer of the program (model loaders, study
// calls, store lookup/store, the SAT interval between a store miss and its
// publish, client requests, health probes).  Spans stay in memory and are
// written once, at exit, as Chrome trace-event JSON.  Spans that belong to
// one request carry the same id.  With tracing off every entry point
// returns at once.
//
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_SPANS_H
#define PIPEBENCH_SPANS_H

#include "Common.h"

#include <string>
#include <vector>

namespace pipebench::spans {

/// Tracing is off until switched on; the traced run toggles it to time
/// the same work with and without spans.
void setEnabled(bool On);
bool enabled();

/// Records a finished span [Start, End) on the calling thread.  \p Args is
/// a JSON object body without braces (e.g. "\"server_ms\":1.5") or empty.
void record(const char *Name, const char *Layer, Clock::time_point Start,
            Clock::time_point End, uint64_t Id = 0,
            const std::string &Args = std::string());

/// A span covering the enclosing scope.
class Scope {
public:
  Scope(const char *Name, const char *Layer, uint64_t Id = 0)
      : Name(Name), Layer(Layer), Id(Id),
        Start(enabled() ? Clock::now() : Clock::time_point()) {}
  ~Scope() {
    if (enabled())
      record(Name, Layer, Start, Clock::now(), Id, Args);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
  void args(std::string A) { Args = std::move(A); }

private:
  const char *Name;
  const char *Layer;
  uint64_t Id;
  Clock::time_point Start;
  std::string Args;
};

/// Number of spans recorded so far.
size_t count();

/// Writes every span as {"traceEvents": [...]} to \p Path.
bool writeChromeTrace(const std::string &Path, std::string &Err);

/// One line per (layer, span name): count, total and self milliseconds,
/// where self time is the span's duration minus the time its child spans
/// on the same thread cover.
std::vector<std::string> selfTimeTable();

} // namespace pipebench::spans

#endif // PIPEBENCH_SPANS_H
