//===- pipebench/src/Common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Clock, seeded randomness, order statistics, the result record every
// workload fills in, and the scratch-directory helpers.
//
//===----------------------------------------------------------------------===//

#ifndef PIPEBENCH_COMMON_H
#define PIPEBENCH_COMMON_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace pipebench {

using Clock = std::chrono::steady_clock;

inline double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}
inline double secondsSince(Clock::time_point T) {
  return secondsBetween(T, Clock::now());
}

/// splitmix64: a tiny seeded generator whose stream is fixed by this file
/// alone (the standard library's distributions differ between vendors).
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, 1).
  double unit() { return double(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, N).
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t S;
};

/// Linear-interpolated quantile (the definition numpy and Python's
/// statistics module call "inclusive"); 0 for an empty sample.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) {
  return quantile(std::move(V), 0.5);
}
double minOf(const std::vector<double> &V);
double maxOf(const std::vector<double> &V);
double sumOf(const std::vector<double> &V);

/// Length plus 64-bit FNV-1a of a byte string: compares two entries
/// without keeping both in memory.
struct Digest {
  uint64_t Size = 0;
  uint64_t Fnv = 0;
  static Digest of(const std::string &S) {
    uint64_t H = 0xcbf29ce484222325ull;
    for (unsigned char C : S)
      H = (H ^ C) * 0x100000001b3ull;
    return {S.size(), H};
  }
  bool operator==(const Digest &) const = default;
};

/// Peak resident set size of this process, in MB.
double peakRssMb();

/// One reported metric.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main: operation counts plus every metric
/// it measured.  Checks that fail add to Failed; a checker that misses a
/// planted fault clears Correct.
struct Outcome {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> EndToEnd;
  std::vector<Metric> PerLayer;
  /// Human-readable report lines, printed before the result line.
  std::vector<std::string> Notes;

  void e2e(const std::string &N, double V, const std::string &U) {
    EndToEnd.push_back({N, V, U});
  }
  void layer(const std::string &N, double V, const std::string &U) {
    PerLayer.push_back({N, V, U});
  }
  void note(const std::string &S) { Notes.push_back(S); }
  /// Records one checked operation.
  void op(bool Ok) {
    ++Attempted;
    if (!Ok)
      ++Failed;
  }
};

struct RunArgs {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Per-run scratch directory (stores, sockets), relative to the
  /// checkout root so socket paths stay short.
  std::string WorkDir;
};

/// Creates (or empties) \p Dir.  False when it cannot be made.
bool freshDir(const std::string &Dir);
/// Creates \p Dir and its parents if missing, keeping what is there.
bool ensureDir(const std::string &Dir);
void removeTree(const std::string &Dir);
/// Flushes the file system that holds \p Dir (syncfs), so writes and
/// deletions made earlier, by this run or the one before it, are not
/// written back during a later timed stretch.
void settleDisk(const std::string &Dir);

/// Where the measuring threads run.  The vCPUs of a shared host do not run
/// at one speed: a busy neighbour on a sibling hyperthread slowed a fixed
/// loop by ~40% on two of four vCPUs for minutes at a time, and a thread
/// tends to stay on the vCPU it started on, so unpinned runs of identical
/// code differed by that much.  refresh() times a short fixed loop on each
/// vCPU the process may use and pins every thread of the process to the
/// fastest ones; threads started later inherit the pinning.
class Placement {
public:
  /// Pins to \p Want vCPUs (at most as many as the process may use).
  explicit Placement(unsigned Want);
  /// Recalibrates and re-pins, unless the last calibration is younger
  /// than \p MinAgeSec; true when it did.
  bool refresh(double MinAgeSec = 0);
  /// Unpins: every thread may run on every allowed vCPU again.
  void release();
  /// Calibrations made, and how often each vCPU was among the chosen.
  std::string summary() const;

private:
  std::vector<int> Allowed;
  std::vector<unsigned> Chosen; ///< Per entry of Allowed.
  unsigned Want = 1, Calibrations = 0;
  Clock::time_point Last;
};

/// How fast the host's memory system runs right now.  Over minutes the
/// whole shared host slows and recovers: the fastest cold pass of a 25 s
/// stretch ranged 1.08-1.55 s within eight minutes, whichever vCPU ran it,
/// and a fixed loop of random read-modify-writes over a 16 MiB table (the
/// size of a cold pass's working set, beyond the per-core L2) tracked it
/// (window correlation 0.8-0.9).  sample() times that loop; factor() is
/// the run's median loop time over ReferenceSeconds, the loop's median on
/// the VM the benchmark was written on.  Times divided by factor() are in
/// reference-host seconds.
class HostSpeed {
public:
  static constexpr double ReferenceSeconds = 0.0050;
  /// Times the loop once, in a child process on this thread's vCPUs so
  /// that its table does not count in this process's peak RSS.
  void sample();
  /// 1 without samples.
  double factor() const;
  std::string summary() const;

private:
  std::vector<double> Samples;
};

/// printf-style formatting into a std::string.
std::string fmt(const char *Format, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace pipebench

#endif // PIPEBENCH_COMMON_H
