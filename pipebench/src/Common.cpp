//===- pipebench/src/Common.cpp - Shared benchmark plumbing ---------------===//

#include "Common.h"

#include <algorithm>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <numeric>
#include <system_error>

#include <fcntl.h>
#include <sched.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace fs = std::filesystem;

namespace pipebench {

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  if (Lo + 1 >= V.size())
    return V.back();
  double Frac = Pos - double(Lo);
  return V[Lo] + (V[Lo + 1] - V[Lo]) * Frac;
}

double minOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}
double maxOf(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::max_element(V.begin(), V.end());
}
double sumOf(const std::vector<double> &V) {
  return std::accumulate(V.begin(), V.end(), 0.0);
}

double peakRssMb() {
  rusage U{};
  ::getrusage(RUSAGE_SELF, &U);
  return double(U.ru_maxrss) / 1024.0; // ru_maxrss is in KiB on Linux
}

bool freshDir(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
  fs::create_directories(Dir, EC);
  return !EC && fs::is_directory(Dir);
}

bool ensureDir(const std::string &Dir) {
  std::error_code EC;
  fs::create_directories(Dir, EC);
  return fs::is_directory(Dir, EC);
}

void removeTree(const std::string &Dir) {
  std::error_code EC;
  fs::remove_all(Dir, EC);
}

void settleDisk(const std::string &Dir) {
  int Fd = ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (Fd < 0)
    return;
  (void)::syncfs(Fd);
  ::close(Fd);
}

namespace {

/// Seconds a fixed mix of integer arithmetic and loads from a 256 KiB table
/// takes on the calling thread: the best of three ~1 ms rounds.
double probeLoop() {
  static thread_local std::vector<uint64_t> Table(1u << 15, 1);
  double Best = 1e9;
  for (int Round = 0; Round < 3; ++Round) {
    Clock::time_point T0 = Clock::now();
    uint64_t H = 0xcbf29ce484222325ull;
    for (uint32_t I = 0; I < 200000; ++I) {
      H = (H ^ I) * 0x100000001b3ull;
      Table[H & (Table.size() - 1)] += H >> 7;
    }
    Best = std::min(Best, secondsSince(T0));
    Table[0] += H; // keeps the loop
  }
  return Best;
}

void pinThread(pid_t Tid, const std::vector<int> &Cpus) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  (void)::sched_setaffinity(Tid, sizeof(Set), &Set);
}

/// Pins every thread of this process; a thread that ends meanwhile is
/// skipped.
void pinProcess(const std::vector<int> &Cpus) {
  std::error_code EC;
  for (const fs::directory_entry &E :
       fs::directory_iterator("/proc/self/task", EC)) {
    pid_t Tid = pid_t(std::atoi(E.path().filename().c_str()));
    if (Tid > 0)
      pinThread(Tid, Cpus);
  }
}

} // namespace

Placement::Placement(unsigned W) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (::sched_getaffinity(0, sizeof(Set), &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Allowed.push_back(C);
  Chosen.assign(Allowed.size(), 0);
  Want = std::max(1u, std::min<unsigned>(W, unsigned(Allowed.size())));
}

bool Placement::refresh(double MinAgeSec) {
  if (Allowed.empty() ||
      (Calibrations && secondsSince(Last) < MinAgeSec))
    return false;
  std::vector<std::pair<double, size_t>> Speed;
  for (size_t I = 0; I < Allowed.size(); ++I) {
    pinThread(0, {Allowed[I]});
    ::sched_yield(); // lets the scheduler move this thread there
    Speed.push_back({probeLoop(), I});
  }
  std::sort(Speed.begin(), Speed.end());
  std::vector<int> Cpus;
  for (unsigned I = 0; I < Want; ++I) {
    Cpus.push_back(Allowed[Speed[I].second]);
    ++Chosen[Speed[I].second];
  }
  pinProcess(Cpus);
  ++Calibrations;
  Last = Clock::now();
  return true;
}

void Placement::release() { pinProcess(Allowed); }

std::string Placement::summary() const {
  std::string S = fmt("placement: %u of %zu vCPUs, %u calibrations; chosen",
                      Want, Allowed.size(), Calibrations);
  for (size_t I = 0; I < Allowed.size(); ++I)
    S += fmt(" cpu%d x%u", Allowed[I], Chosen[I]);
  return S;
}

namespace {

/// The host-speed loop, best of three rounds.  Runs in a forked child of a
/// possibly multi-threaded process, so it allocates with mmap only.
double memoryLoop() {
  const size_t Words = size_t(2) << 20; // 16 MiB
  void *M = ::mmap(nullptr, Words * 8, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (M == MAP_FAILED)
    return -1;
  uint64_t *T = static_cast<uint64_t *>(M);
  for (size_t I = 0; I < Words; I += 512)
    T[I] = I; // faults every page in before timing
  double Best = 1e9;
  uint64_t H = 0xcbf29ce484222325ull;
  for (int Round = 0; Round < 3; ++Round) {
    Clock::time_point T0 = Clock::now();
    for (uint32_t I = 0; I < 500000; ++I) {
      H = (H ^ I) * 0x100000001b3ull;
      T[H & (Words - 1)] += H >> 7;
    }
    Best = std::min(Best, secondsSince(T0));
  }
  T[0] += H; // keeps the loop
  return Best;
}

} // namespace

void HostSpeed::sample() {
  int Fd[2];
  if (::pipe(Fd) != 0)
    return;
  pid_t Pid = ::fork();
  if (Pid == 0) {
    ::close(Fd[0]);
    double S = memoryLoop();
    ssize_t W = ::write(Fd[1], &S, sizeof(S));
    ::_exit(W == ssize_t(sizeof(S)) ? 0 : 1);
  }
  ::close(Fd[1]);
  double S = -1;
  if (Pid > 0) {
    size_t Got = 0;
    while (Got < sizeof(S)) {
      ssize_t R = ::read(Fd[0], reinterpret_cast<char *>(&S) + Got,
                         sizeof(S) - Got);
      if (R > 0)
        Got += size_t(R);
      else if (!(R < 0 && errno == EINTR))
        break;
    }
    if (Got != sizeof(S))
      S = -1;
    while (::waitpid(Pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  ::close(Fd[0]);
  if (S > 0)
    Samples.push_back(S);
}

double HostSpeed::factor() const {
  return Samples.empty() ? 1.0 : median(Samples) / ReferenceSeconds;
}

std::string HostSpeed::summary() const {
  return fmt("host speed: %zu samples of the 16 MiB loop, min %.3f median "
             "%.3f max %.3f ms; factor %.4f (times below are divided by it)",
             Samples.size(), minOf(Samples) * 1e3, median(Samples) * 1e3,
             maxOf(Samples) * 1e3, factor());
}

std::string fmt(const char *Format, ...) {
  char Buf[1024];
  va_list Ap;
  va_start(Ap, Format);
  int N = std::vsnprintf(Buf, sizeof(Buf), Format, Ap);
  va_end(Ap);
  if (N < 0)
    return std::string();
  if (size_t(N) < sizeof(Buf))
    return std::string(Buf, size_t(N));
  std::string Out(size_t(N) + 1, '\0');
  va_start(Ap, Format);
  std::vsnprintf(Out.data(), Out.size(), Format, Ap);
  va_end(Ap);
  Out.resize(size_t(N));
  return Out;
}

} // namespace pipebench
