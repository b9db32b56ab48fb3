//===- pipebench/src/Daemon.cpp - daemon_mixed ----------------------------===//
//
// islarisd in process on a Unix socket, driven open-loop by this process
// over at most nproc (4) connections, one generator thread each, with as
// many daemon workers; the whole process runs on the two fastest vCPUs
// (Placement).  Arrivals are
// a seeded Poisson process; every request is timed from when it was due,
// so a stalled server also charges the requests queued behind the stall.
//
//   ~90% reads:  trace requests for a primed key set, Zipf popularity;
//   ~8%  writes: trace requests for keys never requested before (a 64-path
//                symbolic execution plus a store publish);
//   ~2%  studies: named Fig. 12 studies, primed; the server runs them one
//                at a time behind its study lock.
//
// The measured window has three phases: serial warm `suite` requests, a
// fixed offered rate in parts (latency, health probes), and a bisection
// for the highest rate that keeps p99 within the limit with no growing
// backlog.  The vCPUs are re-timed before every part and every try.
// After the window the daemon stops and every response is checked against
// the library run in process without the server.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"
#include "Workloads.h"

#include "cache/BatchDriver.h"
#include "cache/Fingerprint.h"
#include "cache/TraceCache.h"
#include "itl/OpSem.h"
#include "models/Models.h"
#include "server/Client.h"
#include "server/Server.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

using namespace islaris;

namespace pipebench {
namespace {

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

constexpr unsigned SymbolicKeys = 32; ///< Primed 64-path keys.
constexpr unsigned ConcreteKeys = 32; ///< Primed fully concrete adds.
constexpr double ZipfExponent = 1.0;
constexpr double ReadShare = 0.90;
constexpr double FreshShare = 0.08; ///< The rest (2%) are study requests.
/// The fixed offered rate: about a quarter of max_rate_rps as measured
/// (1,100-1,400/s on two pinned vCPUs of a shared 4-core VM when this
/// benchmark was written).  Nearer half of it, reads queue behind fresh
/// executions whenever the host slows: at 420/s on two workers the parts'
/// req_p50_ms ranged from 1 to 15 ms.
constexpr double FixedRate = 300;
/// The fixed-rate phase runs in this many parts of >= 1,000 requests each;
/// the latency figures are the best part's.  A part's vCPUs are chosen
/// afresh, so one slow stretch of the shared host spoils one part, not the
/// run.
constexpr unsigned FixedParts = 3;
/// Each part lasts long enough for this many requests on average, so even
/// a short run has >= 1,000 requests per part (Poisson: 3 sigma).
constexpr double PartRequests = 1100;
constexpr double LatencyLimitMs = 200;
constexpr unsigned SetupRounds = 3;
/// Shares of the measured window.  The search's share assumes half of its
/// steps need their second try.
constexpr double SuiteShare = 0.10, FixedShare = 0.45, SearchShare = 0.45;
constexpr unsigned SearchSteps = 7;
/// Bisection bracket for max_rate_rps, as multiples of FixedRate.
constexpr double SearchLo = 1.0, SearchHi = 6.0;
constexpr double HealthEverySec = 0.05;
constexpr unsigned InterpStates = 4; ///< Random states per concrete key.

const char *const StudyNames[] = {"memcpy-arm", "memcpy-rv",     "hvc",
                                  "pkvm",       "unaligned",     "uart",
                                  "rbit",       "binsearch-arm", "binsearch-rv"};
constexpr unsigned NumStudies = 9;

/// add x<rd>, x<rn>, #imm{, lsl #12} with a symbolic destination register
/// and one symbolic source-register bit: 64 paths.  Key \p K selects the
/// immediate and shift, so every K is a distinct execution.
server::TraceRequest symbolicRequest(uint32_t K) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = 0x910003e0u | ((K & 0xfffu) << 10) | ((K >> 12 & 1u) << 22);
  T.SymMask = 0x3fu;
  T.Assumes.push_back({"PSTATE", "EL", 2, 2});
  T.Assumes.push_back({"PSTATE", "SP", 1, 1});
  return T;
}

/// A fully concrete add x<Rd>, x<Rn>, #Imm12{, lsl #12}.
struct ConcreteAdd {
  unsigned Rd = 0, Rn = 0, Imm12 = 0;
  bool Shift = false;
  uint32_t opcode() const {
    return 0x91000000u | (Shift ? 1u << 22 : 0u) | (Imm12 << 10) | (Rn << 5) |
           Rd;
  }
  uint64_t addend() const { return uint64_t(Imm12) << (Shift ? 12 : 0); }
};

server::TraceRequest concreteRequest(const ConcreteAdd &C) {
  server::TraceRequest T;
  T.Arch = "aarch64";
  T.Opcode = C.opcode();
  T.Assumes.push_back({"PSTATE", "EL", 2, 2});
  T.Assumes.push_back({"PSTATE", "SP", 1, 1});
  return T;
}

/// Daemon workers, generator connections and generator threads: nproc,
/// at most 4.  A connection carries one request at a time, and with two
/// workers a read waited whenever two writes ran, so at a fixed rate
/// req_p50_ms rose from 0.9 to 8-15 ms when the host slowed.
unsigned lanes() {
  return std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
}

/// The vCPUs the process runs on while it measures.  Unpinned, the
/// executions landed on the host's slower vCPUs too, and a run's latencies
/// followed which ones.
constexpr unsigned PinnedCpus = 2;

enum class Kind : uint8_t { Read, Fresh, Study };

struct Item {
  double At = 0; ///< Seconds after the phase start.
  Kind K = Kind::Read;
  uint32_t Arg = 0; ///< Primed key, fresh key index, or study index.
};

/// The seeded request stream: key popularity, mix and fresh keys.
class Inputs {
public:
  explicit Inputs(uint64_t Seed) : R(Seed) {
    Rng Pick(Seed ^ 0x5eedull);
    std::set<uint32_t> Taken;
    while (Sym.size() < SymbolicKeys) {
      uint32_t K = uint32_t(Pick.below(8192));
      if (Taken.insert(K).second)
        Sym.push_back(K);
    }
    // Fresh keys: the rest of the 8192 symbolic keys, in seeded order.
    for (uint32_t K = 0; K < 8192; ++K)
      if (!Taken.count(K))
        FreshPool.push_back(K);
    for (size_t I = FreshPool.size(); I > 1; --I)
      std::swap(FreshPool[I - 1], FreshPool[Pick.below(I)]);
    std::set<uint32_t> Ops;
    while (Conc.size() < ConcreteKeys) {
      ConcreteAdd C;
      C.Rd = unsigned(Pick.below(31));
      C.Rn = unsigned(Pick.below(31));
      C.Imm12 = unsigned(Pick.below(4096));
      C.Shift = Pick.below(2) != 0;
      if (Ops.insert(C.opcode()).second)
        Conc.push_back(C);
    }
    // Zipf over the primed keys.  The symbolic keys take ranks 1..32 and
    // the concrete ones 33..64, each group in seeded order, so that in
    // every seed ~86% of reads fetch a 64-path entry and the median read
    // is one of them.
    std::vector<unsigned> Rank;
    for (unsigned Base : {0u, SymbolicKeys}) {
      unsigned N = Base ? ConcreteKeys : SymbolicKeys;
      std::vector<unsigned> G;
      for (unsigned I = 0; I < N; ++I)
        G.push_back(Base + I);
      for (size_t I = G.size(); I > 1; --I)
        std::swap(G[I - 1], G[Pick.below(I)]);
      Rank.insert(Rank.end(), G.begin(), G.end());
    }
    double Sum = 0;
    for (unsigned I = 0; I < Rank.size(); ++I)
      Sum += 1.0 / std::pow(double(I + 1), ZipfExponent);
    double Acc = 0;
    for (unsigned I = 0; I < Rank.size(); ++I) {
      Acc += 1.0 / std::pow(double(I + 1), ZipfExponent) / Sum;
      Cdf.push_back({Acc, Rank[I]});
    }
  }

  unsigned primedKeys() const { return SymbolicKeys + ConcreteKeys; }
  server::TraceRequest primed(unsigned I) const {
    return I < SymbolicKeys ? symbolicRequest(Sym[I])
                            : concreteRequest(Conc[I - SymbolicKeys]);
  }
  const ConcreteAdd *concrete(unsigned I) const {
    return I < SymbolicKeys ? nullptr : &Conc[I - SymbolicKeys];
  }
  server::TraceRequest fresh(uint32_t I) const {
    return symbolicRequest(FreshPool[I]);
  }
  size_t freshCapacity() const { return FreshPool.size(); }
  uint32_t freshUsed() const { return NextFresh; }

  /// Poisson arrivals at \p Rate for \p Seconds.
  std::vector<Item> schedule(double Rate, double Seconds) {
    std::vector<Item> S;
    double T = 0;
    for (;;) {
      T += -std::log(1.0 - R.unit()) / Rate;
      if (T >= Seconds)
        return S;
      Item It;
      It.At = T;
      double U = R.unit();
      if (U < ReadShare) {
        It.K = Kind::Read;
        double Z = R.unit();
        auto P = std::lower_bound(
            Cdf.begin(), Cdf.end(), Z,
            [](const std::pair<double, unsigned> &E, double V) {
              return E.first < V;
            });
        It.Arg = P == Cdf.end() ? Cdf.back().second : P->second;
      } else if (U < ReadShare + FreshShare &&
                 NextFresh < FreshPool.size()) {
        It.K = Kind::Fresh;
        It.Arg = NextFresh++;
      } else {
        It.K = Kind::Study;
        It.Arg = uint32_t(R.below(NumStudies));
      }
      S.push_back(It);
    }
  }

private:
  Rng R;
  std::vector<uint32_t> Sym, FreshPool;
  std::vector<ConcreteAdd> Conc;
  std::vector<std::pair<double, unsigned>> Cdf;
  uint32_t NextFresh = 0;
};

//===----------------------------------------------------------------------===//
// Load generation
//===----------------------------------------------------------------------===//

struct Rec {
  Kind K = Kind::Read;
  bool Ok = false;
  double LatMs = 0;    ///< From due time to the done frame.
  double LateMs = 0;   ///< Send time minus due time.
  double ServerMs = 0; ///< DoneInfo::Seconds.
  std::string Source;  ///< DoneInfo::Source.
};

/// What the checks after the window need, filled by generator threads.
struct Evidence {
  std::mutex Mu;
  /// Primed key -> the text priming returned; later reads must repeat it.
  std::vector<std::string> Primed;
  /// Fresh key index -> digest of the response (one writer per index);
  /// whole 64-path entries are too large to keep for every write.
  std::vector<Digest> Fresh;
  /// Every study row received, from study and `suite` requests.
  std::vector<frontend::CaseResult> Rows;
  std::vector<std::string> Problems;

  void problem(const std::string &P) {
    std::lock_guard<std::mutex> L(Mu);
    if (Problems.size() < 8)
      Problems.push_back(P);
  }
};

struct Daemon {
  std::unique_ptr<server::Server> S;
  std::vector<std::unique_ptr<server::Client>> Conns;
  std::string Sock;
};

server::ClientOptions clientOptions() {
  server::ClientOptions O;
  O.Name = "pipebench";
  O.MaxAttempts = 1; // a failure is counted, never retried away
  return O;
}

struct Phase {
  std::vector<Rec> Recs;
  std::vector<double> QueueDepths;
  double Seconds = 0;
};

uint64_t NextSpanId = 1;

/// Issues one scheduled request on \p C and records it.
void issue(server::Client &C, const Item &It, const Inputs &In, Evidence &Ev,
           Clock::time_point Due, Rec &R, uint64_t SpanId) {
  R.K = It.K;
  Clock::time_point Sent = Clock::now();
  R.LateMs = std::max(0.0, secondsBetween(Due, Sent) * 1e3);
  std::string Err;
  server::DoneInfo Done;
  if (It.K == Kind::Study) {
    server::Client::StudyResult SR;
    R.Ok = C.runStudy(StudyNames[It.Arg], SR, Err) && SR.Ok &&
           SR.Rows.size() == 1;
    Done = SR.Done;
    if (R.Ok) {
      std::lock_guard<std::mutex> L(Ev.Mu);
      Ev.Rows.insert(Ev.Rows.end(), SR.Rows.begin(), SR.Rows.end());
    }
  } else {
    server::Client::TraceResult TR;
    server::TraceRequest Req =
        It.K == Kind::Read ? In.primed(It.Arg) : In.fresh(It.Arg);
    R.Ok = C.runTrace(Req, TR, Err) && TR.Ok;
    Done = TR.Done;
    if (R.Ok && It.K == Kind::Read && TR.EntryText != Ev.Primed[It.Arg]) {
      R.Ok = false;
      Ev.problem(fmt("read of primed key %u differs from its primed entry",
                     It.Arg));
    }
    if (R.Ok && It.K == Kind::Fresh)
      Ev.Fresh[It.Arg] = Digest::of(TR.EntryText);
  }
  Clock::time_point End = Clock::now();
  if (!R.Ok)
    Ev.problem("request failed: " + (Err.empty() ? Done.Error : Err));
  R.LatMs = secondsBetween(Due, End) * 1e3;
  R.ServerMs = Done.Seconds * 1e3;
  R.Source = Done.Source;
  if (spans::enabled()) {
    const char *Name = It.K == Kind::Study   ? "request.study"
                       : It.K == Kind::Fresh ? "request.fresh"
                                             : "request.read";
    spans::record(Name, "server", Due, End, SpanId,
                  fmt("\"server_ms\":%.3f,\"source\":\"%s\"", R.ServerMs,
                      R.Source.c_str()));
    spans::record("request.wait", "server", Due, Sent, SpanId);
    Clock::time_point SrvStart =
        End - std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(Done.Seconds));
    if (SrvStart < Sent)
      SrvStart = Sent;
    spans::record("request.server", "server", SrvStart, End, SpanId);
  }
}

/// Runs \p Sched open-loop over every connection; with \p Health, threads
/// with slack before their next due request sample the daemon's health.
Phase runPhase(Daemon &D, const std::vector<Item> &Sched, const Inputs &In,
               Evidence &Ev, bool Health) {
  Phase P;
  P.Recs.resize(Sched.size());
  std::atomic<size_t> Next{0};
  std::mutex HMu;
  std::vector<double> Depths;                  // guarded by HMu
  Clock::time_point NextHealth = Clock::now(); // guarded by HMu
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
  uint64_t IdBase = NextSpanId;
  NextSpanId += Sched.size();
  auto Worker = [&](server::Client &C) {
    for (;;) {
      size_t I = Next.fetch_add(1);
      if (I >= Sched.size())
        return;
      Clock::time_point Due =
          Start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(Sched[I].At));
      if (Health) {
        Clock::time_point Now = Clock::now();
        bool Mine = false;
        {
          std::lock_guard<std::mutex> L(HMu);
          if (Now >= NextHealth && Now + std::chrono::milliseconds(2) < Due) {
            NextHealth = Now + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(
                                       HealthEverySec));
            Mine = true;
          }
        }
        if (Mine) {
          spans::Scope S("health", "server");
          server::HealthInfo H;
          std::string Err;
          if (C.health(H, Err)) {
            std::lock_guard<std::mutex> L(HMu);
            Depths.push_back(double(H.QueueDepth));
          }
        }
      }
      std::this_thread::sleep_until(Due);
      issue(C, Sched[I], In, Ev, Due, P.Recs[I], IdBase + I);
    }
  };
  std::vector<std::thread> Ts;
  for (auto &C : D.Conns)
    Ts.emplace_back(Worker, std::ref(*C));
  for (std::thread &T : Ts)
    T.join();
  P.Seconds = secondsSince(Start);
  P.QueueDepths = std::move(Depths);
  return P;
}

std::vector<double> latencies(const std::vector<Rec> &Rs, bool FreshOnly) {
  std::vector<double> V;
  for (const Rec &R : Rs)
    if (!FreshOnly || R.K == Kind::Fresh)
      V.push_back(R.LatMs);
  return V;
}

/// A rate is sustained when p99 stays within the limit over the whole step
/// and over its last tenth (a growing backlog shows there first), with no
/// failed request.
bool sustained(const Phase &P) {
  for (const Rec &R : P.Recs)
    if (!R.Ok)
      return false;
  std::vector<double> All = latencies(P.Recs, false);
  std::vector<double> Tail(All.end() - std::ptrdiff_t(All.size() / 10),
                           All.end());
  return quantile(All, 0.99) <= LatencyLimitMs &&
         quantile(Tail, 0.99) <= LatencyLimitMs;
}

//===----------------------------------------------------------------------===//
// Daemon life cycle
//===----------------------------------------------------------------------===//

bool startDaemon(Daemon &D, const std::string &Dir, std::string &Err) {
  D.Sock = "./" + Dir + "/d.sock";
  server::ServerConfig Cfg;
  Cfg.SocketPath = D.Sock;
  Cfg.Workers = lanes();
  Cfg.MaxQueueDepth = 1u << 14;
  // In-memory stores.  With persistence every never-seen request publishes
  // ~190 side-condition files, and on a shared VM disk that made write
  // latency and max_rate_rps swing by 2x between identical runs; the
  // publish-to-disk path is measured by suite_cold instead.
  Cfg.Persist = false;
  // Bounds the resident trace cache below what one run's writes reach, so
  // peak_rss_mb does not depend on how many fresh keys the rate search
  // happened to issue.
  Cfg.CacheMaxEntries = 1024;
  D.S = std::make_unique<server::Server>(Cfg);
  if (!D.S->start(Err))
    return false;
  for (unsigned I = 0; I < lanes(); ++I) {
    auto C = std::make_unique<server::Client>(clientOptions());
    if (!C->connect(D.Sock, Err))
      return false;
    D.Conns.push_back(std::move(C));
  }
  return true;
}

void stopDaemon(Daemon &D) {
  for (auto &C : D.Conns)
    C->close();
  D.Conns.clear();
  if (D.S) {
    D.S->requestShutdown();
    D.S->wait();
    D.S.reset();
  }
}

/// Requests every primed key once (spread over the connections) and the
/// whole suite once, so reads and study requests are warm.
bool prime(Daemon &D, const Inputs &In, std::vector<std::string> &Texts,
           std::string &Err) {
  Texts.assign(In.primedKeys(), std::string());
  std::atomic<unsigned> Next{0};
  std::atomic<bool> Ok{true};
  std::vector<std::thread> Ts;
  for (auto &Conn : D.Conns)
    Ts.emplace_back([&, C = Conn.get()] {
      for (unsigned I; (I = Next.fetch_add(1)) < In.primedKeys();) {
        server::Client::TraceResult TR;
        std::string E;
        if (!C->runTrace(In.primed(I), TR, E) || !TR.Ok)
          Ok = false;
        Texts[I] = std::move(TR.EntryText);
      }
    });
  for (std::thread &T : Ts)
    T.join();
  if (!Ok) {
    Err = "priming a key failed";
    return false;
  }
  server::Client::StudyResult SR;
  if (!D.Conns.front()->runStudy("suite", SR, Err) || !SR.Ok) {
    Err = "priming the suite failed: " + Err + SR.Done.Error;
    return false;
  }
  return true;
}

uint64_t jsonCount(const std::string &J, const std::string &Key) {
  size_t P = J.find("\"" + Key + "\":");
  return P == std::string::npos
             ? 0
             : std::strtoull(J.c_str() + P + Key.size() + 3, nullptr, 10);
}

//===----------------------------------------------------------------------===//
// Checks
//===----------------------------------------------------------------------===//

/// Runs each of \p Reqs through the batch driver in process, without the
/// server, and hands \p Fn the index and the entry serialized the way the
/// server serializes it (empty when the execution failed).  Works in
/// chunks so that only a chunk of 64-path entries is in memory at once.
void referenceEntries(
    const std::vector<server::TraceRequest> &Reqs,
    smt::SolverCache *SideCond,
    const std::function<void(size_t, const cache::Fingerprint &,
                             const std::string &)> &Fn) {
  constexpr size_t Chunk = 32;
  cache::BatchDriver BD(lanes());
  for (size_t Base = 0; Base < Reqs.size(); Base += Chunk) {
    size_t N = std::min(Chunk, Reqs.size() - Base);
    std::vector<isla::Assumptions> As(N);
    std::vector<cache::TraceJob> Jobs;
    for (size_t I = 0; I < N; ++I) {
      const server::TraceRequest &Q = Reqs[Base + I];
      for (const auto &A : Q.Assumes)
        As[I].assume(itl::Reg(A.Base, A.Field), BitVec(A.Width, A.Value));
      cache::TraceJob J;
      J.Model = &models::aarch64Model();
      J.ArchName = Q.Arch;
      J.Op = isla::OpcodeSpec{BitVec(32, Q.Opcode), BitVec(32, Q.SymMask)};
      J.Assume = &As[I];
      J.Opts.CacheRegReads = Q.CacheRegReads;
      J.Opts.SinksOnly = Q.SinksOnly;
      J.Opts.MaxPaths = Q.MaxPaths;
      J.SideCond = SideCond;
      Jobs.push_back(std::move(J));
    }
    cache::TraceCache Scratch; // in memory only
    std::vector<cache::TraceJobResult> Rs = BD.run(Jobs, &Scratch);
    for (size_t I = 0; I < Rs.size(); ++I)
      Fn(Base + I, Rs[I].Key,
         Rs[I].Ok ? cache::TraceCache::serializeEntry(Rs[I].Key, Rs[I].Entry)
                  : std::string());
  }
}

/// Empty when \p Got is the in-process entry \p Want.
std::string checkEntry(const Digest &Got, const std::string &Want) {
  if (Want.empty())
    return "in-process reference execution failed";
  if (Got != Digest::of(Want))
    return "daemon entry differs from the in-process entry";
  return std::string();
}

void collectRegs(const itl::Trace &T,
                 std::vector<std::pair<itl::Reg, const smt::Term *>> &Out) {
  for (const itl::Event &E : T.Events)
    if (E.K == itl::EventKind::ReadReg || E.K == itl::EventKind::AssumeReg)
      Out.push_back({E.R, E.Val});
  for (const itl::Trace &C : T.Cases)
    collectRegs(C, Out);
}

/// Runs the daemon's trace for a concrete add under itl::Interpreter from
/// seeded random states; Xd must become Xn + imm, computed here.  Empty
/// when every state agrees.
std::string checkAddSemantics(const std::string &EntryText,
                              const cache::Fingerprint &Key,
                              const ConcreteAdd &Add, Rng &R) {
  cache::CacheEntry E;
  std::string Err;
  if (!cache::TraceCache::parseEntry(EntryText, Key, E, Err))
    return "entry does not parse: " + Err;
  smt::TermBuilder TB;
  isla::ExecResult X;
  if (!cache::TraceCache::decode(E, TB, X, Err))
    return "trace does not decode: " + Err;
  std::vector<std::pair<itl::Reg, const smt::Term *>> Regs;
  collectRegs(X.Trace, Regs);
  for (unsigned S = 0; S < InterpStates; ++S) {
    itl::MachineState M;
    uint64_t Xn = R.next();
    for (const auto &[Reg, Val] : Regs) {
      if (!Val || Val->isBool() || M.getReg(Reg))
        continue;
      if (Val->kind() == smt::Kind::ConstBV)
        M.setReg(Reg, smt::Value(Val->constBV()));
      else
        M.setReg(Reg, smt::Value(BitVec(Val->width(), R.next())));
    }
    M.setReg(itl::Reg("R" + std::to_string(Add.Rn)),
             smt::Value(BitVec(64, Xn)));
    itl::Interpreter I(TB);
    std::vector<itl::PathResult> Ps = I.runTrace(X.Trace, M);
    unsigned Top = 0;
    for (const itl::PathResult &P : Ps) {
      if (P.Out != itl::Outcome::Top)
        continue;
      ++Top;
      const smt::Value *V =
          P.Final.getReg(itl::Reg("R" + std::to_string(Add.Rd)));
      uint64_t Want = Xn + Add.addend();
      if (!V || !V->isBitVec() || V->asBitVec().toUInt64() != Want)
        return fmt("add x%u, x%u, #%llu: X%u is not Xn + imm", Add.Rd,
                   Add.Rn, (unsigned long long)Add.addend(), Add.Rd);
    }
    if (Top != 1)
      return fmt("add x%u, x%u: %u completed paths, want 1", Add.Rd, Add.Rn,
                 Top);
  }
  return std::string();
}

/// Empty when a daemon study row matches the in-process row.
std::string checkStudyRow(const frontend::CaseResult &Got,
                          const frontend::CaseResult &Want) {
  if (!Got.Ok)
    return Got.Name + " did not verify through the daemon";
  if (!sameProofShape(Got, Want))
    return Got.Name + " daemon row differs from the in-process row";
  return std::string();
}

} // namespace

Outcome runDaemonWorkload(const RunArgs &A) {
  Outcome Out;
  Inputs In(A.Seed);
  Evidence Ev;
  Daemon D;
  std::string Err;

  // --- Set-up, repeated: model parse, stores + daemon start, priming.
  std::vector<double> SetupS;
  double ParseMs = 0;
  Placement Place(PinnedCpus);
  HostSpeed Speed;
  for (unsigned Round = 0; Round < SetupRounds; ++Round) {
    std::string Dir = A.WorkDir + fmt("/setup%u", Round);
    if (!freshDir(Dir)) {
      Out.Correct = false;
      Out.note("cannot create " + Dir);
      return Out;
    }
    if (Place.refresh())
      Speed.sample();
    Clock::time_point T0 = Clock::now();
    double Parse = parseModels(Round);
    if (Round == 0)
      ParseMs = Parse * 1e3;
    if (!startDaemon(D, Dir, Err) || !prime(D, In, Ev.Primed, Err)) {
      Out.Correct = false;
      Out.note("set-up failed: " + Err);
      stopDaemon(D);
      return Out;
    }
    SetupS.push_back(secondsSince(T0));
    if (Round + 1 < SetupRounds) {
      stopDaemon(D);
      removeTree(Dir);
    }
  }
  Ev.Fresh.assign(In.freshCapacity(), Digest());
  std::string Stats0;
  (void)D.Conns.front()->getStats(Stats0, Err);

  // --- Phase 1: serial warm `suite` requests.  suite_s is built like the
  // suite workloads' from each study's fastest row; the fastest whole
  // request moved by +-20% between runs.  It runs first, before the writes
  // of the later phases fill the stores.
  std::vector<double> SuiteS;
  std::map<std::string, std::vector<double>> StudyMs; // per study, per request
  std::vector<frontend::CaseResult> FastestRows;
  {
    if (Place.refresh())
      Speed.sample();
    Clock::time_point End =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               A.Seconds * SuiteShare));
    server::Client &C = *D.Conns.front();
    for (unsigned I = 0; I < 3 || Clock::now() < End; ++I) {
      spans::Scope Sp("request.suite", "server", NextSpanId++);
      server::Client::StudyResult SR;
      Clock::time_point T0 = Clock::now();
      bool Ok = C.runStudy("suite", SR, Err) && SR.Ok &&
                SR.Rows.size() == NumStudies;
      double S = secondsSince(T0);
      Out.op(Ok);
      if (!Ok) {
        Ev.problem("suite request failed: " + Err + SR.Done.Error);
        continue;
      }
      if (SuiteS.empty() || S < minOf(SuiteS))
        FastestRows = SR.Rows;
      SuiteS.push_back(S);
      for (const frontend::CaseResult &R : SR.Rows)
        StudyMs[R.Name + "/" + R.Isa].push_back(studyMs(R));
      std::lock_guard<std::mutex> L(Ev.Mu);
      Ev.Rows.insert(Ev.Rows.end(), SR.Rows.begin(), SR.Rows.end());
    }
  }

  // --- Phase 2: fixed offered rate, in parts.  The traced run traces every
  // other part, to measure the tracing overhead.
  const double PartSec = std::max(A.Seconds * FixedShare / FixedParts,
                                  PartRequests / FixedRate);
  std::vector<Phase> Fixed, FixedTraced;
  for (unsigned Part = 0; Part < FixedParts; ++Part) {
    bool Traced = A.Trace && Part % 2 == 1;
    spans::setEnabled(Traced);
    if (Place.refresh())
      Speed.sample();
    (Traced ? FixedTraced : Fixed)
        .push_back(runPhase(D, In.schedule(FixedRate, PartSec), In, Ev, true));
  }
  spans::setEnabled(A.Trace);

  // --- Phase 3: bisection on log(rate) for the highest sustained rate.
  // Shared-machine noise only lowers a rate the daemon can sustain, so a
  // rate counts as sustained when either of two tries sustains it.
  double Lo = FixedRate * SearchLo, Hi = FixedRate * SearchHi;
  const double TrySec = A.Seconds * SearchShare / (SearchSteps * 1.5);
  std::vector<Phase> Steps;
  std::vector<std::pair<double, unsigned>> Ladder; // rate, passing try
  for (unsigned S = 0; S < SearchSteps; ++S) {
    double Rate = std::sqrt(Lo * Hi);
    unsigned Passed = 0;
    for (unsigned Try = 1; Try <= 2 && !Passed; ++Try) {
      if (Place.refresh())
        Speed.sample();
      Phase P = runPhase(D, In.schedule(Rate, TrySec), In, Ev, false);
      if (sustained(P))
        Passed = Try;
      Steps.push_back(std::move(P));
    }
    Ladder.push_back({Rate, Passed});
    (Passed ? Lo : Hi) = Rate;
  }
  double MaxRate = Lo;

  // --- Server-side counters, then stop the daemon.  The checks below are
  // not traced: the reference re-execution alone would add ~200k spans.
  spans::setEnabled(false);
  std::string Stats1;
  (void)D.Conns.front()->getStats(Stats1, Err);
  cache::CacheStats TraceSt = D.S->traceCache()->stats();
  stopDaemon(D);
  Out.note(Place.summary());
  Place.release();

  // --- Checks.  Every request is one operation; a read already failed if
  // it differed from its key's primed entry, so checking each primed
  // entry against the in-process reference covers every read.
  std::vector<const Phase *> All;
  for (const std::vector<Phase> *Ps : {&Fixed, &FixedTraced, &Steps})
    for (const Phase &P : *Ps)
      All.push_back(&P);
  auto Tally = [&](const Phase &P) {
    for (const Rec &R : P.Recs)
      Out.op(R.Ok);
  };
  for (const Phase *P : All)
    Tally(*P);

  std::vector<server::TraceRequest> PrimedReqs, FreshReqs;
  for (unsigned I = 0; I < In.primedKeys(); ++I)
    PrimedReqs.push_back(In.primed(I));
  std::vector<uint32_t> FreshIdx;
  for (uint32_t I = 0; I < In.freshUsed(); ++I)
    if (Ev.Fresh[I].Size) {
      FreshIdx.push_back(I);
      FreshReqs.push_back(In.fresh(I));
    }
  cache::SideCondConfig SC; // in memory: the reference must not reuse
  ProbeStore RefSide(SC);   // the daemon's answers
  std::vector<cache::Fingerprint> PrimedKey(In.primedKeys());
  std::string PrimedRef0; // kept for the self-test
  uint64_t EntryFailures = 0;
  referenceEntries(PrimedReqs, nullptr,
                   [&](size_t I, const cache::Fingerprint &K,
                       const std::string &Want) {
                     PrimedKey[I] = K;
                     if (I == 0)
                       PrimedRef0 = Want;
                     std::string Why =
                         checkEntry(Digest::of(Ev.Primed[I]), Want);
                     if (!Why.empty()) {
                       ++EntryFailures;
                       Ev.problem(fmt("primed key %zu: ", I) + Why);
                     }
                   });
  Clock::time_point R0 = Clock::now();
  referenceEntries(FreshReqs, &RefSide,
                   [&](size_t I, const cache::Fingerprint &,
                       const std::string &Want) {
                     std::string Why = checkEntry(Ev.Fresh[FreshIdx[I]], Want);
                     if (!Why.empty()) {
                       ++EntryFailures;
                       Ev.problem(fmt("fresh key %u: ", FreshIdx[I]) + Why);
                     }
                   });
  double RefSeconds = secondsSince(R0);
  // A wrong primed entry fails every read of it; count that per key here.
  Out.Attempted += In.primedKeys() + FreshIdx.size();
  Out.Failed += EntryFailures;

  Rng SemR(A.Seed ^ 0xadd5ull);
  for (unsigned I = SymbolicKeys; I < In.primedKeys(); ++I) {
    std::string Why = checkAddSemantics(Ev.Primed[I], PrimedKey[I],
                                        *In.concrete(I), SemR);
    Out.op(Why.empty());
    if (!Why.empty())
      Ev.problem(Why);
  }

  // In-process reference rows, cold, with private in-memory stores.
  std::vector<frontend::CaseResult> RefRows;
  {
    cache::TraceCache TC;
    cache::SideCondStore SS(SC);
    frontend::SuiteOptions O;
    O.Threads = 0;
    O.Cache = &TC;
    O.SideCond = &SS;
    RefRows = frontend::runAllCaseStudies(O);
  }
  for (const frontend::CaseResult &Row : Ev.Rows) {
    std::string Why = "no in-process row named " + Row.Name;
    for (const frontend::CaseResult &Ref : RefRows)
      if (Ref.Name == Row.Name && Ref.Isa == Row.Isa)
        Why = checkStudyRow(Row, Ref);
    Out.op(Why.empty());
    if (!Why.empty())
      Ev.problem(Why);
  }

  // --- Checker self-test on planted faults.
  {
    std::string Flipped = PrimedRef0;
    Flipped[Flipped.size() / 2] ^= 0x01;
    frontend::CaseResult Bad = RefRows.front();
    Bad.Proof.Entailments += 1;
    Rng R2(1);
    ConcreteAdd Wrong = *In.concrete(SymbolicKeys);
    Wrong.Imm12 = (Wrong.Imm12 + 1) & 0xfffu;
    struct Planted {
      const char *What;
      bool Caught;
    } Ps[] = {
        {"trace response with one byte flipped",
         !checkEntry(Digest::of(Flipped), PrimedRef0).empty()},
        {"study row whose entailments differ",
         !checkStudyRow(Bad, RefRows.front()).empty()},
        {"add trace checked against the wrong immediate",
         !checkAddSemantics(Ev.Primed[SymbolicKeys], PrimedKey[SymbolicKeys],
                            Wrong, R2)
              .empty()},
    };
    for (const Planted &P : Ps) {
      Out.note(fmt("self-test: %-48s %s", P.What,
                   P.Caught ? "caught" : "MISSED"));
      if (!P.Caught)
        Out.Correct = false;
    }
  }
  for (const std::string &P : Ev.Problems)
    Out.note("FAILED: " + P);

  // --- Metrics.  The latency figures are the best untraced part's; the
  // per-layer figures pool the untraced parts.
  std::vector<double> PartP50, PartP99, PartFresh;
  std::vector<Rec> FixedRecs;
  size_t FewestInPart = SIZE_MAX;
  for (const Phase &P : Fixed) {
    std::vector<double> L = latencies(P.Recs, false);
    PartP50.push_back(quantile(L, 0.5));
    PartP99.push_back(quantile(L, 0.99));
    PartFresh.push_back(quantile(latencies(P.Recs, true), 0.5));
    FewestInPart = std::min(FewestInPart, L.size());
    FixedRecs.insert(FixedRecs.end(), P.Recs.begin(), P.Recs.end());
  }
  std::vector<double> Late, WarmSrv, Wire, FreshSrv, StudySrv;
  for (const Phase *P : All)
    for (const Rec &R : P->Recs)
      Late.push_back(R.LateMs);
  for (const Rec &R : FixedRecs) {
    if (R.K == Kind::Read && R.Source == "warm") {
      WarmSrv.push_back(R.ServerMs);
      Wire.push_back(R.LatMs - R.LateMs - R.ServerMs);
    }
    if (R.K == Kind::Fresh && R.Source == "fresh")
      FreshSrv.push_back(R.ServerMs);
    if (R.K == Kind::Study)
      StudySrv.push_back(R.ServerMs);
  }
  const double F = Speed.factor();
  double SuiteBestS = 0;
  for (const auto &[Name, Ms] : StudyMs)
    SuiteBestS += minOf(Ms) / 1e3;
  Out.e2e("setup_s", median(SetupS) / F, "s");
  Out.e2e("suite_s", SuiteBestS / F, "s");
  Out.e2e("peak_rss_mb", peakRssMb(), "MB");
  Out.e2e("max_rate_rps", MaxRate * F, "1/s");
  // Reported, not gated: over ten runs req_p99_ms spread 0.49-0.56 and the
  // others up to 0.30, following slow stretches of the host that the
  // host-speed loop does not see.
  Out.note(fmt("latency at %.0f/s (not gated; best part): req_p50_ms %.4f, "
               "req_p99_ms %.4f, fresh_p50_ms %.4f",
               FixedRate, minOf(PartP50) / F, minOf(PartP99) / F,
               minOf(PartFresh) / F));
  Out.note(Speed.summary());
  Out.note(fmt("as measured: setup_s %.4f s, suite_s %.4f s, req_p50_ms "
               "%.4f, req_p99_ms %.3f, fresh_p50_ms %.3f ms, max_rate_rps "
               "%.1f/s",
               median(SetupS), SuiteBestS, minOf(PartP50), minOf(PartP99),
               minOf(PartFresh), MaxRate));

  std::string LadderS;
  for (const auto &[Rate, Try] : Ladder)
    LadderS += Try ? fmt("%.1f+%u ", Rate, Try) : fmt("%.1f- ", Rate);
  auto List = [](const std::vector<double> &V) {
    std::string S;
    for (double X : V)
      S += fmt(" %.3f", X);
    return S;
  };
  Out.note(fmt("fixed rate %.1f/s: %zu untraced parts of >= %zu requests "
               "(%zu requests, %zu fresh in all)",
               FixedRate, Fixed.size(), FewestInPart, FixedRecs.size(),
               latencies(FixedRecs, true).size()));
  {
    std::vector<double> L = latencies(FixedRecs, false);
    Out.note(fmt("  pooled p50 %.3f p99 %.3f fresh p50 %.3f ms",
                 quantile(L, 0.5), quantile(L, 0.99),
                 quantile(latencies(FixedRecs, true), 0.5)));
  }
  Out.note("  part p50 ms:" + List(PartP50));
  Out.note("  part p99 ms:" + List(PartP99));
  Out.note("  part fresh p50 ms:" + List(PartFresh));
  {
    std::vector<double> L2, S2, W2;
    for (const Rec &R : FixedRecs)
      if (R.K == Kind::Read) {
        L2.push_back(R.LateMs);
        S2.push_back(R.ServerMs);
        W2.push_back(R.LatMs - R.LateMs - R.ServerMs);
      }
    Out.note(fmt("fixed-phase reads: late p50 %.3f p90 %.3f, server p50 "
                 "%.3f, wire p50 %.3f ms",
                 quantile(L2, 0.5), quantile(L2, 0.9), quantile(S2, 0.5),
                 quantile(W2, 0.5)));
  }
  Out.note("rate search (+N sustained on try N, - not): " + LadderS);
  Out.note(fmt("generator lateness over %zu requests: p99 %.3f ms, max "
               "%.3f ms; %zu connections/threads",
               Late.size(), quantile(Late, 0.99), maxOf(Late),
               size_t(lanes())));
  Out.note(fmt("suite requests %zu: min %.4f s median %.4f s", SuiteS.size(),
               minOf(SuiteS), median(SuiteS)));
  Out.note(fmt("fresh keys used %u; in-process reference of %zu fresh keys "
               "took %.2f s",
               In.freshUsed(), FreshIdx.size(), RefSeconds));

  ProbeStore::Counters RC = RefSide.counters();
  uint64_t Executed = jsonCount(Stats1, "executed") -
                      jsonCount(Stats0, "executed");
  uint64_t WarmHits = jsonCount(Stats1, "warm_hits") -
                      jsonCount(Stats0, "warm_hits");
  double GenS = 0, SideS = 0, AutoS = 0;
  uint64_t Ex = 0, Stmts = 0, SatCalls = 0, Ent = 0, Events = 0;
  for (const frontend::CaseResult &R : FastestRows) {
    GenS += R.IslaSeconds;
    SideS += R.Proof.SideCondSeconds;
    AutoS += R.Proof.automationSeconds();
    Ex += R.TracesExecuted;
    Stmts += R.IslaStmts;
    SatCalls += R.Proof.SolverSatCalls;
    Ent += R.Proof.Entailments;
    Events += R.Proof.EventsProcessed;
  }
  std::vector<double> Depths;
  for (const std::vector<Phase> *Ps : {&Fixed, &FixedTraced})
    for (const Phase &P : *Ps)
      Depths.insert(Depths.end(), P.QueueDepths.begin(), P.QueueDepths.end());
  LayerMetrics L;
  L.SailParseMs = ParseMs;
  L.IslaGenS = GenS;
  L.IslaTracesExecuted = double(Ex);
  L.IslaStmts = double(Stmts);
  L.IslaFreshMsP50 = median(FreshSrv);
  // The daemon's own stores cannot be wrapped; the SAT and side-condition
  // store figures come from the in-process re-execution of the run's fresh
  // keys, the same executions the daemon performed.
  L.SmtSatS = RC.SatS;
  L.SmtSatSharePct =
      RefSeconds > 0 ? 100 * RC.SatS / (RefSeconds * double(lanes())) : 0;
  L.SmtSatCalls = double(SatCalls);
  L.SmtSatQueryP50Ms = median(RC.SatMs);
  L.SmtSatQueryMaxMs = maxOf(RC.SatMs);
  L.SmtSideS = SideS;
  L.SeplogicAutoS = AutoS;
  L.SeplogicEntailments = double(Ent);
  L.SeplogicEvents = double(Events);
  L.CacheScLookupS = RC.LookupS;
  L.CacheScLookups = double(RC.Lookups);
  L.CacheScHits = double(RC.Hits);
  L.CacheScStoreS = RC.StoreS;
  L.CacheScStores = double(RC.Stores);
  L.CacheTraceHits = double(TraceSt.Hits);
  L.CacheTraceDiskHits = double(TraceSt.DiskHits);
  L.CacheTraceMisses = double(TraceSt.Misses);
  L.CacheTraceDiskWrites = double(TraceSt.DiskWrites);
  L.ServerWireMsP50 = median(Wire);
  L.ServerWarmMsP50 = median(WarmSrv);
  L.ServerStudyMsP50 = median(StudySrv);
  L.ServerQueueDepthMax = maxOf(Depths);
  L.ServerExecuted = double(Executed);
  L.ServerWarmHits = double(WarmHits);
  if (A.Trace) {
    std::vector<double> TracedP50;
    for (const Phase &P : FixedTraced)
      TracedP50.push_back(quantile(latencies(P.Recs, false), 0.5));
    double Plain = minOf(PartP50);
    double Traced = minOf(TracedP50);
    L.TraceOverheadPct = Plain > 0 ? 100 * (Traced / Plain - 1) : 0;
    Out.note(fmt("tracing overhead: best fixed-rate part p50 %.4f ms traced "
                 "vs %.4f ms untraced",
                 Traced, Plain));
  }
  addLayerMetrics(Out, L);
  return Out;
}

} // namespace pipebench
