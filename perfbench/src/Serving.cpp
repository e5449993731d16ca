//===-- perfbench/src/Serving.cpp - Serving stage and workloads ----------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The serving stage: an in-process net::SnapshotServer on loopback, a
// closed loop of three connections with four requests in flight each
// (qps), then an open loop of one generator thread sending pipelined
// frames at a fixed offered rate (p50/p99 timed from each request's due
// time). Swaps go through net::Client::swap, either at a fixed interval
// during the read phases (serve-swap) or in back-to-back bursts before,
// between and after them. Every answer is recorded and checked afterwards
// against the snapshot of the epoch named by its digest.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "ir/ClassHierarchy.h"
#include "net/Client.h"
#include "net/Protocol.h"
#include "net/SnapshotRegistry.h"
#include "net/SnapshotServer.h"
#include "pta/PointerAnalysis.h"
#include "serve/QueryEngine.h"
#include "serve/Traffic.h"
#include "workload/BenchmarkPrograms.h"

#include <arpa/inet.h>
#include <pthread.h>
#include <sched.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <set>
#include <thread>
#include <unordered_map>

using namespace mahjong;

namespace perfbench {
namespace {

constexpr unsigned ClosedConnections = 3;
/// Requests each closed-loop connection keeps outstanding. With one, the
/// figure is a chain of loopback wake-ups and moves with the host's
/// scheduling from run to run; a short pipeline keeps the event loop busy,
/// so the figure is the server's throughput.
constexpr unsigned ClosedDepth = 4;
/// A request unanswered this long after its due time counts as failed.
constexpr double ResponseTimeoutS = 2.0;

uint64_t hashText(std::string_view S) {
  return std::hash<std::string_view>()(S);
}

/// One request as the client saw it, checked after the run.
struct Record {
  std::string Query;
  uint64_t Digest = 0;
  uint64_t TextHash = 0;
  bool Answered = false;
  bool Ok = false;
  double DoneS = 0; ///< completion time since the phase started
};

//===----------------------------------------------------------------------===//
// Query keys valid on every served snapshot
//===----------------------------------------------------------------------===//

/// The key pools the generator draws from: the variables and methods
/// present in every snapshot, and the site/cast indices all of them
/// have. With one snapshot this is the snapshot itself.
std::shared_ptr<const serve::SnapshotData>
commonKeys(const std::vector<PublishedSnapshot> &Snaps) {
  if (Snaps.size() == 1)
    return Snaps[0].Data;
  auto K = std::make_shared<serve::SnapshotData>();
  std::vector<std::set<std::string>> VarKeys(Snaps.size()),
      Sigs(Snaps.size());
  size_t Sites = SIZE_MAX, Casts = SIZE_MAX;
  for (size_t I = 0; I < Snaps.size(); ++I) {
    const serve::SnapshotData &D = *Snaps[I].Data;
    for (uint32_t V = 0; V < D.Vars.size(); ++V)
      VarKeys[I].insert(D.varKey(V));
    for (const auto &M : D.Methods)
      Sigs[I].insert(M.Signature);
    Sites = std::min(Sites, D.Sites.size());
    Casts = std::min(Casts, D.Casts.size());
  }
  auto InAll = [](const std::vector<std::set<std::string>> &Sets,
                  const std::string &S) {
    for (const auto &Set : Sets)
      if (!Set.count(S))
        return false;
    return true;
  };
  const serve::SnapshotData &D0 = *Snaps[0].Data;
  std::vector<uint32_t> MethodMap(D0.Methods.size(), UINT32_MAX);
  for (uint32_t M = 0; M < D0.Methods.size(); ++M)
    if (InAll(Sigs, D0.Methods[M].Signature)) {
      MethodMap[M] = static_cast<uint32_t>(K->Methods.size());
      K->Methods.push_back(D0.Methods[M]);
    }
  for (uint32_t V = 0; V < D0.Vars.size(); ++V) {
    uint32_t M = MethodMap[D0.Vars[V].Method];
    if (M == UINT32_MAX || !InAll(VarKeys, D0.varKey(V)))
      continue;
    serve::SnapshotData::Var Var = D0.Vars[V];
    Var.Method = M;
    K->Vars.push_back(Var);
  }
  K->Sites.resize(Sites);
  K->Casts.resize(Casts);
  return K;
}

/// Length of the windows that throughput and latency are taken over. It
/// equals the serve-swap interval, so every window there holds one swap.
constexpr double WindowSeconds = 0.5;

//===----------------------------------------------------------------------===//
// The oracle
//===----------------------------------------------------------------------===//

/// Expected answer text of any data query on one snapshot. Points-to and
/// alias are computed straight from the SnapshotData; the other four
/// kinds come from a cache-free QueryEngine::evaluate.
class Oracle {
public:
  Oracle(std::shared_ptr<const serve::SnapshotData> D, bool Tamper)
      : D(D), Engine(D, /*CacheCapacity=*/1), Tamper(Tamper) {
    for (uint32_t V = 0; V < D->Vars.size(); ++V)
      VarByKey.emplace(D->varKey(V), V);
  }

  /// Hash of the expected response text, memoized per query.
  uint64_t expectedHash(const std::string &Text) {
    auto It = Memo.find(Text);
    if (It != Memo.end())
      return It->second;
    uint64_t H = hashText(answer(Text));
    Memo.emplace(Text, H);
    return H;
  }

private:
  std::string answer(const std::string &Text) const {
    serve::Query Q;
    std::string Err;
    if (!serve::parseQuery(Text, Q, Err))
      return "error: " + Err;
    if (Q.Kind == serve::QueryKind::PointsTo) {
      auto It = VarByKey.find(Q.A);
      if (It == VarByKey.end())
        return "<unknown variable>";
      std::string S = "[";
      for (uint32_t O : D->ptsOfVar(It->second)) {
        if (S.size() > 1)
          S += ", ";
        S += D->describeObj(O);
      }
      // The tampered oracle claims one extra object, so every points-to
      // answer must be flagged as wrong.
      if (Tamper)
        S += S.size() > 1 ? ", o0<tampered>" : "o0<tampered>";
      return S + "]";
    }
    if (Q.Kind == serve::QueryKind::Alias) {
      auto A = VarByKey.find(Q.A), B = VarByKey.find(Q.B);
      if (A == VarByKey.end() || B == VarByKey.end())
        return "<unknown variable>";
      std::set<uint32_t> PA(D->ptsOfVar(A->second).begin(),
                            D->ptsOfVar(A->second).end());
      PA.erase(0); // sharing only o_null is not aliasing
      for (uint32_t O : D->ptsOfVar(B->second))
        if (PA.count(O))
          return "true";
      return "false";
    }
    return Engine.evaluate(Q).toString();
  }

  std::shared_ptr<const serve::SnapshotData> D;
  serve::QueryEngine Engine;
  bool Tamper;
  std::unordered_map<std::string, uint32_t> VarByKey;
  std::unordered_map<std::string, uint64_t> Memo;
};

//===----------------------------------------------------------------------===//
// Load phases
//===----------------------------------------------------------------------===//

serve::QueryWorkload queryMix(const Options &O, const WorkloadParams &W) {
  serve::QueryWorkload Mix; // default kind weights
  Mix.Seed = O.Seed;
  Mix.ZipfS = W.ZipfS;
  return Mix;
}

struct ClosedLoopResult {
  std::vector<Record> Recs;
  uint64_t TransportErrors = 0;
  double Qps = 0; ///< median over windows, see windowedQps
};

/// Throughput as the median over equal windows of the phase: a host
/// hiccup costs one window, not the whole figure.
double windowedQps(const std::vector<Record> &Recs, double Seconds) {
  const unsigned Windows =
      std::max(1u, static_cast<unsigned>(Seconds / WindowSeconds));
  const double Len = Seconds / Windows;
  std::vector<double> Counts(Windows, 0);
  for (const Record &R : Recs)
    if (R.Answered && R.DoneS < Seconds)
      Counts[std::min<size_t>(Windows - 1,
                              static_cast<size_t>(R.DoneS / Len))] += 1;
  for (double &C : Counts)
    C /= Len;
  std::sort(Counts.begin(), Counts.end());
  std::cerr << "closed loop: " << Windows << " windows, qps from "
            << Counts.front() << " to " << Counts.back() << "\n";
  return median(Counts);
}

int connectRaw(uint16_t Port) {
  int Fd = socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return -1;
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  inet_pton(AF_INET, "127.0.0.1", &Addr.sin_addr);
  if (connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  int One = 1;
  setsockopt(Fd, IPPROTO_TCP, TCP_NODELAY, &One, sizeof(One));
  return Fd;
}

/// Sends every byte of \p Out on \p Fd; false on a transport error.
bool sendAll(int Fd, const std::string &Out) {
  size_t Off = 0;
  while (Off < Out.size()) {
    ssize_t W = send(Fd, Out.data() + Off, Out.size() - Off, MSG_NOSIGNAL);
    if (W < 0 && errno == EINTR)
      continue;
    if (W <= 0)
      return false;
    Off += static_cast<size_t>(W);
  }
  return true;
}

/// ClosedConnections connections, one thread each. Every connection keeps
/// ClosedDepth requests outstanding: it sends a new one for each reply.
ClosedLoopResult closedLoop(const serve::SnapshotData &Keys,
                            const serve::QueryWorkload &Mix, uint16_t Port,
                            double Seconds, unsigned FirstClient) {
  ClosedLoopResult Res;
  std::vector<std::vector<Record>> PerConn(ClosedConnections);
  std::vector<std::unique_ptr<serve::QueryGenerator>> Gens;
  for (unsigned C = 0; C < ClosedConnections; ++C)
    Gens.push_back(
        std::make_unique<serve::QueryGenerator>(Keys, Mix, FirstClient + C));
  std::atomic<uint64_t> TransportErrors{0};
  Clock::time_point T0 = Clock::now();
  Clock::time_point Deadline =
      T0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(Seconds));
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C < ClosedConnections; ++C)
    Threads.emplace_back([&, C] {
      std::vector<Record> &Recs = PerConn[C];
      int Fd = connectRaw(Port);
      if (Fd < 0) {
        TransportErrors.fetch_add(1);
        return;
      }
      timeval Tv{static_cast<time_t>(ResponseTimeoutS), 0};
      setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
      serve::QueryGenerator &Gen = *Gens[C];
      std::string Out, Buf;
      size_t Answered = 0;
      auto Queue = [&] {
        Recs.emplace_back();
        Recs.back().Query = Gen.next();
        net::appendFrame(Out, net::MsgType::Query, Recs.back().Query);
      };
      for (unsigned I = 0; I < ClosedDepth; ++I)
        Queue();
      bool Ok = sendAll(Fd, Out);
      char Chunk[65536];
      while (Ok && Answered < Recs.size()) {
        ssize_t R = recv(Fd, Chunk, sizeof(Chunk), 0);
        if (R < 0 && errno == EINTR)
          continue;
        if (R <= 0) {
          Ok = false;
          break;
        }
        Buf.append(Chunk, static_cast<size_t>(R));
        size_t Off = 0;
        Out.clear();
        const bool More = Clock::now() < Deadline;
        const double Now = secondsSince(T0);
        while (true) {
          size_t Used = 0;
          net::Frame F;
          std::string Err;
          if (net::decodeFrame(std::string_view(Buf).substr(Off), Used, F,
                               Err) != net::DecodeStatus::Ok)
            break;
          Off += Used;
          LayerSpan S("net.reply",
                      (uint64_t(FirstClient + C) << 40) | Answered);
          net::Response Resp;
          Record &Rec = Recs[Answered++];
          Rec.Answered = net::decodeResponsePayload(
              F.Payload, F.Type == net::MsgType::RespOk, Resp);
          Rec.Ok = Rec.Answered && Resp.Ok;
          Rec.Digest = Resp.Digest;
          Rec.TextHash = hashText(Resp.Text);
          Rec.DoneS = Now;
          if (More)
            Queue();
        }
        Buf.erase(0, Off);
        if (!Out.empty())
          Ok = sendAll(Fd, Out);
      }
      if (!Ok)
        TransportErrors.fetch_add(1);
      ::close(Fd);
    });
  for (std::thread &T : Threads)
    T.join();
  Res.TransportErrors = TransportErrors.load();
  for (auto &V : PerConn)
    for (Record &R : V)
      Res.Recs.push_back(std::move(R));
  Res.Qps = windowedQps(Res.Recs, Seconds);
  return Res;
}

struct OpenLoopResult {
  std::vector<Record> Recs;
  std::vector<double> LatencyUs; ///< per request; failures at the timeout
  std::vector<double> LagUs;     ///< generator lateness per send
  uint64_t TransportErrors = 0;
};

/// Fewest requests in a latency window: ten samples beyond the p99.
constexpr size_t MinWindowSamples = 1000;

/// p50 and p99 of the open loop as medians over consecutive windows of
/// requests (in due order), each WindowSeconds of schedule long or
/// MinWindowSamples requests, whichever holds more.
std::pair<double, double> windowedLatency(const std::vector<double> &Us,
                                          double Rate) {
  const size_t PerWindow = std::max<size_t>(
      MinWindowSamples, static_cast<size_t>(Rate * WindowSeconds));
  const size_t Windows = std::max<size_t>(1, Us.size() / PerWindow);
  std::vector<double> P50, P99;
  for (size_t W = 0; W < Windows; ++W) {
    std::vector<double> Win(Us.begin() + W * Us.size() / Windows,
                            Us.begin() + (W + 1) * Us.size() / Windows);
    std::sort(Win.begin(), Win.end());
    P50.push_back(quantileSorted(Win, 0.50));
    P99.push_back(quantileSorted(Win, 0.99));
  }
  return {median(P50), median(P99)};
}

/// One generator thread sends pipelined query frames on a fixed schedule
/// over one connection; a reader thread matches the in-order responses.
OpenLoopResult openLoop(const serve::SnapshotData &Keys,
                        const serve::QueryWorkload &Mix, uint16_t Port,
                        double Rate, double Seconds, unsigned Client) {
  OpenLoopResult Res;
  const size_t N = std::max<size_t>(1, static_cast<size_t>(Rate * Seconds));
  Res.Recs.resize(N);
  Res.LatencyUs.assign(N, ResponseTimeoutS * 1e6);
  Res.LagUs.assign(N, 0);
  std::vector<Clock::time_point> Due(N);
  serve::QueryGenerator Gen(Keys, Mix, Client);
  int Fd = connectRaw(Port);
  if (Fd < 0) {
    Res.TransportErrors = 1;
    return Res;
  }
  std::atomic<size_t> Sent{0};
  std::atomic<bool> SendFailed{false};
  Clock::time_point T0 = Clock::now();
  const auto Step = std::chrono::duration<double>(1.0 / Rate);

  std::thread Reader([&] {
    std::string Buf;
    char Chunk[65536];
    size_t Got = 0;
    Clock::time_point GiveUp = Clock::time_point::max();
    while (Got < N) {
      size_t S = Sent.load(std::memory_order_acquire);
      if ((S == N || SendFailed.load()) && GiveUp == Clock::time_point::max())
        GiveUp = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(
                                        ResponseTimeoutS));
      if (Clock::now() > GiveUp)
        break;
      // Poll without blocking, so a reply is read as soon as it lands
      // rather than after a wake-up.
      ssize_t R = recv(Fd, Chunk, sizeof(Chunk), MSG_DONTWAIT);
      if (R == 0)
        break;
      if (R < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) {
          cpuRelax();
          continue;
        }
        break;
      }
      Buf.append(Chunk, static_cast<size_t>(R));
      size_t Off = 0;
      while (true) {
        size_t Used = 0;
        net::Frame F;
        std::string Err;
        net::DecodeStatus St = net::decodeFrame(
            std::string_view(Buf).substr(Off), Used, F, Err);
        if (St != net::DecodeStatus::Ok)
          break;
        Off += Used;
        Clock::time_point Now = Clock::now();
        while (Sent.load(std::memory_order_acquire) <= Got)
          std::this_thread::yield();
        net::Response Resp;
        Record &Rec = Res.Recs[Got];
        Rec.Answered = net::decodeResponsePayload(
            F.Payload, F.Type == net::MsgType::RespOk, Resp);
        Rec.Ok = Rec.Answered && Resp.Ok;
        Rec.Digest = Resp.Digest;
        Rec.TextHash = hashText(Resp.Text);
        Res.LatencyUs[Got] =
            std::chrono::duration<double, std::micro>(Now - Due[Got]).count();
        ++Got;
      }
      Buf.erase(0, Off);
    }
  });

  std::string Out;
  for (size_t I = 0; I < N; ++I) {
    Due[I] = T0 + std::chrono::duration_cast<Clock::duration>(Step * I);
    // Sleep until shortly before the due time, then spin: a plain sleep
    // wakes up to milliseconds late on a virtualized host, and that
    // lateness would be charged to the server.
    std::this_thread::sleep_until(Due[I] - std::chrono::microseconds(500));
    while (Clock::now() < Due[I])
      cpuRelax();
    Res.LagUs[I] =
        std::chrono::duration<double, std::micro>(Clock::now() - Due[I])
            .count();
    Res.Recs[I].Query = Gen.next();
    Out.clear();
    net::appendFrame(Out, net::MsgType::Query, Res.Recs[I].Query);
    if (!sendAll(Fd, Out)) {
      SendFailed.store(true);
      ++Res.TransportErrors;
      break;
    }
    Sent.store(I + 1, std::memory_order_release);
  }
  Reader.join();
  ::close(Fd);
  return Res;
}

//===----------------------------------------------------------------------===//
// Epoch statistics
//===----------------------------------------------------------------------===//

/// Query-engine counters summed over every epoch that served traffic.
struct EpochStats {
  uint64_t Hits = 0, Misses = 0, Evictions = 0;
  LogHistogram KindNs[serve::NumDataQueryKinds];

  void add(const net::ServingSnapshot &S) {
    serve::QueryCache::Stats CS = S.engine().cacheStats();
    Hits += CS.Hits;
    Misses += CS.Misses;
    Evictions += CS.Evictions;
    for (unsigned K = 0; K < serve::NumDataQueryKinds; ++K)
      KindNs[K].mergeFrom(
          S.engine().latencyHistogram(static_cast<serve::QueryKind>(K)));
  }
};

const char *kindMetricName(unsigned K) {
  static const char *Names[serve::NumDataQueryKinds] = {
      "serve.points_to_p99_us", "serve.alias_p99_us",
      "serve.devirt_p99_us",    "serve.cast_may_fail_p99_us",
      "serve.callers_p99_us",   "serve.callees_p99_us"};
  return Names[K];
}

/// One SCHED_IDLE spinning thread per CPU for the lifetime of the object.
/// On a virtualized host an idle vCPU halts, and waking a thread blocked
/// in epoll or recv then waits for the hypervisor to reschedule that
/// vCPU: tens of microseconds typically, milliseconds at the tail, and
/// varying with the host's load. The pollers keep every vCPU running, so
/// a wake-up only has to preempt a SCHED_IDLE thread, which the kernel
/// does at once. They yield to any other runnable thread and do no work.
class IdlePollers {
public:
  IdlePollers() {
    unsigned N = std::max(1u, std::thread::hardware_concurrency());
    for (unsigned I = 0; I < N; ++I)
      Threads.emplace_back([this] {
        sched_param Param{};
        pthread_setschedparam(pthread_self(), SCHED_IDLE, &Param);
        while (!Stop.load(std::memory_order_relaxed))
          cpuRelax();
      });
  }
  ~IdlePollers() {
    Stop.store(true);
    for (std::thread &T : Threads)
      T.join();
  }

private:
  std::atomic<bool> Stop{false};
  std::vector<std::thread> Threads;
};

} // namespace

//===----------------------------------------------------------------------===//
// Shared entry points
//===----------------------------------------------------------------------===//

PublishedSnapshot writeSnapshot(serve::SnapshotData D, const std::string &Path,
                                uint64_t SpanId) {
  PublishedSnapshot P;
  std::string Bytes;
  {
    LayerSpan S("serve.snapshot_encode", SpanId);
    Bytes = serve::encodeSnapshot(D);
  }
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.close();
  if (!Out) {
    std::cerr << "error: cannot write " << Path << "\n";
    std::exit(1);
  }
  P.Digest = serve::snapshotDigest(D);
  P.Bytes = Bytes.size();
  P.Path = Path;
  P.Data = std::make_shared<const serve::SnapshotData>(std::move(D));
  return P;
}

void runServing(const Options &O, const WorkloadParams &W,
                const std::vector<PublishedSnapshot> &Snaps,
                const ServePlan &Plan, Report &Out, Tally &Ops,
                obs::TraceSink *Sink) {
  std::shared_ptr<const serve::SnapshotData> Keys = commonKeys(Snaps);
  std::cerr << "key pools: " << Keys->Vars.size() << " vars, "
            << Keys->Methods.size() << " methods, " << Keys->Sites.size()
            << " sites, " << Keys->Casts.size() << " casts\n";
  serve::QueryWorkload Mix = queryMix(O, W);

  net::SnapshotRegistry Registry(Snaps[0].Data, Snaps[0].Path);
  net::ServerConfig Cfg;
  Cfg.Port = 0;
  Cfg.Workers = 0; // requests run on the event-loop thread
  net::SnapshotServer Server(Registry, Cfg);
  std::string Err;
  if (!Server.start(Err)) {
    std::cerr << "error: server start: " << Err << "\n";
    std::exit(1);
  }
  const uint16_t Port = Server.port();
  auto Pollers = std::make_unique<IdlePollers>();

  EpochStats Epochs;
  std::vector<double> SwapMs;
  size_t NextSnap = 1 % Snaps.size();
  net::Client Admin;
  if (!Admin.connect("127.0.0.1", Port, Err)) {
    std::cerr << "error: admin connect: " << Err << "\n";
    std::exit(1);
  }
  // Every swap harvests the cache and latency counters of the epoch it
  // retires; the last epoch is harvested after the final swap.
  auto SwapOnce = [&] {
    const PublishedSnapshot &To = Snaps[NextSnap];
    NextSnap = (NextSnap + 1) % Snaps.size();
    std::shared_ptr<const net::ServingSnapshot> Before = Registry.pin();
    net::Response R;
    std::string SErr;
    Clock::time_point T0 = Clock::now();
    bool Sent;
    {
      LayerSpan S("net.swap", SwapMs.size());
      Sent = Admin.swap(To.Path, R, SErr);
    }
    double Ms = secondsSince(T0) * 1e3;
    bool Ok = Sent && R.Ok && R.Digest == To.Digest;
    Ops.record(Ok);
    if (!Ok)
      std::cerr << "swap to " << To.Path << " failed: "
                << (Sent ? R.Text : SErr) << "\n";
    SwapMs.push_back(Ms);
    Epochs.add(*Before);
  };
  // Without concurrent swaps, swaps run in bursts before, between and
  // after the read phases, so swap_ms samples the host at three points of
  // the run rather than in one stretch of a second.
  auto SwapBurst = [&] {
    for (unsigned I = 0; I < W.BurstSwaps; ++I)
      SwapOnce();
  };

  // Read phases, with concurrent swaps on serve-swap.
  ClosedLoopResult Closed, ClosedBaseline;
  OpenLoopResult Open;
  double QpsUntraced = 0;
  auto Reads = [&](const std::function<void()> &Between) {
    if (Plan.MeasureTraceOverhead) {
      // Traced half first: the cache is coldest then, so the overhead
      // comes out as an upper bound.
      Closed = closedLoop(*Keys, Mix, Port, Plan.ClosedSeconds / 2, 0);
      obs::installTraceSink(nullptr);
      ClosedBaseline = closedLoop(*Keys, Mix, Port, Plan.ClosedSeconds / 2,
                                  ClosedConnections);
      obs::installTraceSink(Sink);
      QpsUntraced = ClosedBaseline.Qps;
    } else {
      Closed = closedLoop(*Keys, Mix, Port, Plan.ClosedSeconds, 0);
    }
    Between();
    Open = openLoop(*Keys, Mix, Port, W.OpenRate, Plan.OpenSeconds,
                    2 * ClosedConnections);
  };
  double ServerQueueP50 = 0, ServerQueueP99 = 0, ServerRequestP99 = 0;
  auto ReadServerLatency = [&] {
    obs::MetricsRegistry &M = Server.metrics();
    ServerQueueP50 = M.histogram("net.queue_delay_ns").percentile(0.50) / 1e3;
    ServerQueueP99 = M.histogram("net.queue_delay_ns").percentile(0.99) / 1e3;
    ServerRequestP99 = M.histogram("net.request_ns").percentile(0.99) / 1e3;
  };
  if (W.SwapIntervalS > 0) {
    std::atomic<bool> ReadsDone{false};
    std::thread ReadThread([&] {
      Reads([] {});
      ReadsDone.store(true);
    });
    Clock::time_point Next = Clock::now();
    while (!ReadsDone.load()) {
      Next += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(W.SwapIntervalS));
      while (!ReadsDone.load() && Clock::now() < Next)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (!ReadsDone.load())
        SwapOnce();
    }
    ReadThread.join();
    ReadServerLatency();
  } else {
    SwapBurst();
    Reads(SwapBurst);
    ReadServerLatency();
    SwapBurst();
  }
  Epochs.add(*Registry.pin());
  const uint64_t Accepted =
      Server.metrics().counter("net.accepted_total").value();
  Admin.close();
  Server.stop();
  Pollers.reset();

  // Check every answer against its epoch's snapshot.
  std::unordered_map<uint64_t, std::unique_ptr<Oracle>> Oracles;
  for (const PublishedSnapshot &S : Snaps)
    if (!Oracles.count(S.Digest))
      Oracles.emplace(S.Digest,
                      std::make_unique<Oracle>(S.Data, O.TamperOracle));
  uint64_t Wrong = 0;
  auto Check = [&](const std::vector<Record> &Recs) {
    for (const Record &R : Recs) {
      bool Ok = R.Answered && R.Ok;
      if (Ok) {
        auto It = Oracles.find(R.Digest);
        Ok = It != Oracles.end() &&
             It->second->expectedHash(R.Query) == R.TextHash;
      }
      if (!Ok && Wrong++ < 3)
        std::cerr << "wrong answer to '" << R.Query << "'\n";
      Ops.record(Ok);
    }
  };
  Clock::time_point CheckT0 = Clock::now();
  Check(ClosedBaseline.Recs);
  Check(Closed.Recs);
  Check(Open.Recs);
  std::cerr << "checked " << ClosedBaseline.Recs.size() + Closed.Recs.size() +
                                 Open.Recs.size()
            << " answers in " << secondsSince(CheckT0) << " s, " << Wrong
            << " wrong\n";

  // End-to-end serving metrics.
  const double Qps = Closed.Qps;
  const auto [P50, P99] = windowedLatency(Open.LatencyUs, W.OpenRate);
  std::vector<double> Lat = Open.LatencyUs;
  std::sort(Lat.begin(), Lat.end());
  std::vector<double> Lag = Open.LagUs;
  std::sort(Lag.begin(), Lag.end());
  const size_t OverLimit =
      Lat.end() - std::upper_bound(Lat.begin(), Lat.end(), 1000.0);
  Out.set("qps", Qps, "1/s");
  Out.set("p50_us", P50, "us");
  Out.set("p99_us", P99, "us");
  Out.set("swap_ms", median(SwapMs), "ms");
  std::cerr << "closed loop: " << Closed.Recs.size() << " requests, " << Qps
            << " qps (median of " << WindowSeconds << " s windows)\n"
            << "open loop: " << Lat.size() << " samples at " << W.OpenRate
            << "/s, p50 " << P50 << " us, p99 " << P99
            << " us (medians over windows); whole run p99 "
            << quantileSorted(Lat, 0.99) << " us, " << OverLimit
            << " over the 1000 us limit\n"
            << "swaps: " << SwapMs.size() << ", median " << median(SwapMs)
            << " ms, range "
            << (SwapMs.empty() ? 0 : *std::min_element(SwapMs.begin(),
                                                       SwapMs.end()))
            << " to "
            << (SwapMs.empty() ? 0 : *std::max_element(SwapMs.begin(),
                                                       SwapMs.end()))
            << " ms\n";

  // Per-layer serving metrics.
  double Attempts = static_cast<double>(Epochs.Hits + Epochs.Misses);
  Out.set("serve.cache_hit_ratio", Attempts ? Epochs.Hits / Attempts : 0,
          "ratio");
  Out.set("serve.cache_evictions", static_cast<double>(Epochs.Evictions),
          "count");
  for (unsigned K = 0; K < serve::NumDataQueryKinds; ++K)
    Out.set(kindMetricName(K), Epochs.KindNs[K].percentile(0.99) / 1e3, "us");
  Out.set("net.queue_delay_p50_us", ServerQueueP50, "us");
  Out.set("net.queue_delay_p99_us", ServerQueueP99, "us");
  Out.set("net.request_p99_us", ServerRequestP99, "us");
  Out.set("net.transport_errors",
          static_cast<double>(Closed.TransportErrors +
                              ClosedBaseline.TransportErrors +
                              Open.TransportErrors),
          "count");
  Out.set("net.connections", static_cast<double>(Accepted), "count");
  Out.set("bench.gen_lag_p99_us", quantileSorted(Lag, 0.99), "us");
  Out.set("bench.latency_samples", static_cast<double>(Lat.size()), "count");
  Out.set("bench.over_limit_frac",
          Lat.empty() ? 0 : static_cast<double>(OverLimit) / Lat.size(),
          "ratio");
  Out.set("bench.swaps", static_cast<double>(SwapMs.size()), "count");
  if (Plan.MeasureTraceOverhead && Qps > 0)
    Out.set("trace.overhead_pct", 100.0 * (QpsUntraced / Qps - 1.0), "%");

  // The traced run also times the two halves of a swap the server does
  // internally: decoding the file and building the query engine.
  if (Sink) {
    std::ifstream In(Snaps[0].Path, std::ios::binary);
    std::string Bytes((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
    for (uint64_t I = 0; I < 3; ++I) {
      std::unique_ptr<serve::SnapshotData> D;
      {
        LayerSpan S("serve.decode", I);
        D = serve::decodeSnapshot(Bytes, Err);
      }
      Ops.record(D && serve::snapshotDigest(*D) == Snaps[0].Digest);
      if (!D)
        continue;
      std::shared_ptr<const serve::SnapshotData> Shared(std::move(D));
      LayerSpan S("serve.engine_build", I);
      serve::QueryEngine Engine(Shared);
    }
  }
}

int runServingWorkload(const Options &O, const WorkloadParams &W,
                       Report &Out, Tally &Ops, obs::TraceSink *Sink) {
  // Set-up: per snapshot, generate, build the hierarchy, run the ci
  // site-heap analysis, build, encode and write the snapshot. Repeated,
  // so setup_s is a median; the last round's snapshots are served.
  const unsigned NumSnaps = W.SwapIntervalS > 0 ? 2 : 1;
  std::vector<double> Setup, Analysis;
  std::vector<PublishedSnapshot> Snaps;
  for (unsigned R = 0; R < W.SetupReps; ++R) {
    LayerSpan Root("bench.setup", R);
    Snaps.clear();
    Clock::time_point T0 = Clock::now();
    for (unsigned K = 0; K < NumSnaps; ++K) {
      const uint64_t Id = R * NumSnaps + K;
      workload::WorkloadSpec Spec =
          workload::benchmarkSpec(W.Profile, W.Scale);
      Spec.Seed = static_cast<uint32_t>(O.Seed + K);
      std::unique_ptr<ir::Program> P;
      {
        LayerSpan S("workload.gen", Id);
        P = workload::buildSyntheticProgram(Spec);
      }
      std::unique_ptr<ir::ClassHierarchy> CH;
      {
        LayerSpan S("ir.cha", Id);
        CH = std::make_unique<ir::ClassHierarchy>(*P);
      }
      Clock::time_point A0 = Clock::now();
      pta::AnalysisOptions Opts;
      Opts.Engine = pta::SolverEngine::Auto;
      std::unique_ptr<pta::PTAResult> Res;
      {
        LayerSpan S("pta.ci", Id);
        Res = pta::runPointerAnalysis(*P, *CH, Opts);
      }
      serve::SnapshotData D;
      {
        LayerSpan S("serve.snapshot_build", Id);
        D = serve::buildSnapshot(*Res);
      }
      Analysis.push_back(secondsSince(A0));
      if (R + 1 == W.SetupReps) {
        const pta::PTAStats &St = Res->Stats;
        Out.set("pta.ci_pops", St.WorklistPops, "count");
        Out.set("pta.ci_sccs_collapsed", St.SCCsCollapsed, "count");
        Out.set("pta.ci_nodes_collapsed", St.NodesCollapsed, "count");
        Out.set("pta.ci_parallel_waves", St.ParallelWaves, "count");
        Out.set("pta.ci_work_steals", St.WorkSteals, "count");
        Out.set("pta.ci_shard_imbalance_pct", St.ShardImbalancePct, "%");
        Out.set("pta.ci_set_bytes", St.SetBytes, "bytes");
        Out.set("pta.ci_working_set_bytes", St.WorkingSetBytes, "bytes");
      }
      Res.reset();
      Snaps.push_back(writeSnapshot(
          std::move(D),
          O.WorkDir + "/serve" + std::to_string(K) + ".mjsnap", Id));
    }
    Setup.push_back(secondsSince(T0));
  }
  Out.set("setup_s", median(Setup), "s");
  Out.set("analysis_s", median(Analysis), "s");
  Out.set("serve.snapshot_bytes", static_cast<double>(Snaps.back().Bytes),
          "bytes");
  for (const char *Zero :
       {"core.fpg_edges", "core.dfa_states", "core.check_states_visited",
        "core.pairs_tested", "core.classes", "pta.cs_pops", "pta.cs_contexts",
        "pta.cs_set_bytes"})
    Out.set(Zero, 0, Zero == std::string("pta.cs_set_bytes") ? "bytes"
                                                             : "count");

  ServePlan Plan;
  Plan.ClosedSeconds = O.Seconds * ClosedShare;
  Plan.OpenSeconds = O.Seconds * (1 - ClosedShare);
  Plan.MeasureTraceOverhead = Sink != nullptr;
  runServing(O, W, Snaps, Plan, Out, Ops, Sink);
  Out.set("peak_rss_mb", peakRssMb(), "MiB");
  return 0;
}

} // namespace perfbench
