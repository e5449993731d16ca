//===-- perfbench/src/Bench.h - Shared benchmark plumbing -----*- C++ -*-===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Types shared by the analysis and serving halves of the repository
/// benchmark: the workload table, the metric report, the run-wide
/// operation tally, and small timing and statistics helpers.
///
/// Every workload runs the same three stages. Set-up builds the inputs
/// from the seed (repeated, so `setup_s` is a median). The analysis stage
/// computes the answers. The serving stage publishes those answers to an
/// in-process `net::SnapshotServer` and queries it over loopback. The
/// workloads differ in where the measured time goes.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include "obs/Trace.h"
#include "serve/Snapshot.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

/// Spin-wait hint for busy loops.
inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

/// Median of \p V (0 for an empty vector).
double median(std::vector<double> V);

/// The \p Q-quantile (0..1) of \p V by nearest rank; \p V is sorted.
double quantileSorted(const std::vector<double> &V, double Q);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// The fixed parameters of one workload. Only the seed varies per run.
struct WorkloadParams {
  std::string Name;
  bool AnalysisWorkload = false; ///< analysis measured, serving a tail
  std::string Profile;           ///< workload::benchmarkSpec profile
  double Scale = 1.0;
  /// Share of the measured window given to the analysis loop
  /// (analysis workload only; the rest serves the result).
  double AnalysisShare = 0;
  double ZipfS = 0;         ///< key skew of the query mix (0 = uniform)
  double OpenRate = 0;      ///< open-loop offered rate, requests/s
  double SwapIntervalS = 0; ///< concurrent swap period (0 = swaps after)
  /// Back-to-back swaps before, between and after the read phases, each.
  unsigned BurstSwaps = 0;
  unsigned SetupReps = 2;   ///< set-up repetitions behind setup_s
};

/// The workload table; \p Smoke shrinks every size for the self-test.
const std::vector<WorkloadParams> &workloads(bool Smoke);

/// Command-line options of one run.
struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string WorkDir = ".perfbench_work";
  std::string ExpectedPath; ///< checked-in reference values
  bool TamperOracle = false; ///< oracle claims wrong points-to answers
  bool ReferenceOnly = false; ///< print the reference line and exit
};

/// Named metrics with units, printed sorted by name.
class Report {
public:
  void set(const std::string &Name, double Value, const char *Unit) {
    Metrics[Name] = {Value, Unit};
  }

  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  std::string json(bool Correct, uint64_t Attempted, uint64_t Failed) const;

private:
  struct Entry {
    double Value;
    std::string Unit;
  };
  std::map<std::string, Entry> Metrics;
};

/// Operations attempted and failed across every stage of a run.
struct Tally {
  std::atomic<uint64_t> Attempted{0};
  std::atomic<uint64_t> Failed{0};
  void record(bool Ok) {
    Attempted.fetch_add(1, std::memory_order_relaxed);
    if (!Ok)
      Failed.fetch_add(1, std::memory_order_relaxed);
  }
};

/// A benchmark-side trace span around one call into a layer. Every span
/// carries the id of the iteration, set-up round or request it belongs
/// to, so the self-time pass can group them. A no-op unless a sink is
/// installed.
class LayerSpan {
public:
  LayerSpan(const char *Name, uint64_t Id) : Span(Name) { Span.arg("id", Id); }

private:
  mahjong::obs::ScopedSpan Span;
};

/// One snapshot the serving stage publishes: its decoded form (shared
/// with the server for the initial epoch and with the oracle), the file
/// a swap loads, and its content digest.
struct PublishedSnapshot {
  std::shared_ptr<const mahjong::serve::SnapshotData> Data;
  std::string Path;
  uint64_t Digest = 0;
  uint64_t Bytes = 0;
};

/// Share of the serving window given to the closed loop; the open loop,
/// whose tail percentiles need more samples, gets the rest.
inline constexpr double ClosedShare = 0.4;

/// Serving-stage settings derived from the workload and the run window.
struct ServePlan {
  double ClosedSeconds = 0;
  double OpenSeconds = 0;
  /// Traced runs split the closed loop into a traced and an untraced half
  /// to measure the tracing overhead.
  bool MeasureTraceOverhead = false;
};

/// Runs the serving stage over \p Snaps (Snaps[0] is served first;
/// swaps cycle through the list) and adds its metrics to \p Out.
void runServing(const Options &O, const WorkloadParams &W,
                const std::vector<PublishedSnapshot> &Snaps,
                const ServePlan &Plan, Report &Out, Tally &Ops,
                mahjong::obs::TraceSink *Sink);

/// Encodes \p D into \p Path and returns the snapshot record.
PublishedSnapshot writeSnapshot(mahjong::serve::SnapshotData D,
                                const std::string &Path, uint64_t SpanId);

/// The analysis workload (analyze-mahjong).
int runAnalysisWorkload(const Options &O, const WorkloadParams &W,
                        Report &Out, Tally &Ops,
                        mahjong::obs::TraceSink *Sink);

/// Prints the naive-engine reference line of an analysis workload and
/// seed, in the format of perfbench/expected.txt.
int printReference(const Options &O, const WorkloadParams &W);

/// The serving workloads (serve-hot, serve-swap).
int runServingWorkload(const Options &O, const WorkloadParams &W,
                       Report &Out, Tally &Ops,
                       mahjong::obs::TraceSink *Sink);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
