//===-- perfbench/src/main.cpp - Repository benchmark program ------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           [--work-dir DIR] [--expected FILE] [--smoke] [--tamper-oracle]
// perfbench --workload NAME --seed N --reference-only [--smoke]
//
// Runs one workload and prints, as its last stdout line, the result
// object {"correct", "attempted", "failed", "metrics"}. Untraced runs
// report the end-to-end metrics; traced runs report the per-layer
// counters and write DIR/trace.json, from which perfbench/run.py derives
// the per-layer self times.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <thread>

using namespace mahjong;

namespace perfbench {

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double quantileSorted(const std::vector<double> &V, double Q) {
  if (V.empty())
    return 0;
  size_t Rank = static_cast<size_t>(std::ceil(Q * V.size()));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux
}

std::string Report::json(bool Correct, uint64_t Attempted,
                         uint64_t Failed) const {
  std::string S = "{\"correct\": ";
  S += Correct ? "true" : "false";
  S += ", \"attempted\": " + std::to_string(Attempted);
  S += ", \"failed\": " + std::to_string(Failed);
  S += ", \"metrics\": {";
  bool First = true;
  char Buf[64];
  for (const auto &[Name, E] : Metrics) {
    double V = std::isfinite(E.Value) ? E.Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    S += First ? "" : ", ";
    S += "\"" + Name + "\": {\"value\": " + Buf + ", \"unit\": \"" + E.Unit +
         "\"}";
    First = false;
  }
  return S + "}}";
}

const std::vector<WorkloadParams> &workloads(bool Smoke) {
  static const std::vector<WorkloadParams> Full = [] {
    std::vector<WorkloadParams> V(3);
    V[0].Name = "analyze-mahjong";
    V[0].AnalysisWorkload = true;
    V[0].Profile = "pmd";
    V[0].Scale = 0.5;
    V[0].AnalysisShare = 0.4;
    V[0].SetupReps = 15;
    V[0].ZipfS = 1.1;
    V[0].OpenRate = 4000;
    V[0].BurstSwaps = 10;

    V[1].Name = "serve-hot";
    V[1].Profile = "pmd";
    V[1].Scale = 0.5;
    V[1].ZipfS = 1.1;
    V[1].OpenRate = 4000;
    V[1].BurstSwaps = 10;

    V[2].Name = "serve-swap";
    V[2].Profile = "pmd";
    V[2].Scale = 0.5;
    V[2].ZipfS = 0;
    V[2].OpenRate = 4000;
    V[2].SwapIntervalS = 0.5;
    return V;
  }();
  static const std::vector<WorkloadParams> Small = [] {
    std::vector<WorkloadParams> V = Full;
    for (WorkloadParams &W : V) {
      W.Scale = 0.02;
      W.OpenRate = 500;
      W.SetupReps = 2;
      W.BurstSwaps = std::min(W.BurstSwaps, 1u);
      if (W.SwapIntervalS > 0)
        W.SwapIntervalS = 0.2;
    }
    return V;
  }();
  return Smoke ? Small : Full;
}

} // namespace perfbench

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char *Why) {
  std::cerr << "error: " << Why << "\n"
            << "usage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--expected FILE] [--smoke] "
               "[--tamper-oracle]\n"
               "       perfbench --workload NAME --seed N --reference-only "
               "[--smoke]\n";
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWorkload = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("flag '" + A + "' needs a value").c_str());
      return Argv[++I];
    };
    try {
      if (A == "--workload") {
        O.Workload = Value();
        HaveWorkload = true;
      } else if (A == "--seed") {
        O.Seed = std::stoull(Value());
      } else if (A == "--seconds") {
        O.Seconds = std::stod(Value());
      } else if (A == "--trace") {
        O.Trace = Value() != "0";
      } else if (A == "--work-dir") {
        O.WorkDir = Value();
      } else if (A == "--expected") {
        O.ExpectedPath = Value();
      } else if (A == "--smoke") {
        O.Smoke = true;
      } else if (A == "--tamper-oracle") {
        O.TamperOracle = true;
      } else if (A == "--reference-only") {
        O.ReferenceOnly = true;
      } else {
        usage(("unknown argument '" + A + "'").c_str());
      }
    } catch (const std::exception &) {
      usage(("bad value for '" + A + "'").c_str());
    }
  }
  if (!HaveWorkload)
    usage("--workload is required");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  const WorkloadParams *W = nullptr;
  for (const WorkloadParams &Cand : workloads(O.Smoke))
    if (Cand.Name == O.Workload)
      W = &Cand;
  if (!W)
    usage(("unknown workload '" + O.Workload + "'").c_str());
  if (O.ReferenceOnly) {
    if (!W->AnalysisWorkload)
      usage("--reference-only applies to the analysis workload");
    return printReference(O, *W);
  }
  std::filesystem::create_directories(O.WorkDir);

  // A run that wedges (say, a server that never answers) must still end
  // well inside the caller's limit, without printing a result.
  std::thread([] {
    std::this_thread::sleep_for(std::chrono::seconds(170));
    std::cerr << "error: run exceeded 170 s, aborting\n";
    _exit(3);
  }).detach();

  obs::ChromeTraceSink Sink;
  obs::TraceSink *SinkPtr = O.Trace ? &Sink : nullptr;
  if (SinkPtr)
    obs::installTraceSink(SinkPtr);

  Report Out;
  Tally Ops;
  int Rc = W->AnalysisWorkload
               ? runAnalysisWorkload(O, *W, Out, Ops, SinkPtr)
               : runServingWorkload(O, *W, Out, Ops, SinkPtr);
  obs::installTraceSink(nullptr);
  if (Rc != 0)
    return Rc;

  uint64_t Attempted = Ops.Attempted.load(), Failed = Ops.Failed.load();
  Out.set("bench.failed_frac",
          Attempted ? static_cast<double>(Failed) / Attempted : 1.0, "ratio");
  if (SinkPtr) {
    std::string Err;
    std::string Path = O.WorkDir + "/trace.json";
    if (!Sink.writeFile(Path, Err)) {
      std::cerr << "error: " << Err << "\n";
      return 1;
    }
    std::cerr << "trace: " << Sink.eventCount() << " events in "
              << Sink.laneCount() << " lanes -> " << Path << "\n";
  }
  std::cout << Out.json(Failed == 0 && Attempted > 0, Attempted, Failed)
            << std::endl;
  return 0;
}
