//===-- perfbench/src/Analysis.cpp - Analysis workload ------------------===//
//
// Part of mahjong-cpp. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// analyze-mahjong runs the paper's M-3obj pipeline (ci pre-analysis, field
// points-to graph, automata merge, 3obj on the merged heap, clients). It
// repeats the pipeline over one generated program for the analysis share
// of the window, checks every iteration against the naive-engine
// reference, then serves the last result.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "clients/Clients.h"
#include "core/DFACache.h"
#include "core/FieldPointsToGraph.h"
#include "core/HeapModeler.h"
#include "ir/ClassHierarchy.h"
#include "pta/HeapAbstraction.h"
#include "pta/PointerAnalysis.h"
#include "pta/ResultDigest.h"
#include "workload/BenchmarkPrograms.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace mahjong;

namespace perfbench {
namespace {

/// What an iteration must reproduce: the final result's digest, the
/// MAHJONG class count and the six client counts.
struct Answer {
  uint64_t Digest = 0;
  uint64_t Classes = 0;
  clients::ClientResults CR;

  bool operator==(const Answer &B) const {
    return Digest == B.Digest && Classes == B.Classes &&
           CR.CallGraphEdges == B.CR.CallGraphEdges &&
           CR.ReachableMethods == B.CR.ReachableMethods &&
           CR.PolyCallSites == B.CR.PolyCallSites &&
           CR.MonoCallSites == B.CR.MonoCallSites &&
           CR.MayFailCasts == B.CR.MayFailCasts &&
           CR.TotalCasts == B.CR.TotalCasts;
  }
};

std::string referenceKey(const Options &O) {
  return O.Workload + (O.Smoke ? "/smoke" : "") + " " +
         std::to_string(O.Seed);
}

/// Looks up the checked-in reference of this workload and seed. The file
/// holds one line per (workload, seed): key, seed, digest in hex, classes
/// and the six client counts.
bool lookupReference(const Options &O, Answer &A) {
  if (O.ExpectedPath.empty())
    return false;
  std::ifstream In(O.ExpectedPath);
  std::string Line, Want = referenceKey(O);
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream LS(Line);
    std::string Name, Seed, Hex;
    LS >> Name >> Seed;
    if (Name + " " + Seed != Want)
      continue;
    LS >> Hex >> A.Classes >> A.CR.CallGraphEdges >> A.CR.ReachableMethods >>
        A.CR.PolyCallSites >> A.CR.MonoCallSites >> A.CR.MayFailCasts >>
        A.CR.TotalCasts;
    A.Digest = std::stoull(Hex, nullptr, 16);
    return static_cast<bool>(LS);
  }
  return false;
}

std::string referenceLine(const Options &O, const Answer &A) {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(A.Digest));
  std::ostringstream OS;
  OS << referenceKey(O) << " " << Hex << " " << A.Classes << " "
     << A.CR.CallGraphEdges << " " << A.CR.ReachableMethods << " "
     << A.CR.PolyCallSites << " " << A.CR.MonoCallSites << " "
     << A.CR.MayFailCasts << " " << A.CR.TotalCasts;
  return OS.str();
}

/// Counters of the last iteration, for the traced run.
struct LayerCounters {
  pta::PTAStats Ci, Cs;
  uint64_t FpgEdges = 0, DfaStates = 0, CheckStatesVisited = 0,
           PairsTested = 0, Classes = 0;
};

/// One pipeline run: the answer, the time from the built program to the
/// client answers, and the final result (kept alive for serving).
struct Iteration {
  Answer Ans;
  double Seconds = 0;
  LayerCounters Layers;
  std::unique_ptr<pta::MergedHeapAbstraction> Heap;
  std::unique_ptr<pta::PTAResult> Result;
};

Iteration runPipeline(const ir::Program &P, const ir::ClassHierarchy &CH,
                      pta::SolverEngine Engine, uint64_t Id) {
  Iteration It;
  LayerSpan Root("bench.iteration", Id);
  Clock::time_point T0 = Clock::now();

  pta::AnalysisOptions CiOpts;
  CiOpts.Engine = Engine;
  std::unique_ptr<pta::PTAResult> Ci;
  {
    LayerSpan S("pta.ci", Id);
    Ci = pta::runPointerAnalysis(P, CH, CiOpts);
  }
  It.Layers.Ci = Ci->Stats;

  std::unique_ptr<core::FieldPointsToGraph> FPG;
  {
    LayerSpan S("core.fpg", Id);
    FPG = std::make_unique<core::FieldPointsToGraph>(*Ci);
  }
  core::HeapModelerResult MR;
  uint64_t Visited = 0;
  {
    LayerSpan S("core.automata", Id);
    core::DFACache Cache(*FPG);
    MR = core::modelHeap(*FPG, Cache);
    Visited = Cache.checkStatesVisited();
  }
  It.Layers.FpgEdges = FPG->numEdges();
  It.Layers.DfaStates = MR.DFAStates;
  It.Layers.CheckStatesVisited = Visited;
  It.Layers.PairsTested = MR.PairsTested;
  It.Layers.Classes = MR.NumClasses;
  It.Ans.Classes = MR.NumClasses;
  It.Heap = std::make_unique<pta::MergedHeapAbstraction>(std::move(MR.MOM),
                                                         "mahjong");
  // The pre-analysis and its graph are dead once the heap is modeled;
  // free them before the context-sensitive solve, as a pipeline would.
  FPG.reset();
  Ci.reset();
  pta::AnalysisOptions CsOpts;
  CsOpts.Kind = pta::ContextKind::Object;
  CsOpts.K = 3;
  CsOpts.Engine = Engine;
  CsOpts.Heap = It.Heap.get();
  {
    LayerSpan S("pta.cs", Id);
    It.Result = pta::runPointerAnalysis(P, CH, CsOpts);
  }
  It.Layers.Cs = It.Result->Stats;
  {
    LayerSpan S("clients", Id);
    It.Ans.CR = clients::evaluateClients(*It.Result);
  }
  It.Seconds = secondsSince(T0);
  It.Ans.Digest = pta::canonicalResultDigest(*It.Result);
  return It;
}

workload::WorkloadSpec specFor(const WorkloadParams &W, uint64_t Seed) {
  workload::WorkloadSpec Spec = workload::benchmarkSpec(W.Profile, W.Scale);
  Spec.Seed = static_cast<uint32_t>(Seed);
  return Spec;
}

} // namespace

int printReference(const Options &O, const WorkloadParams &W) {
  auto P = workload::buildSyntheticProgram(specFor(W, O.Seed));
  ir::ClassHierarchy CH(*P);
  Iteration Ref = runPipeline(*P, CH, pta::SolverEngine::Naive, 0);
  std::cout << referenceLine(O, Ref.Ans) << std::endl;
  return 0;
}

int runAnalysisWorkload(const Options &O, const WorkloadParams &W,
                        Report &Out, Tally &Ops, obs::TraceSink *Sink) {
  // Set-up: generate the program and its class hierarchy, several times.
  std::unique_ptr<ir::Program> P;
  std::unique_ptr<ir::ClassHierarchy> CH;
  std::vector<double> Setup;
  for (unsigned R = 0; R < W.SetupReps; ++R) {
    LayerSpan Root("bench.setup", R);
    CH.reset();
    P.reset();
    Clock::time_point T0 = Clock::now();
    {
      LayerSpan S("workload.gen", R);
      P = workload::buildSyntheticProgram(specFor(W, O.Seed));
    }
    {
      LayerSpan S("ir.cha", R);
      CH = std::make_unique<ir::ClassHierarchy>(*P);
    }
    Setup.push_back(secondsSince(T0));
  }
  Out.set("setup_s", median(Setup), "s");

  // Reference first when it is checked in; otherwise after measuring.
  Answer Ref;
  bool HaveRef = lookupReference(O, Ref);

  // Measure: repeat the pipeline until the analysis share is used up.
  // The traced run leaves its second iteration untraced as the overhead
  // baseline. The first iteration is cold (fresh heap), so charging it to
  // the traced side makes the overhead an upper bound.
  const double Budget = O.Seconds * W.AnalysisShare;
  std::vector<double> Secs, TracedSecs;
  double UntracedS = 0;
  std::vector<Answer> Answers;
  Iteration Last;
  Clock::time_point Start = Clock::now();
  const uint64_t MinIterations = Sink ? 2 : 1;
  for (uint64_t I = 0; I < MinIterations || secondsSince(Start) < Budget;
       ++I) {
    bool Baseline = Sink && I == 1;
    if (Baseline)
      obs::installTraceSink(nullptr);
    Last = Iteration();
    Last = runPipeline(*P, *CH, pta::SolverEngine::Auto, I);
    if (Baseline) {
      obs::installTraceSink(Sink);
      UntracedS = Last.Seconds;
    } else if (Sink) {
      TracedSecs.push_back(Last.Seconds);
    }
    Secs.push_back(Last.Seconds);
    Answers.push_back(Last.Ans);
  }
  Out.set("analysis_s", median(Secs), "s");

  std::cerr << W.Name << ": " << Secs.size() << " iterations, median "
            << median(Secs) << " s (" << Last.Result->EngineName
            << " engine)\n";

  // Serve the last result: publish it, query it, swap it.
  {
    serve::SnapshotData D;
    {
      LayerSpan S("serve.snapshot_build", 0);
      D = serve::buildSnapshot(*Last.Result);
    }
    std::vector<PublishedSnapshot> Snaps;
    Snaps.push_back(
        writeSnapshot(std::move(D), O.WorkDir + "/result.mjsnap", 0));
    Out.set("serve.snapshot_bytes", static_cast<double>(Snaps[0].Bytes),
            "bytes");
    ServePlan Plan;
    double Rest = O.Seconds * (1 - W.AnalysisShare);
    Plan.ClosedSeconds = Rest * ClosedShare;
    Plan.OpenSeconds = Rest * (1 - ClosedShare);
    runServing(O, W, Snaps, Plan, Out, Ops, Sink);
  }
  Out.set("peak_rss_mb", peakRssMb(), "MiB");

  // Check every iteration against the reference; compute it now, untimed,
  // when none is checked in for this seed.
  if (!HaveRef) {
    Clock::time_point T0 = Clock::now();
    obs::installTraceSink(nullptr);
    Iteration RefIt =
        runPipeline(*P, *CH, pta::SolverEngine::Naive, ~uint64_t(0));
    obs::installTraceSink(Sink);
    Ref = RefIt.Ans;
    std::cerr << "reference (naive engine, untimed): " << secondsSince(T0)
              << " s\n"
              << "reference line: " << referenceLine(O, Ref) << "\n";
  }
  for (const Answer &A : Answers) {
    const bool Ok = A == Ref;
    Ops.record(Ok);
    if (!Ok)
      std::cerr << "MISMATCH: got " << referenceLine(O, A) << "\n"
                << "        want " << referenceLine(O, Ref) << "\n";
  }

  // Per-layer counters (timings come from the trace's self times).
  const LayerCounters &L = Last.Layers;
  auto Count = [&Out](const char *Name, double V) {
    Out.set(Name, V, "count");
  };
  Count("pta.ci_pops", L.Ci.WorklistPops);
  Count("pta.ci_sccs_collapsed", L.Ci.SCCsCollapsed);
  Count("pta.ci_nodes_collapsed", L.Ci.NodesCollapsed);
  Count("pta.ci_parallel_waves", L.Ci.ParallelWaves);
  Count("pta.ci_work_steals", L.Ci.WorkSteals);
  Out.set("pta.ci_shard_imbalance_pct", L.Ci.ShardImbalancePct, "%");
  Out.set("pta.ci_set_bytes", L.Ci.SetBytes, "bytes");
  Out.set("pta.ci_working_set_bytes", L.Ci.WorkingSetBytes, "bytes");
  Count("core.fpg_edges", L.FpgEdges);
  Count("core.dfa_states", L.DfaStates);
  Count("core.check_states_visited", L.CheckStatesVisited);
  Count("core.pairs_tested", L.PairsTested);
  Count("core.classes", L.Classes);
  Count("pta.cs_pops", L.Cs.WorklistPops);
  Count("pta.cs_contexts", L.Cs.NumContexts);
  Out.set("pta.cs_set_bytes", L.Cs.SetBytes, "bytes");
  if (Sink && UntracedS > 0)
    Out.set("trace.overhead_pct",
            100.0 * (median(TracedSecs) / UntracedS - 1.0), "%");
  return 0;
}

} // namespace perfbench
