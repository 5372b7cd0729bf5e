//===-- vobench/vo_bench.cpp - End-to-end VO iteration benchmark ----------===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives VirtualOrganization loops from generated Poisson arrivals and
/// reports what the people running the scheduler see: wall time per
/// runIteration, windows committed per second, set-up time, peak memory,
/// and the schedule-quality figures the paper reports (job time, queue
/// wait, dropped jobs). The workload seed expands into independent
/// episodes, each a VO on its own generated domain; one pass runs every
/// episode, and passes repeat until the time budget is spent. Every pass
/// is the same work, so the quality figures come from the first pass and
/// every later pass must reproduce its result digest exactly. Times are
/// reported at a reference host speed, gauged by a fixed reference work
/// timed after every episode run (see referenceNs), so that the drift of
/// a shared host's speed does not move them.
///
/// With --trace=1 the episodes run twice: untraced, then through the
/// outside-in tracing of Tracing.h plus a timed external slot publish
/// and a shadow PersistentSlotFilter sync before each iteration. The
/// traced pass yields the per-layer breakdown and must produce the same
/// digest as the untraced one.
///
/// Every iteration is checked: committed windows are well-formed and
/// pairwise disjoint, the selection respects the iteration's limit, the
/// ledger's income matches its completions, and no job is lost.
///
/// The last line of stdout is one JSON object; run.py wraps it into the
/// benchmark's result line.
///
//===----------------------------------------------------------------------===//

#include "Tracing.h"

#include "core/AlpSearch.h"
#include "core/AmpSearch.h"
#include "core/DpOptimizer.h"
#include "engine/VirtualOrganization.h"
#include "support/CommandLine.h"
#include "support/Random.h"

#ifdef __GLIBC__
#include <malloc.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

using namespace ecosched;
using vobench::CallTrace;
using vobench::nowNs;

namespace {

/// One traffic shape. Episodes are independent VOs on their own
/// generated domains. The quality figures need many of them; the timing
/// needs repetitions, so only the first TimingEpisodes are repeated.
struct WorkloadSpec {
  const char *Name = "";
  bool UseAmp = false;
  int Nodes = 10;
  double Period = 150.0;
  double Horizon = 700.0;
  /// Mean Poisson job arrivals per iteration.
  double ArrivalRate = 4.0;
  int MaxAttempts = 10;
  /// A job's price cap is PriceCapFactor * 1.7^MinPerformance.
  double PriceCapFactor = 1.1;
  /// Cap on alternatives per job; 0 means unlimited.
  size_t MaxAlternativesPerJob = 0;
  /// Owner writes before every iteration: reprice every node, fail or
  /// repair a node, cancel a user job.
  bool OwnerWrites = false;
  int Episodes = 16;
  int TimingEpisodes = 16;
  int WarmupIterations = 20;
  int TimedIterations = 100;
};

const WorkloadSpec Workloads[] = {
    {.Name = "amp-steady",
     .UseAmp = true,
     .Nodes = 10,
     .Period = 150.0,
     .Horizon = 700.0,
     .ArrivalRate = 6.0,
     .MaxAttempts = 10,
     .PriceCapFactor = 0.9,
     .MaxAlternativesPerJob = 0,
     .OwnerWrites = false,
     .Episodes = 128,
     .TimingEpisodes = 48,
     .WarmupIterations = 20,
     .TimedIterations = 50},
    {.Name = "alp-backlog",
     .UseAmp = false,
     .Nodes = 128,
     .Period = 150.0,
     .Horizon = 3000.0,
     .ArrivalRate = 8.0,
     .MaxAttempts = 10,
     .PriceCapFactor = 0.9,
     .MaxAlternativesPerJob = 2,
     .OwnerWrites = false,
     .Episodes = 32,
     .TimingEpisodes = 11,
     .WarmupIterations = 20,
     .TimedIterations = 100},
    {.Name = "alp-reprice",
     .UseAmp = false,
     .Nodes = 128,
     .Period = 150.0,
     .Horizon = 3000.0,
     .ArrivalRate = 8.0,
     .MaxAttempts = 10,
     .PriceCapFactor = 0.9,
     .MaxAlternativesPerJob = 2,
     .OwnerWrites = true,
     .Episodes = 32,
     .TimingEpisodes = 11,
     .WarmupIterations = 20,
     .TimedIterations = 100},
};

/// Owner-write mix of the OwnerWrites workloads.
constexpr double RepriceMin = 1.0;
constexpr double RepriceMax = 1.1;
constexpr double FailureChance = 0.1;
constexpr double CancelChance = 0.3;
/// Cancellations target one of the most recently submitted job ids.
constexpr int CancelLookback = 64;

/// Diagnostics printed per run before violations are only counted.
constexpr size_t MaxDiagnostics = 20;

/// Fixed reference work that gauges the host's current speed: sorting
/// one fixed array of 8192 pseudo-random doubles, branchy cache-resident
/// code like the scheduler's own. It is compiled into the benchmark and
/// calls nothing in the library, so a change to the program under test
/// cannot move it.
constexpr size_t ReferenceElements = 8192;
constexpr int ReferenceRepeats = 3;
/// About the reference work's fastest time on the shared 4-vCPU Xeon VM
/// the benchmark was tuned on; times are reported at this speed.
constexpr double ReferenceNominalNs = 450e3;

/// Random permutation of 0..N-1 (Fisher-Yates).
std::vector<int> permutation(RandomGenerator &Rng, int N) {
  std::vector<int> P(static_cast<size_t>(N));
  for (int I = 0; I < N; ++I)
    P[static_cast<size_t>(I)] = I;
  for (int I = N - 1; I > 0; --I)
    std::swap(P[static_cast<size_t>(I)],
              P[static_cast<size_t>(Rng.uniformInt(0, I))]);
  return P;
}

/// The vo_longrun domain — node performance in [1, 3), price
/// [0.75, 1.25) * 1.7^perf, ~30% owner-local load — with (performance,
/// price factor) drawn from a randomly shifted, jittered lattice instead
/// of independently: node I takes performance stratum P(I) of N (a random
/// permutation) and price stratum (A * P(I) + Shift) mod N, with A near
/// N / golden ratio and coprime to N. Every performance band then holds
/// its share of cheap and dear nodes, so domains differ in detail but
/// not in capacity. Independent draws leave both to chance, and the
/// per-episode drop share then varies by a factor of four.
ComputingDomain makeDomain(RandomGenerator &Rng, const WorkloadSpec &Spec,
                           double SpanEnd, std::vector<double> &BasePrices) {
  ComputingDomain D;
  const int N = Spec.Nodes;
  const std::vector<int> PerfStratum = permutation(Rng, N);
  int A = std::max(1, static_cast<int>(std::lround(N * 0.6180339887)));
  while (std::gcd(A, N) != 1)
    ++A;
  const auto Shift = static_cast<int>(Rng.uniformInt(0, N - 1));
  const auto Stratified = [&](int Stratum, double Lo, double Hi) {
    return Lo + (Hi - Lo) / N * (Stratum + Rng.nextUnit());
  };
  for (int I = 0; I < N; ++I) {
    const int Stratum = PerfStratum[static_cast<size_t>(I)];
    const double Perf = Stratified(Stratum, 1.0, 3.0);
    const double Price = Stratified((A * Stratum + Shift) % N, 0.75, 1.25) *
                         std::pow(1.7, Perf);
    const int Id = D.addNode(Perf, Price);
    BasePrices.push_back(Price);
    double Cursor = Rng.uniformReal(0.0, 150.0);
    while (Cursor < SpanEnd) {
      const double Busy = Rng.uniformReal(20.0, 80.0);
      D.addLocalTask(Id, TimePoint(Cursor),
                     TimePoint(std::min(Cursor + Busy, SpanEnd)));
      Cursor += Busy + Rng.uniformReal(80.0, 250.0);
    }
  }
  return D;
}

Job makeJob(RandomGenerator &Rng, int Id, const WorkloadSpec &Spec) {
  Job J;
  J.Id = Id;
  J.Request.NodeCount = static_cast<int>(Rng.uniformInt(1, 4));
  J.Request.Volume = Rng.uniformReal(50.0, 150.0);
  J.Request.MinPerformance = Rng.uniformReal(1.0, 1.6);
  J.Request.MaxUnitPrice =
      Spec.PriceCapFactor * std::pow(1.7, J.Request.MinPerformance);
  return J;
}

/// FNV-1a over the bit patterns of the values fed to it.
class Digest {
public:
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
  }
  void add(int V) { add(static_cast<uint64_t>(static_cast<int64_t>(V))); }
  void add(double V) {
    uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(Bits));
    add(Bits);
  }
  uint64_t value() const { return H; }

private:
  uint64_t H = 0xcbf29ce484222325ULL;
};

/// Schedule-quality and throughput counts over the timed iterations.
struct Quality {
  size_t Submitted = 0;
  size_t Dropped = 0;
  size_t Committed = 0;
  double JobTimeSum = 0.0;
  double WaitSum = 0.0;
  size_t Completions = 0;
};

/// Where one traced iteration's time went, plus its work counters.
/// The *Ns spans partition the iteration: Publish and Sync are timed
/// outside runIteration on the same inputs and stand in for the VO's own
/// publish and sync; Pre is the rest of [start, first search call);
/// Sweep runs from the first search call to the end of the last; Gap
/// from there to the first solve(); Solve is the time inside solve();
/// Commit runs from the end of the last solve (or search) to the return.
struct IterationSpans {
  int64_t IterationNs = 0;
  int64_t PublishNs = 0;
  int64_t SyncNs = 0;
  int64_t PreNs = 0;
  int64_t SweepNs = 0;
  int64_t FindNs = 0;
  int64_t GapNs = 0;
  int64_t SolveNs = 0;
  int64_t CommitNs = 0;
  size_t SlotsPublished = 0;
  size_t ViewReuses = 0;
  size_t ViewRebuilds = 0;
  size_t DeltaOps = 0;
  size_t SearchCalls = 0;
  size_t WindowsFound = 0;
  size_t SlotsExamined = 0;
  size_t Alternatives = 0;
  size_t SolveCalls = 0;
  size_t ProblemAlternatives = 0;
  size_t FeasibleSolves = 0;
  size_t BatchLength = 0;
  size_t Committed = 0;

  int64_t coveredNs() const {
    return PublishNs + SyncNs + PreNs + SweepNs + GapNs + SolveNs + CommitNs;
  }
};

/// Wall-clock measurements of one episode run.
struct EpisodeTiming {
  /// runIteration wall time of every timed iteration.
  std::vector<int64_t> IterationNs;
  double SetupSeconds = 0.0;
  /// Peak resident memory of the process during the episode.
  double PeakRssMb = 0.0;
  /// Windows committed in the timed iterations.
  size_t Committed = 0;
};

/// Everything one phase (untraced or traced) measured.
struct PhaseResult {
  /// Every run of every episode, indexed by episode.
  std::vector<std::vector<EpisodeTiming>> Runs;
  /// Result digest of each episode's first run (0: never run); every
  /// later run must reproduce it.
  std::vector<uint64_t> EpisodeDigests;
  bool DigestStable = true;
  size_t Passes = 0;
  /// Quality counts of the pass over all episodes.
  Quality AllEpisodes;
  /// Iterations run, warm-up included, and those with a violation.
  size_t Iterations = 0;
  size_t FailedIterations = 0;
  size_t Violations = 0;
  /// Traced iterations whose shadow filter counters differ from the
  /// VO's filterStats() delta.
  size_t ShadowMismatches = 0;
  std::vector<IterationSpans> Spans;
  /// Fastest reference-work time (see referenceNs) measured after any
  /// episode run of the phase.
  int64_t ReferenceNs = std::numeric_limits<int64_t>::max();

  /// Factor that converts the phase's times to the reference speed.
  double hostScale() const {
    return ReferenceNominalNs / static_cast<double>(ReferenceNs);
  }

  /// FNV-1a over the episode digests, in episode order.
  uint64_t digest() const {
    Digest H;
    for (const uint64_t D : EpisodeDigests)
      H.add(D);
    return H.value();
  }
};

/// Per-episode correctness checks, run after every iteration.
class Checker {
public:
  Checker(const std::vector<ResourceRequest> &Requests, size_t &Diagnostics)
      : Requests(Requests), Diagnostics(Diagnostics) {}

  /// \returns the number of violations in the iteration that produced
  /// \p R; \p Submitted and \p Cancelled count the whole episode.
  size_t check(const VirtualOrganization &Vo,
               const VirtualOrganization::IterationReport &R,
               OptimizationTaskKind Task, size_t Submitted,
               size_t Cancelled) {
    size_t Violations = 0;
    const auto Fail = [&](const std::string &What) {
      ++Violations;
      if (Diagnostics++ < MaxDiagnostics)
        std::fprintf(stderr, "violation at t=%g: %s\n", R.Now, What.c_str());
    };

    const std::vector<ScheduledJob> &Scheduled = R.Outcome.Scheduled;
    if (R.Committed != Scheduled.size())
      Fail("committed count differs from the scheduled windows");
    for (size_t I = 0; I < Scheduled.size(); ++I) {
      const ScheduledJob &S = Scheduled[I];
      const std::string Job = "job " + std::to_string(S.JobId);
      if (S.JobId < 0 || static_cast<size_t>(S.JobId) >= Requests.size()) {
        Fail(Job + " was never submitted");
        continue;
      }
      const ResourceRequest &Req = Requests[S.JobId];
      const Window &W = S.W;
      if (W.size() != static_cast<size_t>(Req.NodeCount))
        Fail(Job + " got " + std::to_string(W.size()) + " slots for " +
             std::to_string(Req.NodeCount) + " nodes");
      std::vector<int> Nodes;
      for (const WindowSlot &M : W) {
        Nodes.push_back(M.Source.NodeId);
        const double Start = W.startTime().value();
        if (!approxEq(M.Runtime, Req.Volume / M.Source.Performance) ||
            !approxLe(M.Source.Start, Start) ||
            !approxLe(Start + M.Runtime, M.Source.End))
          Fail(Job + " has a member slot that does not cover its runtime "
                     "on node " +
               std::to_string(M.Source.NodeId));
      }
      std::sort(Nodes.begin(), Nodes.end());
      if (std::adjacent_find(Nodes.begin(), Nodes.end()) != Nodes.end())
        Fail(Job + " uses a node twice");
      for (size_t J = 0; J < I; ++J)
        if (W.intersects(Scheduled[J].W))
          Fail(Job + " intersects job " + std::to_string(Scheduled[J].JobId));
    }

    const CombinationChoice &Choice = R.Outcome.Choice;
    if (Choice.Feasible) {
      const double Limit = Task == OptimizationTaskKind::MinimizeTime
                               ? R.Outcome.VoBudget
                               : R.Outcome.TimeQuota;
      if (!(Choice.ConstraintTotal <= Limit))
        Fail("selection total " + std::to_string(Choice.ConstraintTotal) +
             " exceeds the limit " + std::to_string(Limit));
    }

    const std::vector<CompletedJob> &Completed = Vo.completed();
    for (; CompletedSeen < Completed.size(); ++CompletedSeen)
      IncomeSum += Completed[CompletedSeen].Cost;
    if (!exactEq(IncomeSum, Vo.totalIncome().value()))
      Fail("total income differs from the in-order sum of completions");

    const size_t Accounted = Completed.size() + Vo.ledger().runningCount() +
                             Vo.queueLength() + Vo.dropped().size() +
                             Cancelled;
    if (Accounted != Submitted)
      Fail("job conservation: " + std::to_string(Submitted) +
           " submitted, " + std::to_string(Accounted) + " accounted for");
    return Violations;
  }

private:
  const std::vector<ResourceRequest> &Requests;
  size_t &Diagnostics;
  double IncomeSum = 0.0;
  size_t CompletedSeen = 0;
};

/// Reprices every node around its base price, fails or repairs a node,
/// and cancels a recent job, each with the workload's probability.
void ownerWrites(VirtualOrganization &Vo, RandomGenerator &Rng,
                 const std::vector<double> &BasePrices, int &FailedNode,
                 int NextJobId, size_t &Cancelled) {
  for (size_t N = 0; N < BasePrices.size(); ++N)
    Vo.mutableDomain().setNodePrice(
        static_cast<int>(N),
        Price(BasePrices[N] * Rng.uniformReal(RepriceMin, RepriceMax)));
  if (Rng.bernoulli(FailureChance)) {
    if (FailedNode >= 0) {
      Vo.repairNode(FailedNode);
      FailedNode = -1;
    } else {
      FailedNode = static_cast<int>(
          Rng.uniformInt(0, static_cast<int64_t>(BasePrices.size()) - 1));
      Vo.injectNodeFailure(FailedNode);
    }
  }
  if (NextJobId > 0 && Rng.bernoulli(CancelChance)) {
    const int Lo = std::max(0, NextJobId - CancelLookback);
    Cancelled +=
        Vo.cancelJob(static_cast<int>(Rng.uniformInt(Lo, NextJobId - 1)));
  }
}

/// Peak resident memory of this process image in MB since the last
/// resetPeakRss() (VmHWM; getrusage's ru_maxrss would also count the
/// image the process had before exec).
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0.0;
  char Line[256];
  double Kb = 0.0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &Kb) == 1)
      break;
  std::fclose(F);
  return Kb / 1024.0;
}

/// Returns freed heap memory to the system, then restarts VmHWM at the
/// current resident size, so an episode's peak does not include what an
/// earlier, larger episode left mapped. Where the kernel lacks the
/// reset, peakRssMb() keeps reporting the peak of the whole process.
void resetPeakRss() {
#ifdef __GLIBC__
  malloc_trim(0);
#endif
  if (std::FILE *F = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", F);
    std::fclose(F);
  }
}

/// Runs one episode: set-up (domain generation, VO construction,
/// warm-up iterations), then the timed iterations.
/// \returns the episode's result digest.
uint64_t runEpisode(const WorkloadSpec &Spec, uint64_t Seed, bool Traced,
                    PhaseResult &Out, EpisodeTiming &Run, Quality &Q,
                    size_t &Diagnostics) {
  resetPeakRss();
  const int64_t SetupStart = nowNs();
  RandomGenerator Rng(Seed);
  RandomGenerator DomainRng = Rng.fork();
  RandomGenerator ArrivalRng = Rng.fork();
  RandomGenerator OwnerRng = Rng.fork();
  const int Iterations = Spec.WarmupIterations + Spec.TimedIterations;
  const double SpanEnd = Spec.Period * Iterations + Spec.Horizon + Spec.Period;
  std::vector<double> BasePrices;
  ComputingDomain Domain = makeDomain(DomainRng, Spec, SpanEnd, BasePrices);

  AlpSearch Alp;
  AmpSearch Amp;
  const SlotSearchAlgorithm &Algo =
      Spec.UseAmp ? static_cast<const SlotSearchAlgorithm &>(Amp) : Alp;
  DpOptimizer Dp;
  CallTrace Trace;
  const vobench::TracingSearch TracedAlgo(Algo, Trace);
  const vobench::TracingOptimizer TracedDp(Dp, Trace);
  Metascheduler::Config SchedCfg;
  SchedCfg.Search.MaxAlternativesPerJob = Spec.MaxAlternativesPerJob;
  const Metascheduler Scheduler =
      Traced ? Metascheduler(TracedAlgo, TracedDp, SchedCfg)
             : Metascheduler(Algo, Dp, SchedCfg);

  VirtualOrganization::Config VoCfg;
  VoCfg.IterationPeriod = Spec.Period;
  VoCfg.HorizonLength = Spec.Horizon;
  VoCfg.MaxAttempts = Spec.MaxAttempts;
  VirtualOrganization Vo(std::move(Domain), Scheduler, VoCfg);

  std::optional<PersistentSlotFilter> Shadow;
  std::vector<ResourceRequest> Requests;
  Checker Check(Requests, Diagnostics);
  size_t Cancelled = 0;
  int FailedNode = -1;

  for (int Iter = 0; Iter < Iterations; ++Iter) {
    const bool Timed = Iter >= Spec.WarmupIterations;
    if (Iter == Spec.WarmupIterations)
      Run.SetupSeconds = static_cast<double>(nowNs() - SetupStart) * 1e-9;

    const int64_t Arrivals = ArrivalRng.poisson(Spec.ArrivalRate);
    for (int64_t A = 0; A < Arrivals; ++A) {
      const Job J =
          makeJob(ArrivalRng, static_cast<int>(Requests.size()), Spec);
      Requests.push_back(J.Request);
      Vo.submit(J);
      Q.Submitted += Timed;
    }
    if (Spec.OwnerWrites)
      ownerWrites(Vo, OwnerRng, BasePrices, FailedNode,
                  static_cast<int>(Requests.size()), Cancelled);

    // Traced: publish and sync a shadow filter on exactly the inputs the
    // VO is about to use, timing both (the VO skips them on an empty
    // batch, and so does the shadow).
    IterationSpans S;
    SearchStats ShadowStats;
    const SearchStats FilterBefore = Vo.filterStats();
    if (Traced) {
      const Batch Jobs = Vo.queue().batch();
      if (!Jobs.empty()) {
        const int64_t PublishStart = nowNs();
        const SlotList Slots =
            Vo.domain().vacantSlots(Vo.now(), Vo.clock().horizonEnd());
        const int64_t SyncStart = nowNs();
        if (!Shadow)
          Shadow.emplace(Scheduler.searchAlgo());
        Shadow->sync(Slots, Jobs, &ShadowStats);
        const int64_t SyncEnd = nowNs();
        S.PublishNs = SyncStart - PublishStart;
        S.SyncNs = SyncEnd - SyncStart;
        S.SlotsPublished = Slots.size();
      }
    }
    Trace = CallTrace();
    const size_t CompletedBefore = Vo.completed().size();

    const int64_t Start = nowNs();
    const VirtualOrganization::IterationReport Report = Vo.runIteration();
    const int64_t End = nowNs();

    ++Out.Iterations;
    const size_t Violations = Check.check(Vo, Report, Scheduler.config().Task,
                                          Requests.size(), Cancelled);
    Out.Violations += Violations;
    Out.FailedIterations += Violations != 0;
    if (Traced) {
      const SearchStats &After = Vo.filterStats();
      if (After.FilterViewReuses - FilterBefore.FilterViewReuses !=
              ShadowStats.FilterViewReuses ||
          After.FilterViewRebuilds - FilterBefore.FilterViewRebuilds !=
              ShadowStats.FilterViewRebuilds ||
          After.FilterDeltaOps - FilterBefore.FilterDeltaOps !=
              ShadowStats.FilterDeltaOps)
        ++Out.ShadowMismatches;
    }
    if (!Timed)
      continue;

    Run.IterationNs.push_back(End - Start);
    Run.Committed += Report.Committed;
    Q.Committed += Report.Committed;
    Q.Dropped += Report.Dropped;
    for (const ScheduledJob &SJ : Report.Outcome.Scheduled)
      Q.JobTimeSum += SJ.W.timeSpan().value();
    for (size_t I = CompletedBefore; I < Vo.completed().size(); ++I) {
      Q.WaitSum += static_cast<double>(Vo.completed()[I].Attempts - 1);
      ++Q.Completions;
    }
    if (!Traced)
      continue;

    S.IterationNs = End - Start;
    S.ViewReuses = ShadowStats.FilterViewReuses;
    S.ViewRebuilds = ShadowStats.FilterViewRebuilds;
    S.DeltaOps = ShadowStats.FilterDeltaOps;
    S.SearchCalls = Trace.SearchCalls;
    S.WindowsFound = Trace.WindowsFound;
    S.FindNs = Trace.FindNs;
    S.SlotsExamined = Report.Outcome.Stats.SlotsExamined;
    S.Alternatives = Report.Outcome.Alternatives.total();
    S.SolveCalls = Trace.SolveCalls;
    S.SolveNs = Trace.SolveNs;
    S.ProblemAlternatives = Trace.ProblemAlternatives;
    S.FeasibleSolves = Trace.FeasibleSolves;
    S.BatchLength = Report.QueueLength;
    S.Committed = Report.Committed;
    int64_t Cursor = Start;
    if (Trace.SearchCalls) {
      S.PreNs = Trace.FirstSearchNs - Start - S.PublishNs - S.SyncNs;
      S.SweepNs = Trace.LastSearchEndNs - Trace.FirstSearchNs;
      Cursor = Trace.LastSearchEndNs;
    }
    if (Trace.SolveCalls) {
      S.GapNs = Trace.FirstSolveNs - Cursor;
      Cursor = Trace.LastSolveEndNs;
    }
    S.CommitNs = End - Cursor;
    Out.Spans.push_back(S);
  }

  Run.PeakRssMb = peakRssMb();

  Digest H;
  for (const CompletedJob &C : Vo.completed()) {
    H.add(C.JobId);
    H.add(C.StartTime);
    H.add(C.EndTime);
    H.add(C.Cost);
    H.add(C.Attempts);
  }
  for (const int Id : Vo.dropped())
    H.add(Id);
  H.add(Vo.totalIncome().value());
  return H.value();
}

/// \returns the fastest of ReferenceRepeats timed runs of the reference
/// work.
int64_t referenceNs() {
  static const std::vector<double> Input = [] {
    SplitMix64 G(0x5eed);
    std::vector<double> V(ReferenceElements);
    for (double &X : V)
      X = static_cast<double>(G.next() >> 11);
    return V;
  }();
  int64_t Best = std::numeric_limits<int64_t>::max();
  std::vector<double> V;
  for (int R = 0; R < ReferenceRepeats; ++R) {
    V = Input;
    const int64_t Start = nowNs();
    std::sort(V.begin(), V.end());
    Best = std::min(Best, nowNs() - Start);
  }
  // Uses the result, so the timed sort cannot be optimized away.
  if (!std::is_sorted(V.begin(), V.end()))
    std::abort();
  return Best;
}

/// Runs passes while another one still fits in \p Seconds (at least
/// one). With \p WithQuality the first pass covers every episode and
/// yields the quality counts; all other passes repeat the timing
/// episodes.
PhaseResult runPhase(const WorkloadSpec &Spec, uint64_t Seed, bool Traced,
                     bool WithQuality, double Seconds, size_t &Diagnostics) {
  SplitMix64 Seeds(Seed);
  std::vector<uint64_t> EpisodeSeeds;
  for (int E = 0; E < Spec.Episodes; ++E)
    EpisodeSeeds.push_back(Seeds.next());

  PhaseResult Out;
  Out.Runs.resize(EpisodeSeeds.size());
  Out.EpisodeDigests.resize(EpisodeSeeds.size());
  const int64_t Start = nowNs();
  double SecondsPerEpisode = 0.0;
  const auto Episodes = [&] {
    return static_cast<size_t>(WithQuality && Out.Passes == 0
                                   ? Spec.Episodes
                                   : Spec.TimingEpisodes);
  };
  do {
    const int64_t PassStart = nowNs();
    Quality Counts;
    for (size_t E = 0; E < Episodes(); ++E) {
      const uint64_t Result = runEpisode(Spec, EpisodeSeeds[E], Traced, Out,
                                         Out.Runs[E].emplace_back(), Counts,
                                         Diagnostics);
      if (Out.Runs[E].size() == 1)
        Out.EpisodeDigests[E] = Result;
      else if (Result != Out.EpisodeDigests[E])
        Out.DigestStable = false;
      Out.ReferenceNs = std::min(Out.ReferenceNs, referenceNs());
    }
    SecondsPerEpisode = static_cast<double>(nowNs() - PassStart) * 1e-9 /
                        static_cast<double>(Episodes());
    if (Out.Passes++ == 0)
      Out.AllEpisodes = Counts;
  } while (static_cast<double>(nowNs() - Start) * 1e-9 +
               SecondsPerEpisode * static_cast<double>(Episodes()) <=
           Seconds);
  return Out;
}

/// Index of the nearest-rank \p Q quantile in a sorted sample of \p N.
size_t quantileRank(size_t N, double Q) {
  const auto Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(N)));
  return Rank == 0 ? 0 : Rank - 1;
}

double ratio(double A, double B) { return B != 0.0 ? A / B : 0.0; }

struct Metric {
  std::string Name;
  double Value;
  const char *Unit;
};

double median(std::vector<double> Values) {
  if (Values.empty())
    return 0.0;
  std::sort(Values.begin(), Values.end());
  const size_t N = Values.size();
  return N % 2 ? Values[N / 2] : 0.5 * (Values[N / 2 - 1] + Values[N / 2]);
}

/// A phase's wall-clock figures over the timing episodes. Every run of
/// an episode replays the same iterations, and the host's background
/// load only ever slows an iteration down, so each timed iteration
/// counts with its fastest run — best-of-N, as in
/// scripts/bench_baseline.sh, applied per iteration. The quantiles and
/// the throughput pool those times; set-up is the median over episodes
/// of their fastest set-up. Peak memory is the median over all episode
/// runs, so one outlying episode cannot set the figure.
///
/// Best-of-N removes bursts of load, not drift: a shared host's speed
/// can drift by a fifth over minutes, for everything it runs. The times
/// are therefore reported at the reference speed, multiplied by the
/// phase's hostScale(); the raw figures are printed alongside.
struct Timing {
  /// Raw wall-clock figures, as measured.
  double P50Us = 0.0;
  double P99Us = 0.0;
  double JobsPerSecond = 0.0;
  double SetupSeconds = 0.0;
  double PeakRssMb = 0.0;
  /// Factor that converts the raw times to the reference speed.
  double Scale = 1.0;
  /// Pooled samples and, of them, samples beyond the p99 rank.
  size_t Samples = 0;
  size_t TailSamples = 0;
};

Timing timing(const PhaseResult &P, const WorkloadSpec &Spec) {
  std::vector<int64_t> Pooled;
  std::vector<double> Setups;
  std::vector<double> Peaks;
  size_t Committed = 0;
  for (size_t E = 0; E < P.Runs.size(); ++E) {
    const std::vector<EpisodeTiming> &Runs = P.Runs[E];
    for (const EpisodeTiming &Run : Runs)
      Peaks.push_back(Run.PeakRssMb);
    if (E >= static_cast<size_t>(Spec.TimingEpisodes) || Runs.empty())
      continue;
    std::vector<int64_t> Best = Runs.front().IterationNs;
    double BestSetup = Runs.front().SetupSeconds;
    for (const EpisodeTiming &Run : Runs) {
      for (size_t I = 0; I < Best.size(); ++I)
        Best[I] = std::min(Best[I], Run.IterationNs[I]);
      BestSetup = std::min(BestSetup, Run.SetupSeconds);
    }
    Pooled.insert(Pooled.end(), Best.begin(), Best.end());
    Committed += Runs.front().Committed;
    Setups.push_back(BestSetup);
  }

  Timing T;
  T.PeakRssMb = median(std::move(Peaks));
  T.Scale = P.hostScale();
  if (Pooled.empty())
    return T;
  int64_t TotalNs = 0;
  for (const int64_t Ns : Pooled)
    TotalNs += Ns;
  std::sort(Pooled.begin(), Pooled.end());
  const size_t N = Pooled.size();
  const size_t P99 = quantileRank(N, 0.99);
  T.P50Us = static_cast<double>(Pooled[quantileRank(N, 0.5)]) * 1e-3;
  T.P99Us = static_cast<double>(Pooled[P99]) * 1e-3;
  T.JobsPerSecond = ratio(static_cast<double>(Committed),
                          static_cast<double>(TotalNs) * 1e-9);
  T.SetupSeconds = median(std::move(Setups));
  T.Samples = N;
  T.TailSamples = N - 1 - P99;
  return T;
}

std::vector<Metric> endToEndMetrics(const PhaseResult &P, const Timing &T) {
  const Quality &F = P.AllEpisodes;
  return {
      {"iter_us_p50", T.P50Us * T.Scale, "us"},
      {"iter_us_p99", T.P99Us * T.Scale, "us"},
      {"sched_jobs_per_s", T.JobsPerSecond / T.Scale, "jobs/s"},
      {"setup_s", T.SetupSeconds * T.Scale, "s"},
      {"peak_rss_mb", T.PeakRssMb, "MB"},
      {"failed_share",
       ratio(static_cast<double>(F.Dropped), static_cast<double>(F.Submitted)),
       "ratio"},
      {"job_time_mean",
       ratio(F.JobTimeSum, static_cast<double>(F.Committed)), "simtime"},
      {"wait_iters_mean",
       ratio(F.WaitSum, static_cast<double>(F.Completions)), "iterations"},
  };
}

std::vector<Metric> perLayerMetrics(const PhaseResult &Traced,
                                    double TraceOverhead) {
  IterationSpans Sum;
  for (const IterationSpans &S : Traced.Spans) {
    Sum.IterationNs += S.IterationNs;
    Sum.PublishNs += S.PublishNs;
    Sum.SyncNs += S.SyncNs;
    Sum.PreNs += S.PreNs;
    Sum.SweepNs += S.SweepNs;
    Sum.FindNs += S.FindNs;
    Sum.GapNs += S.GapNs;
    Sum.SolveNs += S.SolveNs;
    Sum.CommitNs += S.CommitNs;
    Sum.SlotsPublished += S.SlotsPublished;
    Sum.ViewReuses += S.ViewReuses;
    Sum.ViewRebuilds += S.ViewRebuilds;
    Sum.DeltaOps += S.DeltaOps;
    Sum.SearchCalls += S.SearchCalls;
    Sum.WindowsFound += S.WindowsFound;
    Sum.SlotsExamined += S.SlotsExamined;
    Sum.Alternatives += S.Alternatives;
    Sum.SolveCalls += S.SolveCalls;
    Sum.ProblemAlternatives += S.ProblemAlternatives;
    Sum.FeasibleSolves += S.FeasibleSolves;
    Sum.BatchLength += S.BatchLength;
    Sum.Committed += S.Committed;
  }
  const auto N = static_cast<double>(Traced.Spans.size());
  const auto Total = static_cast<double>(Sum.IterationNs);
  // Per-iteration mean microseconds at the reference speed.
  const auto MeanUs = [&](double Ns) {
    return ratio(Ns * 1e-3, N) * Traced.hostScale();
  };
  std::vector<Metric> Out;
  // A per-iteration mean in microseconds plus its share of iteration time.
  const auto Span = [&](const char *Name, int64_t Ns) {
    Out.push_back({Name, MeanUs(static_cast<double>(Ns)), "us"});
    Out.push_back({std::string(Name) + ".share",
                   ratio(static_cast<double>(Ns), Total), "ratio"});
  };
  const auto PerIteration = [&](const char *Name, size_t Count) {
    Out.push_back({Name, ratio(static_cast<double>(Count), N), "count"});
  };
  const auto Ratio = [&](const char *Name, size_t Part, size_t Whole) {
    Out.push_back({Name,
                   ratio(static_cast<double>(Part), static_cast<double>(Whole)),
                   "ratio"});
  };

  Span("sim.publish_us", Sum.PublishNs);
  PerIteration("sim.slots_published", Sum.SlotsPublished);
  Span("core.filter.sync_us", Sum.SyncNs);
  PerIteration("core.filter.view_reuses", Sum.ViewReuses);
  PerIteration("core.filter.view_rebuilds", Sum.ViewRebuilds);
  PerIteration("core.filter.delta_ops", Sum.DeltaOps);
  Ratio("core.filter.reuse_ratio", Sum.ViewReuses,
        Sum.ViewReuses + Sum.ViewRebuilds);
  Span("core.search.pre_us", Sum.PreNs);
  Span("core.search.sweep_us", Sum.SweepNs);
  Span("core.search.find_us", Sum.FindNs);
  PerIteration("core.search.calls", Sum.SearchCalls);
  Ratio("core.search.hit_ratio", Sum.WindowsFound, Sum.SearchCalls);
  PerIteration("core.search.slots_examined", Sum.SlotsExamined);
  PerIteration("core.search.alternatives", Sum.Alternatives);
  Span("core.limits.gap_us", Sum.GapNs);
  Span("core.optimizer.solve_us", Sum.SolveNs);
  PerIteration("core.optimizer.calls", Sum.SolveCalls);
  Out.push_back({"core.optimizer.problem_alts",
                 ratio(static_cast<double>(Sum.ProblemAlternatives),
                       static_cast<double>(Sum.SolveCalls)),
                 "count"});
  Ratio("core.optimizer.feasible_ratio", Sum.FeasibleSolves, Sum.SolveCalls);
  Span("engine.commit_us", Sum.CommitNs);
  Out.push_back({"engine.iteration_us", MeanUs(Total), "us"});
  PerIteration("engine.batch_len", Sum.BatchLength);
  PerIteration("engine.committed", Sum.Committed);
  Out.push_back({"engine.span_coverage",
                 ratio(static_cast<double>(Sum.coveredNs()), Total), "ratio"});
  Out.push_back({"trace_overhead", TraceOverhead, "ratio"});
  return Out;
}

/// Writes the traced per-iteration spans as JSON lines.
bool writeSpans(const std::string &Path, const PhaseResult &Traced) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  for (const IterationSpans &S : Traced.Spans)
    std::fprintf(
        F,
        "{\"iteration_ns\":%lld,\"publish_ns\":%lld,\"sync_ns\":%lld,"
        "\"pre_ns\":%lld,\"sweep_ns\":%lld,\"find_ns\":%lld,\"gap_ns\":%lld,"
        "\"solve_ns\":%lld,\"commit_ns\":%lld,\"slots\":%zu,\"reuses\":%zu,"
        "\"rebuilds\":%zu,\"delta_ops\":%zu,\"search_calls\":%zu,"
        "\"windows\":%zu,\"slots_examined\":%zu,\"alternatives\":%zu,"
        "\"solve_calls\":%zu,\"problem_alts\":%zu,\"feasible\":%zu,"
        "\"batch\":%zu,\"committed\":%zu}\n",
        static_cast<long long>(S.IterationNs),
        static_cast<long long>(S.PublishNs), static_cast<long long>(S.SyncNs),
        static_cast<long long>(S.PreNs), static_cast<long long>(S.SweepNs),
        static_cast<long long>(S.FindNs), static_cast<long long>(S.GapNs),
        static_cast<long long>(S.SolveNs), static_cast<long long>(S.CommitNs),
        S.SlotsPublished, S.ViewReuses, S.ViewRebuilds, S.DeltaOps,
        S.SearchCalls, S.WindowsFound, S.SlotsExamined, S.Alternatives,
        S.SolveCalls, S.ProblemAlternatives, S.FeasibleSolves, S.BatchLength,
        S.Committed);
  return std::fclose(F) == 0;
}

void printParams(const WorkloadSpec &Spec) {
  std::printf("\"params\":{\"search\":\"%s\",\"nodes\":%d,\"period\":%g,"
              "\"horizon\":%g,\"arrival_rate\":%g,\"max_attempts\":%d,"
              "\"price_cap_factor\":%g,\"max_alternatives_per_job\":%zu,"
              "\"owner_writes\":%s,\"episodes\":%d,\"timing_episodes\":%d,"
              "\"warmup_iterations\":%d,"
              "\"timed_iterations\":%d}",
              Spec.UseAmp ? "AMP" : "ALP", Spec.Nodes, Spec.Period,
              Spec.Horizon, Spec.ArrivalRate, Spec.MaxAttempts,
              Spec.PriceCapFactor, Spec.MaxAlternativesPerJob,
              Spec.OwnerWrites ? "true" : "false", Spec.Episodes,
              Spec.TimingEpisodes,
              Spec.WarmupIterations, Spec.TimedIterations);
}

const char *boolText(bool B) { return B ? "true" : "false"; }

} // namespace

int main(int Argc, char **Argv) {
  ArgParser Args("vo_bench", "end-to-end VO iteration benchmark");
  const std::string &WorkloadName =
      Args.addString("workload", "amp-steady", "traffic shape to run");
  const int64_t &Seed = Args.addInt("seed", 2011, "workload seed");
  const double &Seconds =
      Args.addReal("seconds", 10.0, "measurement budget in seconds");
  const int64_t &TraceMode =
      Args.addInt("trace", 0, "1 adds the traced run and per-layer metrics");
  const bool &Smoke = Args.addBool(
      "smoke", false, "one short episode per pass; no p99 sample floor");
  const std::string &SpansPath = Args.addString(
      "spans", "", "write the traced per-iteration spans here (JSON lines)");
  if (!Args.parse(Argc, Argv))
    return 2;

  const WorkloadSpec *Found = nullptr;
  for (const WorkloadSpec &W : Workloads)
    if (WorkloadName == W.Name)
      Found = &W;
  if (!Found || (TraceMode != 0 && TraceMode != 1) || !(Seconds >= 0.0)) {
    std::fprintf(stderr, "vo_bench: unknown workload '%s' or bad flags\n",
                 WorkloadName.c_str());
    return 2;
  }
  WorkloadSpec Spec = *Found;
  if (Smoke) {
    Spec.Episodes = 1;
    Spec.TimingEpisodes = 1;
    Spec.WarmupIterations = 12;
    Spec.TimedIterations = 30;
  }
  const bool Traced = TraceMode == 1;
  const auto RunSeed = static_cast<uint64_t>(Seed);

  // The traced mode reports no quality figures; it splits the budget
  // between an untraced and a traced phase over the timing episodes.
  size_t Diagnostics = 0;
  const PhaseResult Plain =
      runPhase(Spec, RunSeed, /*Traced=*/false, /*Quality=*/!Traced,
               Traced ? Seconds / 2 : Seconds, Diagnostics);
  const Timing PlainT = timing(Plain, Spec);
  std::optional<PhaseResult> WithTrace;
  if (Traced)
    WithTrace = runPhase(Spec, RunSeed, /*Traced=*/true, /*Quality=*/false,
                         Seconds / 2, Diagnostics);

  // Correctness: no violation, digests reproduced by every pass (and by
  // the traced run), and the traced run's own consistency checks.
  const size_t Violations =
      Plain.Violations + (WithTrace ? WithTrace->Violations : 0);
  const bool DigestsStable =
      Plain.DigestStable && (!WithTrace || WithTrace->DigestStable);
  const bool TracedDigestMatches =
      !WithTrace || WithTrace->EpisodeDigests == Plain.EpisodeDigests;
  const size_t ShadowMismatches = WithTrace ? WithTrace->ShadowMismatches : 0;
  std::vector<Metric> Metrics;
  double SpanCoverage = 1.0;
  bool TailOk = true;
  if (WithTrace) {
    const Timing TracedT = timing(*WithTrace, Spec);
    Metrics = perLayerMetrics(*WithTrace,
                              ratio(TracedT.P50Us * TracedT.Scale,
                                    PlainT.P50Us * PlainT.Scale));
    for (const Metric &M : Metrics)
      if (M.Name == "engine.span_coverage")
        SpanCoverage = M.Value;
    if (!SpansPath.empty() && !writeSpans(SpansPath, *WithTrace)) {
      std::fprintf(stderr, "vo_bench: cannot write %s\n", SpansPath.c_str());
      return 1;
    }
  } else {
    Metrics = endToEndMetrics(Plain, PlainT);
    TailOk = Smoke || PlainT.TailSamples >= 10;
  }
  const bool CoverageOk = SpanCoverage >= 0.95;
  const bool Correct = Violations == 0 && DigestsStable &&
                       TracedDigestMatches && ShadowMismatches == 0 &&
                       CoverageOk && TailOk;

  const size_t Attempted =
      Plain.Iterations + (WithTrace ? WithTrace->Iterations : 0);
  const size_t Failed =
      Plain.FailedIterations + (WithTrace ? WithTrace->FailedIterations : 0);

  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,",
              Spec.Name, static_cast<unsigned long long>(RunSeed),
              Traced ? 1 : 0);
  printParams(*Found);
  std::printf(",\"smoke\":%s,\"passes\":%zu,\"traced_passes\":%zu,"
              "\"samples\":%zu,"
              "\"p99_tail_samples\":%zu,\"attempted\":%zu,\"failed\":%zu,"
              "\"violations\":%zu,\"digest\":\"%016llx\","
              "\"digest_stable\":%s,\"traced_digest_matches\":%s,"
              "\"shadow_mismatches\":%zu,\"span_coverage\":%.6f,"
              "\"reference_us\":%.3f,\"host_scale\":%.6f,"
              "\"raw\":{\"iter_us_p50\":%.3f,\"iter_us_p99\":%.3f,"
              "\"sched_jobs_per_s\":%.3f,\"setup_s\":%.6f},"
              "\"correct\":%s,\"metrics\":{",
              boolText(Smoke), Plain.Passes,
              WithTrace ? WithTrace->Passes : 0,
              PlainT.Samples, PlainT.TailSamples, Attempted, Failed,
              Violations, static_cast<unsigned long long>(Plain.digest()),
              boolText(DigestsStable), boolText(TracedDigestMatches),
              ShadowMismatches, SpanCoverage,
              static_cast<double>(Plain.ReferenceNs) * 1e-3, PlainT.Scale,
              PlainT.P50Us, PlainT.P99Us, PlainT.JobsPerSecond,
              PlainT.SetupSeconds, boolText(Correct));
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}", I ? "," : "",
                Metrics[I].Name.c_str(), Metrics[I].Value, Metrics[I].Unit);
  std::printf("}}\n");
  return 0;
}
