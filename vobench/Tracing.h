//===-- vobench/Tracing.h - Outside-in layer tracing ------------*- C++ -*-===//
//
// Part of EcoSched, a reproduction of "Slot Selection and Co-allocation for
// Economic Scheduling in Distributed Computing" (Toporkov et al., PaCT 2011).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Forwarding decorators that time the core layers of a VO iteration
/// from outside, through their public interfaces only. TracingSearch
/// wraps a SlotSearchAlgorithm and TracingOptimizer a
/// CombinationOptimizer; both forward every virtual unchanged to the
/// wrapped object and record, into a CallTrace the benchmark resets
/// before each runIteration, the call count, the time spent inside the
/// calls and the first and last call timestamps. A Metascheduler built
/// on the decorators schedules exactly as one built on the wrapped
/// objects, which the benchmark checks with a result digest.
///
//===----------------------------------------------------------------------===//

#ifndef ECOSCHED_VOBENCH_TRACING_H
#define ECOSCHED_VOBENCH_TRACING_H

#include "core/Optimizer.h"
#include "core/SearchAlgorithm.h"

#include <chrono>
#include <cstdint>

namespace vobench {

/// Monotonic wall clock in nanoseconds.
inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What the decorators saw during one runIteration call. Timestamps
/// are nowNs() values; -1 means no call happened.
struct CallTrace {
  int64_t FirstSearchNs = -1;
  int64_t LastSearchEndNs = -1;
  int64_t FindNs = 0;
  size_t SearchCalls = 0;
  size_t WindowsFound = 0;

  int64_t FirstSolveNs = -1;
  int64_t LastSolveEndNs = -1;
  int64_t SolveNs = 0;
  size_t SolveCalls = 0;
  /// Sum over solve() calls of the alternatives in the problem.
  size_t ProblemAlternatives = 0;
  size_t FeasibleSolves = 0;
};

/// SlotSearchAlgorithm decorator timing findWindow/findWindowFiltered.
class TracingSearch final : public ecosched::SlotSearchAlgorithm {
public:
  TracingSearch(const ecosched::SlotSearchAlgorithm &Inner, CallTrace &Trace)
      : Inner(Inner), Trace(Trace) {}

  std::string_view name() const override { return Inner.name(); }

  std::optional<ecosched::Window>
  findWindow(const ecosched::SlotList &List,
             const ecosched::ResourceRequest &Request,
             ecosched::SearchStats *Stats) const override {
    const int64_t Start = nowNs();
    std::optional<ecosched::Window> W = Inner.findWindow(List, Request, Stats);
    record(Start, W.has_value());
    return W;
  }

  std::optional<ecosched::Window>
  findWindowFiltered(const ecosched::SlotList &Filtered,
                     const ecosched::ResourceRequest &Request,
                     ecosched::SearchStats *Stats) const override {
    const int64_t Start = nowNs();
    std::optional<ecosched::Window> W =
        Inner.findWindowFiltered(Filtered, Request, Stats);
    record(Start, W.has_value());
    return W;
  }

  bool admits(const ecosched::Slot &S,
              const ecosched::ResourceRequest &Request) const override {
    return Inner.admits(S, Request);
  }

  bool
  admitsRemainder(const ecosched::Slot &Piece,
                  const ecosched::ResourceRequest &Request) const override {
    return Inner.admitsRemainder(Piece, Request);
  }

  bool supportsSpeculativeReuse() const override {
    return Inner.supportsSpeculativeReuse();
  }

private:
  void record(int64_t Start, bool Found) const {
    const int64_t End = nowNs();
    if (Trace.FirstSearchNs < 0)
      Trace.FirstSearchNs = Start;
    Trace.LastSearchEndNs = End;
    Trace.FindNs += End - Start;
    ++Trace.SearchCalls;
    Trace.WindowsFound += Found;
  }

  const ecosched::SlotSearchAlgorithm &Inner;
  CallTrace &Trace;
};

/// CombinationOptimizer decorator timing every solve().
class TracingOptimizer final : public ecosched::CombinationOptimizer {
public:
  TracingOptimizer(const ecosched::CombinationOptimizer &Inner,
                   CallTrace &Trace)
      : Inner(Inner), Trace(Trace) {}

  std::string_view name() const override { return Inner.name(); }

  ecosched::CombinationChoice
  solve(const ecosched::CombinationProblem &Problem) const override {
    const int64_t Start = nowNs();
    ecosched::CombinationChoice Choice = Inner.solve(Problem);
    const int64_t End = nowNs();
    if (Trace.FirstSolveNs < 0)
      Trace.FirstSolveNs = Start;
    Trace.LastSolveEndNs = End;
    Trace.SolveNs += End - Start;
    ++Trace.SolveCalls;
    for (const auto &Alternatives : Problem.PerJob)
      Trace.ProblemAlternatives += Alternatives.size();
    Trace.FeasibleSolves += Choice.Feasible;
    return Choice;
  }

private:
  const ecosched::CombinationOptimizer &Inner;
  CallTrace &Trace;
};

} // namespace vobench

#endif // ECOSCHED_VOBENCH_TRACING_H
