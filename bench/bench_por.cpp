//===- bench_por.cpp - E7: partial-order reduction effectiveness ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// VeriSoft's state-less search is made tractable by persistent-set and
// sleep-set partial-order reduction ([God96], cited as the key enabler in
// §2). Two workload families:
//
//  * independent pairs (disjoint footprints): persistent sets collapse the
//    exponential interleaving product to a single order — expect states to
//    stay flat instead of exploding with the pair count;
//  * dining philosophers (cyclic conflicts): persistent sets cannot split
//    the processes, sleep sets still prune commuting schedules; deadlock
//    detection must survive the reduction.
//
// Exits 1 when a reduced search visits no fewer states than the full one,
// or a philosophers row finds no deadlock.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "explorer/Search.h"

using namespace closer;

namespace {

SearchStats explore(const Module &Mod, bool Persistent, bool Sleep,
                    size_t Depth = 64, uint64_t MaxRuns = 2000000) {
  SearchOptions Opts;
  Opts.MaxDepth = Depth;
  Opts.MaxRuns = MaxRuns;
  Opts.UsePersistentSets = Persistent;
  Opts.UseSleepSets = Sleep;
  return explore(Mod, Opts).Stats;
}

SearchStats reportRow(const char *Workload, const char *Mode,
                      const SearchStats &Stats) {
  std::printf("%-22s %-18s %10llu %10llu %10llu %9llu %s\n", Workload, Mode,
              static_cast<unsigned long long>(Stats.StatesVisited),
              static_cast<unsigned long long>(Stats.Runs),
              static_cast<unsigned long long>(Stats.TreeTransitions),
              static_cast<unsigned long long>(Stats.Deadlocks),
              Stats.Completed ? "" : "(budget!)");
  return Stats;
}

} // namespace

int main() {
  std::printf("E7: partial-order reduction (persistent + sleep sets)\n\n");
  std::printf("%-22s %-18s %10s %10s %10s %9s\n", "workload", "mode",
              "states", "paths", "trans", "deadlocks");

  bool Reduced = true, DeadlocksKept = true;
  for (int Pairs = 2; Pairs <= 4; ++Pairs) {
    auto Mod = benchCompile(independentPairsProgram(Pairs));
    std::string Name = "pairs=" + std::to_string(Pairs);
    SearchStats Full = reportRow(Name.c_str(), "full",
                                 explore(*Mod, false, false, 64, 300000));
    reportRow(Name.c_str(), "sleep-only", explore(*Mod, false, true));
    SearchStats Por = reportRow(Name.c_str(), "persistent+sleep",
                                explore(*Mod, true, true));
    Reduced &= Por.StatesVisited < Full.StatesVisited;
  }
  for (int N = 3; N <= 4; ++N) {
    auto Mod = benchCompile(philosophersProgram(N));
    std::string Name = "philosophers=" + std::to_string(N);
    SearchStats Full = reportRow(Name.c_str(), "full",
                                 explore(*Mod, false, false, 64, 300000));
    SearchStats Por = reportRow(Name.c_str(), "persistent+sleep",
                                explore(*Mod, true, true));
    Reduced &= Por.StatesVisited < Full.StatesVisited;
    DeadlocksKept &= Full.Deadlocks && Por.Deadlocks;
  }
  std::printf("\nDeadlock counts must be nonzero in every philosophers row: "
              "the reduction\npreserves deadlocks while cutting states.\n");
  std::printf("reduction cuts states in every workload: %s\n",
              Reduced ? "YES" : "NO (BUG)");
  std::printf("deadlock found in every philosophers row: %s\n\n",
              DeadlocksKept ? "YES" : "NO (BUG)");
  return Reduced && DeadlocksKept ? 0 : 1;
}
