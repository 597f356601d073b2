//===- bench_switchapp.cpp - E6: the call-processing case study -------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The §6 claim: a large multi-process call-processing application can be
// closed completely automatically (manual closing is impractical) and then
// analyzed with VeriSoft. Sweeps the application size and reports, per
// configuration: source size, interface size eliminated, closing time, and
// exploration results (including whether the seeded trunk-leak defect is
// found). Exits 1 when a configuration does not close completely or the
// seeded defect is not found.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "explorer/Search.h"
#include "switchapp/SwitchApp.h"

#include <chrono>

using namespace closer;

int main() {
  std::printf("E6: automatic closing of the call-processing application\n\n");
  std::printf("%-8s %-10s %-8s %-8s %-8s %-10s %-8s %-10s %-10s\n", "lines",
              "src-bytes", "procs", "procsS", "nodes", "env-gone", "tosses",
              "close-ms", "closed?");
  bool AllClosed = true;
  for (int Lines : {1, 2, 4, 8, 16, 32}) {
    SwitchAppConfig Config;
    Config.NumLines = Lines;
    Config.EventsPerLine = 3;
    Config.HandlerVariants = Lines; // Code size scales with lines.
    std::string Source = generateSwitchAppSource(Config);
    auto Mod = benchCompile(Source);

    auto Start = std::chrono::steady_clock::now();
    ClosingStats Stats;
    Module Closed = closeModule(*Mod, {}, &Stats);
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    EnvAnalysis After(Closed);
    AllClosed &= After.moduleIsClosed();
    std::printf("%-8d %-10zu %-8zu %-8zu %-8zu %-10zu %-8zu %-10.2f %-10s\n",
                Lines, Source.size(), Mod->Procs.size(),
                Mod->Processes.size(), Stats.NodesBefore,
                Stats.EnvCallsRemoved, Stats.TossNodesInserted, Ms,
                After.moduleIsClosed() ? "yes" : "NO");
  }

  std::printf("\nbug hunt: seeded trunk leak (2 lines, 1 trunk, 2 events)\n");
  SwitchAppConfig Buggy;
  Buggy.NumLines = 2;
  Buggy.NumTrunks = 1;
  Buggy.EventsPerLine = 2;
  Buggy.WithRegistration = false;
  Buggy.WithForwarding = false;
  Buggy.SeedTrunkLeakBug = true;
  CloseResult R = closeSource(generateSwitchAppSource(Buggy));
  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.StopOnFirstError = true;
  SearchResult Hunt = explore(*R.Closed, Opts);
  std::printf("search: %s\n", Hunt.Stats.str().c_str());
  bool Found = !Hunt.Reports.empty() &&
               Hunt.Reports[0].Kind == ErrorReport::Type::Deadlock;
  if (Found)
    std::printf("defect FOUND (deadlock at depth %zu, trace recorded)\n\n",
                Hunt.Reports[0].Depth);
  else
    std::printf("defect NOT FOUND\n\n");
  return AllClosed && Found ? 0 : 1;
}
