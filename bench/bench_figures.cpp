//===- bench_figures.cpp - E1/E2: regenerate Figures 2 and 3 ----------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Regenerates the paper's Figure 2 (procedure p and its closed form G'_p)
// and Figure 3 (procedure q — same closed form, optimal translation), then
// explores the closed Figure 3 program once, timed, to count its paths.
// Exits 1 when close(p) != close(q) or the path count is not 2^10.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "cfg/CfgPrinter.h"
#include "explorer/Search.h"

#include <chrono>

using namespace closer;

namespace {

const char *figure2() {
  return R"(
chan evens[16];
chan odds[16];

proc p(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    cnt = cnt + 1;
  }
}

process main = p(env);
)";
}

const char *figure3() {
  return R"(
chan evens[16];
chan odds[16];

proc q(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    x = x / 2;
    cnt = cnt + 1;
  }
}

process main = q(env);
)";
}

/// Prints the open program, both CFGs, the closed source and the closing
/// statistics; returns the closing result for the in-line checks.
CloseResult printFigure(const char *Title, const char *Source) {
  std::printf("==================================================\n");
  std::printf("%s\n", Title);
  std::printf("==================================================\n");
  std::printf("--- original (open) ---\n%s\n", Source);
  CloseResult R = closeSource(Source);
  if (!R.ok()) {
    std::printf("closing failed:\n%s\n", R.Diags.str().c_str());
    return R;
  }
  const ProcCfg &Orig = R.Open->Procs[0];
  const ProcCfg &Closed = R.Closed->Procs[0];
  std::printf("--- original control-flow graph ---\n%s\n",
              printCfg(Orig).c_str());
  std::printf("--- closed control-flow graph ---\n%s\n",
              printCfg(Closed).c_str());
  std::printf("--- closed program (source form) ---\n%s\n",
              emitModuleSource(*R.Closed).c_str());
  std::printf("statistics: nodes %zu -> %zu, toss nodes %zu, params "
              "removed %zu, statements eliminated %zu\n\n",
              R.Stats.NodesBefore, R.Stats.NodesAfter,
              R.Stats.TossNodesInserted, R.Stats.ParamsRemoved,
              R.Stats.NodesEliminated);
  return R;
}

} // namespace

int main() {
  CloseResult Rp = printFigure(
      "Figure 2: procedure p -> G'_p (strict over-approximation)", figure2());
  CloseResult Rq = printFigure("Figure 3: procedure q -> G'_q (optimal "
                               "translation; identical to G'_p)",
                               figure3());
  if (!Rp.ok() || !Rq.ok())
    return 1;

  // Verify the headline claim in-line for the record.
  std::string Lp = printCfg(Rp.Closed->Procs[0]);
  std::string Lq = printCfg(Rq.Closed->Procs[0]);
  Lp.erase(0, Lp.find('\n'));
  Lq.erase(0, Lq.find('\n'));
  bool Same = Lp == Lq;
  std::printf("close(p) == close(q) (modulo name): %s\n",
              Same ? "YES (paper's claim reproduced)" : "NO (BUG)");

  // Optimality of the Figure 3 translation: every one of the 2^10 branch
  // sequences is a path of the closed program.
  SearchOptions Opts;
  Opts.MaxDepth = 25;
  auto T0 = std::chrono::steady_clock::now();
  SearchStats Stats = explore(*Rq.Closed, Opts).Stats;
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  bool AllPaths = Stats.Completed && Stats.Runs == 1024;
  std::printf("closed Figure 3 program, depth 25: paths=%llu states=%llu "
              "(%.1f ms) — %s\n",
              static_cast<unsigned long long>(Stats.Runs),
              static_cast<unsigned long long>(Stats.StatesVisited), Ms,
              AllPaths ? "all 2^10 branch sequences" : "NOT 2^10 (BUG)");
  return Same && AllPaths ? 0 : 1;
}
