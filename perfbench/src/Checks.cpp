//===- Checks.cpp - Reference checks of workload answers -------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "closing/Pipeline.h"
#include "explorer/Replay.h"

#include <cctype>

using namespace closer;

namespace perfbench {

uint64_t gridStateCount(int Iters) {
  uint64_t PerProcess = 2 * static_cast<uint64_t>(Iters) + 1;
  return PerProcess * PerProcess;
}

std::string checkGridRun(const SearchResult &R, int Iters) {
  const SearchStats &S = R.Stats;
  if (!S.Completed)
    return "grid exploration did not complete";
  if (S.CacheSaturated)
    return "grid exploration saturated the state cache (" +
           std::to_string(S.CacheSaturated) + " declined inserts)";
  if (S.DepthLimitHits)
    return "grid exploration hit the depth limit";
  uint64_t Want = gridStateCount(Iters);
  if (S.CacheInserts != Want)
    return "grid cache inserts " + std::to_string(S.CacheInserts) +
           " != (2*" + std::to_string(Iters) + "+1)^2 = " +
           std::to_string(Want);
  return "";
}

std::string checkDeadlockReport(const Module &Closed, const SearchResult &R) {
  if (R.Reports.empty())
    return "no error reported";
  const ErrorReport &Rep = R.Reports.front();
  if (Rep.Kind != ErrorReport::Type::Deadlock)
    return "first report is not a deadlock";
  ReplayResult Replay = replayChoices(Closed, Rep.Choices);
  if (!Replay.Faithful)
    return "replay of the reported choices was not faithful";
  if (Replay.Error)
    return "replay of the reported choices raised: " + Replay.Error.str();
  if (Replay.Final != GlobalStateKind::Deadlock)
    return "replay of the reported choices does not end in a deadlock";
  return "";
}

bool containsEnvToken(const std::string &Text) {
  auto IsIdent = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_';
  };
  for (const char *Tok : {"env_input", "env_output"}) {
    std::string T(Tok);
    for (size_t Pos = Text.find(T); Pos != std::string::npos;
         Pos = Text.find(T, Pos + 1)) {
      bool Starts = Pos == 0 || !IsIdent(Text[Pos - 1]);
      size_t End = Pos + T.size();
      bool Ends = End == Text.size() || !IsIdent(Text[End]);
      if (Starts && Ends)
        return true;
    }
  }
  return false;
}

std::string checkClosedSource(const std::string &Emitted) {
  if (containsEnvToken(Emitted))
    return "closed source still calls the environment";
  DiagnosticEngine Diags;
  if (!compileAndVerify(Emitted, Diags))
    return "closed source does not re-parse and verify: " + Diags.str();
  return "";
}

} // namespace perfbench
