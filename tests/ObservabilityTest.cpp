//===- ObservabilityTest.cpp - Stats JSON / progress / graceful stop --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The explorer's observability surface:
//  * `--stats-json` artifacts reflect the in-memory SearchStats
//    field-for-field and carry the schema discriminator;
//  * `--progress` emits well-formed machine-scrapable stderr lines;
//  * a `--time-budget`-stopped run reports Interrupted=true and emits
//    resume prefixes that replay faithfully against the same program.
//
// The subprocess tests drive the real `closer` binary (CLOSER_BIN).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"
#include "closing/Pipeline.h"
#include "explorer/Observability.h"
#include "explorer/Replay.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace closer;

namespace {

// ---------------------------------------------------------------------------
// In-process: statsToJson / runArtifactToJson.
// ---------------------------------------------------------------------------

TEST(ObservabilityTest, StatsJsonFieldForField) {
  SearchStats S;
  // Distinct value per field so a swapped key assignment cannot cancel out.
  S.Runs = 3;
  S.Transitions = 5;
  S.TreeTransitions = 7;
  S.TransitionsReplayed = 11;
  S.TransitionsRestored = 13;
  S.StatesVisited = 17;
  S.Deadlocks = 19;
  S.Terminations = 23;
  S.AssertionViolations = 29;
  S.Divergences = 31;
  S.RuntimeErrors = 37;
  S.DepthLimitHits = 41;
  S.SleepSetPrunes = 43;
  S.HashPrunes = 47;
  S.CacheHits = 67;
  S.CacheInserts = 71;
  S.CacheSaturated = 73;
  S.ReportsDropped = 53;
  S.Steals = 79;
  S.Wakeups = 83;
  S.ArenaBytes = 89;
  S.PoolFresh = 97;
  S.VisibleOpsCovered = 59;
  S.VisibleOpsTotal = 61;
  S.Completed = true;
  S.Interrupted = false;
  S.WallSeconds = 0.5;

  std::string J = statsToJson(S).str();
  auto field = [&](const std::string &KV) {
    EXPECT_NE(J.find(KV), std::string::npos) << KV << " missing in " << J;
  };
  field("\"runs\": 3");
  field("\"transitions\": 5");
  field("\"tree_transitions\": 7");
  field("\"transitions_replayed\": 11");
  field("\"transitions_restored\": 13");
  field("\"states_visited\": 17");
  field("\"deadlocks\": 19");
  field("\"terminations\": 23");
  field("\"assertion_violations\": 29");
  field("\"divergences\": 31");
  field("\"runtime_errors\": 37");
  field("\"depth_limit_hits\": 41");
  field("\"sleep_set_prunes\": 43");
  field("\"hash_prunes\": 47");
  field("\"cache_hits\": 67");
  field("\"cache_inserts\": 71");
  field("\"cache_saturated\": 73");
  field("\"reports_dropped\": 53");
  field("\"steals\": 79");
  field("\"wakeups\": 83");
  field("\"arena_bytes\": 89");
  field("\"pool_fresh\": 97");
  field("\"visible_ops_covered\": 59");
  field("\"visible_ops_total\": 61");
  field("\"completed\": true");
  field("\"interrupted\": false");
  field("\"wall_seconds\": 0.5");
}

// The bug-seeded two-philosopher shape: deadlock exists, small state space.
const char *DeadlockProgram = R"(
sem a(1);
sem b(1);
proc left() {
  sem_wait(a);
  sem_wait(b);
  sem_signal(b);
  sem_signal(a);
}
proc right() {
  sem_wait(b);
  sem_wait(a);
  sem_signal(a);
  sem_signal(b);
}
process l = left();
process r = right();
)";

TEST(ObservabilityTest, RunArtifactMatchesInMemoryStats) {
  DiagnosticEngine Diags;
  auto Mod = compileAndVerify(DeadlockProgram, Diags);
  ASSERT_TRUE(Mod) << Diags.str();

  SearchOptions Opts;
  Opts.MaxDepth = 30;
  SearchResult Result = explore(*Mod, Opts);
  const SearchStats &Stats = Result.Stats;
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GT(Stats.Deadlocks, 0u);

  json::Value Root = runArtifactToJson(Result);
  // Compact mode nests sub-objects byte-identically to their standalone
  // serialization, so the artifact's "stats" member can be checked against
  // statsToJson of the in-memory result as a plain substring.
  std::string J = Root.str();
  EXPECT_NE(J.find(statsToJson(Stats).str()), std::string::npos) << J;
  EXPECT_NE(J.find("\"schema\": \"closer-explore-stats-v1\""),
            std::string::npos);
  EXPECT_NE(J.find("\"interrupted\": false"), std::string::npos);
  EXPECT_NE(J.find("\"kind\": \"deadlock\""), std::string::npos);
  // Reports carry the erroneous state's identity.
  EXPECT_NE(J.find("\"state_fingerprint\": "), std::string::npos);
  // Completed run: nothing to resume.
  EXPECT_NE(J.find("\"resume\": []"), std::string::npos);
  EXPECT_TRUE(Result.Resume.empty());

  // Per-worker breakdown: with the default Jobs=1 a single sequential
  // entry whose counters equal the total (only the aggregate carries the
  // run's wall clock).
  ASSERT_EQ(Result.Workers.size(), 1u);
  SearchStats Worker = Result.Workers[0];
  SearchStats Total = Stats;
  Worker.WallSeconds = Total.WallSeconds = 0;
  EXPECT_EQ(statsToJson(Worker).str(), statsToJson(Total).str());
}

// ---------------------------------------------------------------------------
// Subprocess tests against the real binary.
// ---------------------------------------------------------------------------

/// Producer/consumer pairs on disjoint channels: closed, error-free, and an
/// interleaving space far too large to exhaust in a test's time budget.
std::string bigWorkload(int Pairs, int Msgs) {
  std::string S;
  for (int I = 0; I != Pairs; ++I)
    S += "chan link" + std::to_string(I) + "[1];\n";
  for (int I = 0; I != Pairs; ++I) {
    std::string Ch = "link" + std::to_string(I);
    S += "proc prod" + std::to_string(I) + "() {\n";
    S += "  var k;\n";
    S += "  for (k = 0; k < " + std::to_string(Msgs) + "; k = k + 1)\n";
    S += "    send(" + Ch + ", k);\n";
    S += "}\n";
    S += "proc cons" + std::to_string(I) + "() {\n";
    S += "  var k;\n  var v;\n";
    S += "  for (k = 0; k < " + std::to_string(Msgs) + "; k = k + 1)\n";
    S += "    v = recv(" + Ch + ");\n";
    S += "}\n";
  }
  for (int I = 0; I != Pairs; ++I) {
    S += "process sp" + std::to_string(I) + " = prod" + std::to_string(I) +
         "();\n";
    S += "process sc" + std::to_string(I) + " = cons" + std::to_string(I) +
         "();\n";
  }
  return S;
}

std::string tempPath(const std::string &Suffix) {
  return "/tmp/closer_obs_" + std::to_string(::getpid()) + Suffix;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path);
  ASSERT_TRUE(Out.good()) << Path;
  Out << Text;
}

std::string readAll(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs `Cmd` under /bin/sh, returning captured output per the caller's
/// redirections; aborts the test on popen failure.
std::string runCommand(const std::string &Cmd, int *ExitCode = nullptr) {
  std::FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr) << Cmd;
  if (!P)
    return "";
  std::string Out;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), P)) > 0)
    Out.append(Buf, N);
  int Status = ::pclose(P);
  if (ExitCode)
    *ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
  return Out;
}

TEST(ObservabilityTest, ProgressLinesAreWellFormed) {
  std::string Src = tempPath("_progress.mc");
  writeFile(Src, bigWorkload(4, 4));

  // Capture stderr only; progress must never pollute stdout.
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --no-por --depth 60 --max-runs 100000000" +
                    " --time-budget 0.6 --progress=0.1 2>&1 >/dev/null";
  std::string Err = runCommand(Cmd);
  std::remove(Src.c_str());

  size_t Lines = 0;
  std::istringstream In(Err);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("progress:", 0) != 0)
      continue;
    ++Lines;
    for (const char *Key :
         {" t=", " states=", " states/s=", " transitions=", " trans/s=",
          " depth=", " frontier=", " runs=", " reports="})
      EXPECT_NE(Line.find(Key), std::string::npos)
          << "missing '" << Key << "' in: " << Line;
  }
  EXPECT_GE(Lines, 2u) << Err;
}

/// The `progress:` lines of a run's stderr.
std::vector<std::string> progressLines(const std::string &Err) {
  std::vector<std::string> Out;
  std::istringstream In(Err);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("progress:", 0) == 0)
      Out.push_back(Line);
  return Out;
}

/// The value of counter \p Key (e.g. " runs=") on a progress line.
uint64_t progressField(const std::string &Line, const std::string &Key) {
  size_t At = Line.find(Key);
  EXPECT_NE(At, std::string::npos) << "missing '" << Key << "' in: " << Line;
  if (At == std::string::npos)
    return 0;
  return std::stoull(Line.substr(At + Key.size()));
}

TEST(ObservabilityTest, SequentialProgressCountsRuns) {
  // A sequential run counts its paths in the same live counter block the
  // monitor reads for parallel workers, so `runs=` moves at --jobs 1 too.
  std::string Src = tempPath("_seqprogress.mc");
  writeFile(Src, semGridSource(400));
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --no-por --time-budget 0.5 --progress=0.2" +
                    " 2>&1 >/dev/null";
  std::string Err = runCommand(Cmd);
  std::remove(Src.c_str());

  std::vector<std::string> Lines = progressLines(Err);
  ASSERT_FALSE(Lines.empty()) << Err;
  EXPECT_GT(progressField(Lines.back(), " runs="), 0u) << Lines.back();
}

TEST(ObservabilityTest, CachedParallelProgressIsMonotone) {
  // Every progress line sums the seeder's and the workers' counter blocks;
  // each block only grows, so the sums never decrease between lines.
  std::string Src = tempPath("_cachedprogress.mc");
  // 4M states overflow the default 2^20-slot cache, and a saturated cache
  // stops pruning, so the run lasts its whole time budget.
  writeFile(Src, semGridSource(2000));
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --no-por --depth 100000 --jobs 4 --state-cache" +
                    " --progress=0.1 --time-budget 0.6 2>&1 >/dev/null";
  std::string Err = runCommand(Cmd);
  std::remove(Src.c_str());

  std::vector<std::string> Lines = progressLines(Err);
  ASSERT_GE(Lines.size(), 2u) << Err;
  for (const char *Key : {" states=", " transitions=", " cache-inserts="}) {
    uint64_t Last = 0;
    for (const std::string &Line : Lines) {
      uint64_t V = progressField(Line, Key);
      EXPECT_GT(V, 0u) << Key << " in: " << Line;
      EXPECT_GE(V, Last) << Key << " went backwards at: " << Line;
      Last = V;
    }
  }
}

TEST(ObservabilityTest, TimeBudgetStopsWithResumablePrefixes) {
  std::string Source = bigWorkload(4, 4);
  std::string Src = tempPath("_budget.mc");
  std::string Json = tempPath("_budget.json");
  writeFile(Src, Source);

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --no-por --depth 60 --max-runs 100000000" +
                    " --time-budget 0.3 --jobs 2 --stats-json " + Json +
                    " 2>/dev/null";
  std::string Out = runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0) << Out; // Error-free workload: clean exit.

  // The human-readable output announces the interruption and resume lines.
  EXPECT_NE(Out.find("(interrupted)"), std::string::npos) << Out;
  EXPECT_NE(Out.find("replay: "), std::string::npos) << Out;

  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  ASSERT_FALSE(Artifact.empty());
  EXPECT_NE(Artifact.find("\"schema\": \"closer-explore-stats-v1\""),
            std::string::npos);
  EXPECT_NE(Artifact.find("\"interrupted\": true"), std::string::npos);
  EXPECT_NE(Artifact.find("\"completed\": false"), std::string::npos);

  // Partial stats are real: a budget-stopped run still visited states.
  EXPECT_EQ(Artifact.find("\"states_visited\": 0,"), std::string::npos);

  // Every resume prefix must parse and replay faithfully against the same
  // program — that is what makes an interrupted run continuable.
  DiagnosticEngine Diags;
  auto Mod = compileAndVerify(Source, Diags);
  ASSERT_TRUE(Mod) << Diags.str();

  std::vector<std::string> Prefixes;
  std::istringstream In(Out);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("replay: ", 0) == 0)
      Prefixes.push_back(Line.substr(8));
  ASSERT_FALSE(Prefixes.empty());

  size_t Checked = 0;
  for (const std::string &P : Prefixes) {
    if (Checked == 16) // Replaying thousands adds nothing.
      break;
    std::vector<ReplayStep> Steps;
    ASSERT_TRUE(parseReplay(P, Steps)) << P;
    ASSERT_FALSE(Steps.empty());
    ReplayResult R = replayChoices(*Mod, Steps, SystemOptions());
    EXPECT_TRUE(R.Faithful) << "prefix did not replay: " << P;
    ++Checked;
  }
  // Each printed prefix must also appear in the artifact's resume array.
  EXPECT_NE(Artifact.find("\"" + Prefixes.front() + "\""),
            std::string::npos);
}

TEST(ObservabilityTest, JobsZeroResolvesToHardwareConcurrency) {
  std::string Src = tempPath("_jobs0.mc");
  std::string Json = tempPath("_jobs0.json");
  writeFile(Src, bigWorkload(2, 1));

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --depth 60 --jobs 0 --stats-json " + Json +
                    " 2>/dev/null";
  runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);

  // The artifact reports the *resolved* worker count, never the literal 0:
  // that is the contract that makes `--jobs 0` runs reproducible.
  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  EXPECT_EQ(Artifact.find("\"jobs\": 0"), std::string::npos) << Artifact;
  unsigned HW = std::thread::hardware_concurrency();
  std::string Want = "\"jobs\": " + std::to_string(HW ? HW : 1);
  EXPECT_NE(Artifact.find(Want), std::string::npos)
      << "expected " << Want << " in " << Artifact;
}

TEST(ObservabilityTest, NegativeJobsIsRejected) {
  std::string Src = tempPath("_jobsneg.mc");
  writeFile(Src, bigWorkload(2, 1));

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --depth 60 --jobs -2 2>&1";
  std::string Out = runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 1);
  EXPECT_NE(Out.find("--jobs"), std::string::npos) << Out;
}

TEST(ObservabilityTest, StatsJsonOnCompletedRunReportsCompletion) {
  std::string Src = tempPath("_done.mc");
  std::string Json = tempPath("_done.json");
  writeFile(Src, bigWorkload(2, 1));

  int Exit = -1;
  std::string Cmd = std::string(CLOSER_BIN) + " explore " + Src +
                    " --open --depth 60 --stats-json " + Json +
                    " 2>/dev/null";
  runCommand(Cmd, &Exit);
  std::remove(Src.c_str());
  EXPECT_EQ(Exit, 0);

  std::string Artifact = readAll(Json);
  std::remove(Json.c_str());
  EXPECT_NE(Artifact.find("\"completed\": true"), std::string::npos);
  EXPECT_NE(Artifact.find("\"interrupted\": false"), std::string::npos);
  EXPECT_NE(Artifact.find("\"resume\": []"), std::string::npos);
}

} // namespace
