//===- Report.cpp - Metric registry and result output ---------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Report.h"

#include "support/Json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <malloc.h>
#include <thread>

using closer::json::Value;

namespace perfbench {

const std::vector<MetricDef> &endToEndMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"setup_s", "s"},
      {"work_per_s", "1/s"},
      {"op_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return Defs;
}

const std::vector<MetricDef> &perLayerMetrics() {
  static const std::vector<MetricDef> Defs = {
      // Closing side: per-call time of each pass, per unit of its input.
      {"lang.parse_ns_per_node", "ns"},
      {"lang.sema_ns_per_node", "ns"},
      {"cfg.lower_ns_per_node", "ns"},
      {"cfg.verify_ns_per_node", "ns"},
      {"dataflow.alias_ns_per_unit", "ns"},
      {"dataflow.defuse_ns_per_unit", "ns"},
      {"dataflow.taint_ns_per_unit", "ns"},
      {"closing.close_ns_per_unit", "ns"},
      {"closing.emit_ns_per_node", "ns"},
      {"dataflow.du_arcs", "count"},
      {"closing.nodes_after", "count"},
      {"closing.toss_nodes", "count"},
      {"closing.pipeline_share", "share"},
      // Explore side: per-call times from the sampled replay.
      {"runtime.snapshot_ns", "ns"},
      {"runtime.restore_ns", "ns"},
      {"runtime.fingerprint_ns", "ns"},
      {"runtime.interp_ns_per_transition", "ns"},
      {"vm.ns_per_transition", "ns"},
      {"explorer.cache_insert_ns", "ns"},
      {"explorer.footprint_ns", "ns"},
      // Explore side: estimated share of the run's worker time per layer.
      {"runtime.eval_share", "share"},
      {"runtime.snapshot_share", "share"},
      {"runtime.restore_share", "share"},
      {"runtime.fingerprint_share", "share"},
      {"explorer.cache_share", "share"},
      {"explorer.footprint_share", "share"},
      // Explore side: counters and ratios the search reports.
      {"explorer.cache_hit_ratio", "ratio"},
      {"explorer.sleep_prune_ratio", "ratio"},
      {"explorer.replayed_per_tree_transition", "ratio"},
      {"explorer.states_to_verdict", "count"},
      {"support.pool_fresh", "count"},
      {"support.arena_bytes", "B"},
      {"sched.speedup", "x"},
      {"sched.steals", "count"},
      {"sched.wakeups", "count"},
      {"sched.worker_imbalance", "ratio"},
      // Bookkeeping of the traced run itself.
      {"trace.overhead_share", "share"},
      {"trace.unattributed_share", "share"},
  };
  return Defs;
}

namespace {

const MetricDef *findMetric(const std::vector<MetricDef> &Defs,
                            const std::string &Name) {
  for (const MetricDef &D : Defs)
    if (Name == D.Name)
      return &D;
  return nullptr;
}

Value registryArray(const std::vector<MetricDef> &Defs) {
  Value A = Value::array();
  for (const MetricDef &D : Defs)
    A.push(Value::object().add("name", D.Name).add("unit", D.Unit));
  return A;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      if (Colon != std::string::npos)
        return Line.substr(Line.find_first_not_of(" \t", Colon + 1));
    }
  return "unknown";
}

/// Full precision: readers compare raw values across runs.
std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

std::string metricRegistryJson() {
  return Value::object()
      .add("end_to_end", registryArray(endToEndMetrics()))
      .add("per_layer", registryArray(perLayerMetrics()))
      .str();
}

unsigned benchThreads() {
  unsigned HW = std::thread::hardware_concurrency();
  return HW == 0 ? 1 : (HW < 4 ? HW : 4);
}

double peakRssMb() {
  // VmHWM, not getrusage(): ru_maxrss survives execve, so it would report
  // the launching process's peak when that was larger.
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) * 1024.0 / 1e6;
  return 0;
}

void resetPeakRss() {
  // Hand freed heap back first, so the mark restarts at the live data and
  // not at whatever the allocator kept from the previous operation.
  malloc_trim(0);
  // Linux: writing 5 to clear_refs resets VmHWM to the current RSS.
  std::ofstream Out("/proc/self/clear_refs");
  Out << "5";
}

void Result::set(const std::string &Name, double V) {
  if (!findMetric(Trace ? perLayerMetrics() : endToEndMetrics(), Name)) {
    std::fprintf(stderr, "internal error: metric '%s' is not a %s metric\n",
                 Name.c_str(), Trace ? "per-layer" : "end-to-end");
    std::abort();
  }
  if (!std::isfinite(V)) {
    std::fprintf(stderr, "internal error: metric '%s' is not finite\n",
                 Name.c_str());
    std::abort();
  }
  Values[Name] = V;
}

void Result::setMedian(const std::string &Name,
                       const std::vector<double> &Samples) {
  Summary S = summarize(Samples);
  Summaries[Name] = S;
  set(Name, S.Median);
}

void Result::setDerived(const std::string &Name, double Value,
                        const std::vector<double> &Samples) {
  Summaries[Name] = summarize(Samples);
  set(Name, Value);
}

void Result::check(const std::string &Failure) {
  ++Attempted;
  if (!Failure.empty()) {
    ++Failed;
    std::fprintf(stderr, "reference check failed: %s\n", Failure.c_str());
  }
}

bool Result::print(const Provenance &P) const {
  const std::vector<MetricDef> &Defs =
      Trace ? perLayerMetrics() : endToEndMetrics();
  for (const MetricDef &D : Defs)
    if (!Values.count(D.Name)) {
      std::fprintf(stderr, "internal error: metric '%s' was not measured\n",
                   D.Name);
      return false;
    }

  Value Prov = Value::object();
  Prov.add("git_sha", P.GitSha)
      .add("git_dirty", P.GitDirty)
      .add("tree_sha256", P.TreeSha)
      .add("compiler", std::string(PERFBENCH_COMPILER_ID) + " " +
                           PERFBENCH_COMPILER_VERSION)
      .add("build_type", PERFBENCH_BUILD_TYPE)
      .add("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()))
      .add("cpu_model", cpuModel())
      .add("workload", P.Workload)
      .add("seed", P.Seed)
      .add("seconds", P.Seconds)
      .add("trace", P.Trace)
      .add("threads", static_cast<uint64_t>(P.Threads))
      .add("closed_loop_clients", static_cast<uint64_t>(1));
  std::printf("%s\n", Value::object().add("provenance", Prov).str().c_str());

  Value Sums = Value::object();
  for (const auto &[Name, S] : Summaries) {
    Value O = Value::object();
    O.add("n", static_cast<uint64_t>(S.N))
        .add("median", S.Median)
        .add("mean", S.Mean)
        .add("q1", S.Q1)
        .add("q3", S.Q3);
    if (S.HighPct) {
      char Key[8];
      std::snprintf(Key, sizeof(Key), "p%d", S.HighPct);
      O.add(Key, S.High);
    }
    O.add("min", S.Min).add("max", S.Max);
    Sums.add(Name, std::move(O));
  }
  std::printf("%s\n", Value::object().add("summaries", Sums).str().c_str());

  std::string Out = "{\"correct\": ";
  Out += Failed == 0 ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const MetricDef &D : Defs) {
    Out += First ? "" : ", ";
    First = false;
    Out += '"';
    Out += D.Name;
    Out += "\": {\"value\": ";
    Out += number(Values.at(D.Name));
    Out += ", \"unit\": \"";
    Out += D.Unit;
    Out += "\"}";
  }
  Out += "}}";
  std::printf("%s\n", Out.c_str());
  std::fflush(stdout);
  return true;
}

} // namespace perfbench
