//===- Report.h - Metric registry and result output ------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's output contract. An untraced run (--trace 0) sets every
/// end-to-end metric; a traced run (--trace 1) every per-layer metric. The
/// registry below is the single list of names and units; BENCHMARK.json
/// mirrors it and the self-tests hold the two together.
///
/// Standard output ends with three JSON lines:
///
///   {"provenance": {...}}     machine, build, seed and thread count
///   {"summaries": {...}}      median / high percentile / sample count of
///                             every metric that is a median of samples
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_REPORT_H
#define CLOSER_PERFBENCH_REPORT_H

#include "Stats.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char *Name;
  const char *Unit;
};

const std::vector<MetricDef> &endToEndMetrics();
const std::vector<MetricDef> &perLayerMetrics();

/// The registry as JSON: {"end_to_end": [...], "per_layer": [...]}.
std::string metricRegistryJson();

struct Provenance {
  std::string GitSha = "unknown";
  std::string GitDirty = "unknown";
  std::string TreeSha = "unknown";
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  unsigned Threads = 1;
};

/// Worker threads a workload may use: min(nproc, 4).
unsigned benchThreads();

/// Peak resident set of this process since the last resetPeakRss() (or
/// since it started), in MB (10^6 bytes).
double peakRssMb();

/// Returns freed heap to the system and restarts the peak-RSS high-water
/// mark at the resident set that is left.
void resetPeakRss();

/// Collects one run's metrics and reference-check tally and prints them.
class Result {
public:
  explicit Result(bool Trace) : Trace(Trace) {}

  /// Sets a metric of this run's mode; aborts on a name outside it (a
  /// benchmark bug, never a measurement outcome).
  void set(const std::string &Name, double Value);

  /// Sets \p Name to the median of \p Samples and records their summary.
  void setMedian(const std::string &Name, const std::vector<double> &Samples);

  /// Sets \p Name to \p Value, a reading derived from \p Samples, and
  /// records their summary.
  void setDerived(const std::string &Name, double Value,
                  const std::vector<double> &Samples);

  /// Counts one reference check; a non-empty \p Failure is a failed one.
  void check(const std::string &Failure);

  uint64_t attempted() const { return Attempted; }
  uint64_t failed() const { return Failed; }

  /// Prints the provenance, summaries and result lines. Returns false
  /// (printing nothing) when a metric of this run's mode is missing.
  bool print(const Provenance &P) const;

private:
  bool Trace;
  std::map<std::string, double> Values;
  std::map<std::string, Summary> Summaries;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
};

} // namespace perfbench

#endif // CLOSER_PERFBENCH_REPORT_H
