// Shared types of the end-to-end benchmark program (pmacx_e2e).
//
// Each workload runs against the library in-process or against a spawned
// pmacx_serve, checks every output, and fills a Report: end-to-end figures,
// workload details for the ledger, the operations report, and the names of
// the pmacx-metrics-v1 snapshot a traced run reads.  run.py turns
// the report into the benchmark's result line.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "spans.hpp"

namespace pmacx::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;     ///< traced run: record spans; table1 and whatif run one round
  std::string out_dir;    ///< scratch directory for inputs, snapshots, spans
  std::size_t threads = 1;  ///< worker threads and connections (nproc)
};

/// Counts of operations a run issued.  Status polls while waiting for a
/// refit are pacing, not operations, and are counted apart.
struct Ops {
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t busy = 0;
  std::uint64_t error = 0;
  std::uint64_t status_polls = 0;
  std::size_t connections = 0;
  std::string pacing = "in-process";
};

/// pmacx-metrics-v1 snapshot of a tool that made one input trace.
struct ToolSnapshot {
  std::string app;
  std::uint32_t cores = 0;
  std::string path;
};

struct Report {
  bool correct = true;
  std::vector<std::string> failures;        ///< one line per failed check
  std::uint64_t checks_run = 0;
  Ops ops;
  std::uint64_t rounds = 0;
  double measured_s = 0.0;                  ///< wall time of the measured rounds
  std::map<std::string, double> e2e;        ///< end-to-end metrics
  std::map<std::string, double> detail;     ///< workload figures for the ledger
  std::string snapshot;  ///< pmacx-metrics-v1 file of the process doing the work
  std::vector<ToolSnapshot> input_snapshots;  ///< tools that made inputs

  /// Records one check outcome; `failure` empty means it passed.
  void check(const std::string& name, const std::string& failure);
};

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, p in [0, 100] (0 when empty).
double percentile(std::vector<double> values, double p);
/// Tail latency by the benchmark's rule: p90 with at least 100 samples,
/// otherwise the median.  A p99 moved by a quarter between runs of the
/// same code on a shared 4-CPU host, far outside any usable bound.
double tail(const std::vector<double>& values);
/// VmHWM of a process in MiB (0 when unreadable).
double peak_rss_mib(long pid);

Report run_table1(const Options& options, Spans& spans);
Report run_whatif(const Options& options, Spans& spans);
Report run_ingest(const Options& options, Spans& spans);
/// Feeds each check a correct and a perturbed output; returns 0 when every
/// check passes the first and fails the second.
int run_selftest(const Options& options);

}  // namespace pmacx::e2e
