// Seeded input generation shared by the served workloads: small-count
// traces of the applications, inflated ones for uploads, and the skewed key
// distributions the clients draw from.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "machine/multimaps.hpp"
#include "util/threadpool.hpp"

namespace pmacx::e2e {

/// Deterministic generator (std::mt19937_64 is fully specified, and the
/// helpers below avoid the implementation-defined distributions).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}
  double uniform() { return static_cast<double>(engine_() >> 11) * 0x1.0p-53; }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(uniform() * n); }
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[below(i)]);
  }

 private:
  std::mt19937_64 engine_;
};

/// Zipf(s) over ranks 0..n-1: rank 0 is the most frequent.
class Zipf {
 public:
  Zipf(std::size_t n, double s);
  std::size_t operator()(Rng& rng) const;

 private:
  std::vector<double> cumulative_;
};

/// Sampling cap per kernel for the served workloads' inputs.  Their work is
/// fitting, replay and RPC; table1 measures the tracer at the full cap.
inline constexpr std::uint64_t kServedRefsCap = 300'000;

/// Traces the application's demanding rank at each core count against the
/// bluewaters-p1 hierarchy, simulating at most `refs_cap` references per
/// kernel, and writes binary traces into `dir`.  Spans each trace as
/// synth.trace_task and records the application's memsim refs and tracing
/// time in `detail`.
std::vector<std::string> generate_traces(const std::string& app,
                                         const std::vector<std::uint32_t>& counts,
                                         const std::string& dir, std::uint64_t refs_cap,
                                         util::ThreadPool& pool, Spans& spans,
                                         std::map<std::string, double>& detail);

/// Makes the same traces with `pmacx_trace --inflate-to-bytes`, which
/// replicates each trace's blocks under fresh ids until the file reaches
/// `inflate_bytes`; runs up to one tool per pool thread.  Each run's
/// pmacx-metrics-v1 snapshot is listed in `snapshots` for the ledger, and
/// the batch's wall time lands in `detail`.
std::vector<std::string> inflated_traces(const std::string& app,
                                         const std::vector<std::uint32_t>& counts,
                                         const std::string& dir, std::uint64_t inflate_bytes,
                                         std::uint64_t refs_cap, util::ThreadPool& pool,
                                         Spans& spans, std::map<std::string, double>& detail,
                                         std::vector<ToolSnapshot>& snapshots);

/// References the MultiMAPS probe is specified to simulate with `options`.
double probe_refs(const machine::MultiMapsOptions& options);

}  // namespace pmacx::e2e
