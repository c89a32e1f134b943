#include "machine/multimaps.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "stats/ols.hpp"
#include "synth/patterns.hpp"
#include "synth/stream_replay.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"

namespace pmacx::machine {

BandwidthSurface::BandwidthSurface(std::vector<BandwidthSample> samples)
    : samples_(std::move(samples)) {
  PMACX_CHECK(!samples_.empty(), "bandwidth surface needs at least one sample");
  for (const BandwidthSample& s : samples_)
    PMACX_CHECK(s.bandwidth_bytes_per_s > 0, "non-positive bandwidth sample");

  // Fit cost_per_byte ≈ β0 + Σ βi·(1 - hr_i) by least squares (normal
  // equations).  Needs more samples than parameters and a non-singular
  // design; otherwise lookups fall back to IDW.
  constexpr std::size_t kParams = 1 + memsim::kMaxLevels;
  min_cost_ = std::numeric_limits<double>::infinity();
  max_cost_ = 0.0;
  if (samples_.size() > kParams) {
    std::vector<double> ata(kParams * kParams, 0.0);
    std::vector<double> aty(kParams, 0.0);
    for (const BandwidthSample& s : samples_) {
      const double cost = 1.0 / s.bandwidth_bytes_per_s;
      min_cost_ = std::min(min_cost_, cost);
      max_cost_ = std::max(max_cost_, cost);
      double x[kParams];
      x[0] = 1.0;
      for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl)
        x[lvl + 1] = 1.0 - s.hit_rates[lvl];
      for (std::size_t r = 0; r < kParams; ++r) {
        aty[r] += x[r] * cost;
        for (std::size_t c = 0; c < kParams; ++c) ata[r * kParams + c] += x[r] * x[c];
      }
    }
    regression_ok_ =
        stats::solve_dense(std::move(ata), std::move(aty), coef_);
  }
}

double BandwidthSurface::lookup(
    const std::array<double, memsim::kMaxLevels>& hit_rates) const {
  if (regression_ok_) {
    double cost = coef_[0];
    for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl)
      cost += coef_[lvl + 1] * (1.0 - hit_rates[lvl]);
    // Clamp to the probed cost range (with slack) so collinear regressions
    // cannot return unphysical bandwidths at extreme queries.
    cost = std::clamp(cost, 0.5 * min_cost_, 2.0 * max_cost_);
    return 1.0 / cost;
  }
  return lookup_idw(hit_rates);
}

double BandwidthSurface::lookup_idw(
    const std::array<double, memsim::kMaxLevels>& hit_rates) const {
  // k-nearest-neighbour Shepard interpolation (inverse-square-distance
  // weights) in hit-rate space.  Restricting to the nearest samples keeps
  // remote corners of the surface from biasing the estimate; the residual
  // reconstruction error is the honest error of the convolution method's
  // block-aggregate view.  Inverse-distance weighting of 1/bandwidth
  // (i.e. cost per byte) rather than bandwidth matches how miss costs
  // compose, so mixtures interpolate on the physically additive scale.
  constexpr double kExactEps = 1e-9;
  constexpr std::size_t kNeighbours = 6;

  std::vector<std::pair<double, double>> by_distance;  // (d², cost per byte)
  by_distance.reserve(samples_.size());
  for (const BandwidthSample& s : samples_) {
    double d2 = 0.0;
    for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl) {
      const double d = hit_rates[lvl] - s.hit_rates[lvl];
      d2 += d * d;
    }
    if (d2 < kExactEps) return s.bandwidth_bytes_per_s;
    by_distance.emplace_back(d2, 1.0 / s.bandwidth_bytes_per_s);
  }
  const std::size_t k = std::min(kNeighbours, by_distance.size());
  std::partial_sort(by_distance.begin(), by_distance.begin() + k, by_distance.end());

  double weight_sum = 0.0;
  double cost_sum = 0.0;
  for (std::size_t i = 0; i < k; ++i) {
    const double w = 1.0 / by_distance[i].first;
    weight_sum += w;
    cost_sum += w * by_distance[i].second;
  }
  return weight_sum / cost_sum;
}

std::vector<BandwidthSample> run_multimaps(const memsim::HierarchyConfig& hierarchy,
                                           const MemTimingModel& timing,
                                           const MultiMapsOptions& options) {
  PMACX_CHECK(!options.working_sets.empty(), "multimaps: no working sets");
  PMACX_CHECK(!options.strides.empty(), "multimaps: no strides");
  util::metrics::StageTimer timer("machine.multimaps");

  // Probe tallies go to machine.probe.*, never memsim.*: memsim.refs counts
  // traced references only.  Flushed once per probe.
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  util::metrics::Counter& probe_samples = metrics.counter("machine.probe.samples");
  util::metrics::Counter& probe_refs = metrics.counter("machine.probe.refs");
  util::metrics::Counter& probe_lines = metrics.counter("machine.probe.line_accesses");

  std::vector<BandwidthSample> samples;
  auto probe = [&](std::uint64_t working_set, std::uint32_t stride, bool random) {
    synth::StreamSpec spec;
    spec.pattern = random ? synth::Pattern::Random : synth::Pattern::Strided;
    spec.base_addr = 1ull << 40;
    spec.footprint_bytes = working_set;
    spec.elem_bytes = 8;
    spec.stride_elems = stride;
    spec.store_fraction = 0.0;  // MultiMAPS measures load bandwidth
    synth::RefStream stream(spec, options.seed + working_set + stride + (random ? 1 : 0));

    // Enough references to sweep the working set a few times (steady state)
    // within the probe budget.
    const std::uint64_t elems = working_set / spec.elem_bytes;
    const std::uint64_t wanted = std::max(options.min_refs_per_probe, 3 * elems);
    const std::uint64_t refs = std::min(wanted, options.max_refs_per_probe);
    // The driver's one-stream, one-thread case, on a cold hierarchy.
    synth::StreamReplay sim(hierarchy);
    sim.replay({&stream, 1}, refs, 1, 0);

    const memsim::AccessCounters& counters = sim.totals();
    probe_samples.add();
    probe_refs.add(counters.refs);
    probe_lines.add(counters.line_accesses);
    const double seconds = timing.seconds_for(counters);
    PMACX_ASSERT(seconds > 0, "probe produced zero time");

    BandwidthSample sample;
    sample.working_set_bytes = working_set;
    sample.stride_elems = stride;
    sample.random = random;
    double rate = 0.0;
    for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl) {
      if (lvl < hierarchy.levels.size()) rate = counters.cumulative_hit_rate(lvl);
      sample.hit_rates[lvl] = rate;
    }
    sample.bandwidth_bytes_per_s = static_cast<double>(counters.bytes) / seconds;
    samples.push_back(sample);
  };

  for (std::uint64_t working_set : options.working_sets) {
    for (std::uint32_t stride : options.strides) probe(working_set, stride, false);
    if (options.include_random) probe(working_set, 1, true);
  }
  PMACX_LOG_DEBUG << "multimaps: " << samples.size() << " samples on " << hierarchy.name;
  return samples;
}

}  // namespace pmacx::machine
