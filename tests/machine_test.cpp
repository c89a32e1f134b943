// Tests for the machine substrate: timing model, MultiMAPS probing, the
// bandwidth surface, machine profiles and the predefined targets.
#include <gtest/gtest.h>

#include <cstdio>

#include "machine/dvfs.hpp"
#include "machine/energy.hpp"
#include "machine/multimaps.hpp"
#include "machine/profile.hpp"
#include "machine/profile_io.hpp"
#include "machine/targets.hpp"
#include "machine/timing.hpp"
#include "memsim/hierarchy.hpp"
#include "synth/patterns.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"

namespace pmacx {
namespace {

using machine::BandwidthSample;
using machine::BandwidthSurface;
using machine::MemTimingModel;
using machine::MultiMapsOptions;
using machine::TargetSystem;

MultiMapsOptions fast_probe() {
  MultiMapsOptions options;
  options.working_sets = {16ull << 10, 256ull << 10, 4ull << 20};
  options.strides = {1, 8};
  options.min_refs_per_probe = 50'000;
  options.max_refs_per_probe = 200'000;
  return options;
}

// ---------------------------------------------------------------- timing ----

TEST(TimingTest, CostsGrowWithDepth) {
  const TargetSystem sys = machine::xt5_base();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  EXPECT_LT(timing.level_seconds(0), timing.level_seconds(1));
  EXPECT_LT(timing.level_seconds(1), timing.level_seconds(2));
  EXPECT_LT(timing.level_seconds(2), timing.memory_seconds());
}

TEST(TimingTest, SecondsForCountersIsLinear) {
  const TargetSystem sys = machine::xt5_base();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  memsim::AccessCounters counters;
  counters.level_hits[0] = 10;
  counters.memory_accesses = 2;
  const double expected =
      10 * timing.level_seconds(0) + 2 * timing.memory_seconds();
  EXPECT_DOUBLE_EQ(timing.seconds_for(counters), expected);
}

TEST(TimingTest, ZeroExposureHidesLatency) {
  const TargetSystem sys = machine::xt5_base();
  const MemTimingModel hidden(sys.hierarchy, sys.clock_ghz, 0.0);
  const MemTimingModel exposed(sys.hierarchy, sys.clock_ghz, 1.0);
  EXPECT_LT(hidden.memory_seconds(), exposed.memory_seconds());
}

TEST(TimingTest, RejectsBadParameters) {
  const TargetSystem sys = machine::xt5_base();
  EXPECT_THROW(MemTimingModel(sys.hierarchy, 0.0), util::Error);
  EXPECT_THROW(MemTimingModel(sys.hierarchy, 2.0, 1.5), util::Error);
  const MemTimingModel timing(sys.hierarchy, 2.0);
  EXPECT_THROW(timing.level_seconds(7), util::Error);
}

// ------------------------------------------------------------- multimaps ----

TEST(MultiMapsTest, BandwidthFallsAsWorkingSetGrows) {
  const TargetSystem sys = machine::opteron_2level();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  const auto samples = machine::run_multimaps(sys.hierarchy, timing, fast_probe());
  // Find the stride-1 samples and check the Fig. 1 shape: in-cache working
  // sets sustain strictly more bandwidth than memory-sized ones.
  double small_bw = 0.0, large_bw = 0.0;
  for (const auto& s : samples) {
    if (s.random || s.stride_elems != 1) continue;
    if (s.working_set_bytes == 16ull << 10) small_bw = s.bandwidth_bytes_per_s;
    if (s.working_set_bytes == 4ull << 20) large_bw = s.bandwidth_bytes_per_s;
  }
  ASSERT_GT(small_bw, 0.0);
  ASSERT_GT(large_bw, 0.0);
  EXPECT_GT(small_bw, 2.0 * large_bw);
}

TEST(MultiMapsTest, HitRatesTrackWorkingSets) {
  const TargetSystem sys = machine::opteron_2level();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  const auto samples = machine::run_multimaps(sys.hierarchy, timing, fast_probe());
  for (const auto& s : samples) {
    EXPECT_GE(s.hit_rates[0], 0.0);
    EXPECT_LE(s.hit_rates[2], 1.0);
    EXPECT_LE(s.hit_rates[0], s.hit_rates[1] + 1e-12);
    // 2-level machine: the L3 slot repeats L2.
    EXPECT_DOUBLE_EQ(s.hit_rates[1], s.hit_rates[2]);
  }
}

TEST(MultiMapsTest, RandomProbesIncluded) {
  const TargetSystem sys = machine::opteron_2level();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  auto options = fast_probe();
  const auto samples = machine::run_multimaps(sys.hierarchy, timing, options);
  std::size_t random_count = 0;
  for (const auto& s : samples)
    if (s.random) ++random_count;
  EXPECT_EQ(random_count, options.working_sets.size());
  EXPECT_EQ(samples.size(),
            options.working_sets.size() * (options.strides.size() + 1));
}

// The probe loop done one reference at a time: the oracle the staged block
// replay in run_multimaps must match sample for sample.
std::vector<BandwidthSample> per_reference_probe(const memsim::HierarchyConfig& hierarchy,
                                                 const MemTimingModel& timing,
                                                 const MultiMapsOptions& options) {
  std::vector<BandwidthSample> samples;
  auto probe = [&](std::uint64_t working_set, std::uint32_t stride, bool random) {
    memsim::CacheHierarchy sim(hierarchy);
    synth::StreamSpec spec;
    spec.pattern = random ? synth::Pattern::Random : synth::Pattern::Strided;
    spec.base_addr = 1ull << 40;
    spec.footprint_bytes = working_set;
    spec.elem_bytes = 8;
    spec.stride_elems = stride;
    spec.store_fraction = 0.0;
    synth::RefStream stream(spec, options.seed + working_set + stride + (random ? 1 : 0));
    const std::uint64_t wanted = std::max(options.min_refs_per_probe, 3 * (working_set / 8));
    const std::uint64_t refs = std::min(wanted, options.max_refs_per_probe);
    for (std::uint64_t i = 0; i < refs; ++i) sim.access(stream.next());
    const memsim::AccessCounters& counters = sim.totals();
    BandwidthSample sample;
    sample.working_set_bytes = working_set;
    sample.stride_elems = stride;
    sample.random = random;
    double rate = 0.0;
    for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl) {
      if (lvl < hierarchy.levels.size()) rate = counters.cumulative_hit_rate(lvl);
      sample.hit_rates[lvl] = rate;
    }
    sample.bandwidth_bytes_per_s =
        static_cast<double>(counters.bytes) / timing.seconds_for(counters);
    samples.push_back(sample);
  };
  for (std::uint64_t working_set : options.working_sets) {
    for (std::uint32_t stride : options.strides) probe(working_set, stride, false);
    if (options.include_random) probe(working_set, 1, true);
  }
  return samples;
}

TEST(MultiMapsTest, StagedProbeMatchesPerReferenceProbeOnEveryTarget) {
  MultiMapsOptions options;
  options.working_sets = {16ull << 10, 256ull << 10, 4ull << 20};
  options.strides = {1, 8};
  // 6144 references for the 16 KiB set (a ragged second block), 50000 for
  // the larger ones.
  options.min_refs_per_probe = 5'000;
  options.max_refs_per_probe = 50'000;
  for (const std::string& name : machine::target_names()) {
    const TargetSystem sys = machine::target_by_name(name);
    const MemTimingModel timing(sys.hierarchy, sys.clock_ghz, sys.latency_exposure);
    const auto staged = machine::run_multimaps(sys.hierarchy, timing, options);
    const auto oracle = per_reference_probe(sys.hierarchy, timing, options);
    ASSERT_EQ(staged.size(), oracle.size()) << name;
    for (std::size_t i = 0; i < staged.size(); ++i) {
      EXPECT_EQ(staged[i].working_set_bytes, oracle[i].working_set_bytes) << name;
      EXPECT_EQ(staged[i].stride_elems, oracle[i].stride_elems) << name;
      EXPECT_EQ(staged[i].random, oracle[i].random) << name;
      EXPECT_EQ(staged[i].hit_rates, oracle[i].hit_rates) << name << " sample " << i;
      EXPECT_EQ(staged[i].bandwidth_bytes_per_s, oracle[i].bandwidth_bytes_per_s)
          << name << " sample " << i;
    }
  }
}

TEST(MultiMapsTest, ProbeCountersStayOutOfMemsim) {
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  const std::uint64_t samples_before = metrics.counter("machine.probe.samples").value();
  const std::uint64_t refs_before = metrics.counter("machine.probe.refs").value();
  const std::uint64_t lines_before = metrics.counter("machine.probe.line_accesses").value();
  const std::uint64_t memsim_before = metrics.counter("memsim.refs").value();
  const TargetSystem sys = machine::opteron_2level();
  const MemTimingModel timing(sys.hierarchy, sys.clock_ghz);
  const MultiMapsOptions options = fast_probe();
  const auto samples = machine::run_multimaps(sys.hierarchy, timing, options);

  std::uint64_t refs = 0;
  for (std::uint64_t working_set : options.working_sets)
    refs += (options.strides.size() + 1) *
            std::min(std::max(options.min_refs_per_probe, 3 * (working_set / 8)),
                     options.max_refs_per_probe);
  EXPECT_EQ(metrics.counter("machine.probe.samples").value() - samples_before, samples.size());
  EXPECT_EQ(metrics.counter("machine.probe.refs").value() - refs_before, refs);
  // One line per 8-byte reference: the probes never straddle a line.
  EXPECT_EQ(metrics.counter("machine.probe.line_accesses").value() - lines_before, refs);
  EXPECT_EQ(metrics.counter("memsim.refs").value(), memsim_before);
}

// --------------------------------------------------------------- surface ----

TEST(SurfaceTest, ExactAtSamplePoints) {
  std::vector<BandwidthSample> samples(2);
  samples[0].hit_rates = {0.5, 0.8, 0.9};
  samples[0].bandwidth_bytes_per_s = 1e9;
  samples[1].hit_rates = {0.9, 0.95, 1.0};
  samples[1].bandwidth_bytes_per_s = 5e9;
  const BandwidthSurface surface(samples);
  EXPECT_DOUBLE_EQ(surface.lookup({0.5, 0.8, 0.9}), 1e9);
  EXPECT_DOUBLE_EQ(surface.lookup({0.9, 0.95, 1.0}), 5e9);
}

TEST(SurfaceTest, InterpolationBoundedBySamples) {
  std::vector<BandwidthSample> samples(2);
  samples[0].hit_rates = {0.0, 0.0, 0.0};
  samples[0].bandwidth_bytes_per_s = 1e8;
  samples[1].hit_rates = {1.0, 1.0, 1.0};
  samples[1].bandwidth_bytes_per_s = 1e10;
  const BandwidthSurface surface(samples);
  const double mid = surface.lookup({0.5, 0.5, 0.5});
  EXPECT_GT(mid, 1e8);
  EXPECT_LT(mid, 1e10);
}

TEST(SurfaceTest, HigherHitRatesNeverLowerBandwidthOnRealProbe) {
  const TargetSystem sys = machine::opteron_2level();
  const auto profile = machine::build_profile(sys, fast_probe());
  const double low = profile.surface.lookup({0.2, 0.4, 0.4});
  const double high = profile.surface.lookup({0.95, 0.99, 0.99});
  EXPECT_GT(high, low);
}

TEST(SurfaceTest, RejectsEmptyAndNonPositive) {
  EXPECT_THROW(BandwidthSurface(std::vector<BandwidthSample>{}), util::Error);
  std::vector<BandwidthSample> bad(1);
  bad[0].bandwidth_bytes_per_s = 0.0;
  EXPECT_THROW(BandwidthSurface(std::move(bad)), util::Error);
}

// --------------------------------------------------------------- profile ----

TEST(ProfileTest, BuildsForAllTargets) {
  for (const TargetSystem& sys :
       {machine::xt5_base(), machine::bluewaters_p1(), machine::opteron_2level(),
        machine::system_a_12kb(), machine::system_b_56kb()}) {
    EXPECT_NO_THROW({
      const auto profile = machine::build_profile(sys, fast_probe());
      EXPECT_FALSE(profile.surface.samples().empty());
    }) << sys.name;
  }
}

TEST(ProfileTest, FpSecondsScalesWithWorkAndIlp) {
  const auto profile = machine::build_profile(machine::xt5_base(), fast_probe());
  const double base = profile.fp_seconds(1e9, 0, 0, 0, 4.0);
  EXPECT_GT(base, 0.0);
  EXPECT_DOUBLE_EQ(profile.fp_seconds(2e9, 0, 0, 0, 4.0), 2.0 * base);
  // Lower ILP → slower; ILP beyond the issue width saturates.
  EXPECT_GT(profile.fp_seconds(1e9, 0, 0, 0, 1.0), base);
  EXPECT_DOUBLE_EQ(profile.fp_seconds(1e9, 0, 0, 0, 8.0), base);
  // Divides cost extra.
  EXPECT_GT(profile.fp_seconds(1e9, 0, 0, 1e6, 4.0), base);
}

TEST(ProfileTest, TargetGeometriesDiffer) {
  EXPECT_EQ(machine::system_a_12kb().hierarchy.levels[0].size_bytes, 12ull << 10);
  EXPECT_EQ(machine::system_b_56kb().hierarchy.levels[0].size_bytes, 56ull << 10);
  // Systems A and B share L2/L3.
  EXPECT_EQ(machine::system_a_12kb().hierarchy.levels[1].size_bytes,
            machine::system_b_56kb().hierarchy.levels[1].size_bytes);
  EXPECT_EQ(machine::opteron_2level().hierarchy.levels.size(), 2u);
}

TEST(ProfileTest, EnergyModelValidation) {
  machine::EnergyModel model;
  EXPECT_NO_THROW(model.validate());
  model.level_nj = {2.0, 1.0, 3.0};  // shrinking with depth
  EXPECT_THROW(model.validate(), util::Error);
  model = machine::EnergyModel{};
  model.memory_nj = 0.1;  // below the last cache level
  EXPECT_THROW(model.validate(), util::Error);
  model = machine::EnergyModel{};
  model.fp_nj = 0.0;
  EXPECT_THROW(model.validate(), util::Error);
  model = machine::EnergyModel{};
  model.static_watts_per_core = -1.0;
  EXPECT_THROW(model.validate(), util::Error);
}

// ------------------------------------------------------------ profile io ----

TEST(ProfileIoTest, RoundTripPreservesEverything) {
  const auto original = machine::build_profile(machine::xt5_base(), fast_probe());
  const auto loaded = machine::profile_from_text(machine::profile_to_text(original));

  EXPECT_EQ(loaded.system.name, original.system.name);
  EXPECT_EQ(loaded.system.clock_ghz, original.system.clock_ghz);
  EXPECT_EQ(loaded.system.hierarchy.levels.size(),
            original.system.hierarchy.levels.size());
  for (std::size_t lvl = 0; lvl < original.system.hierarchy.levels.size(); ++lvl) {
    EXPECT_EQ(loaded.system.hierarchy.levels[lvl].size_bytes,
              original.system.hierarchy.levels[lvl].size_bytes);
    EXPECT_EQ(loaded.system.hierarchy.levels[lvl].associativity,
              original.system.hierarchy.levels[lvl].associativity);
  }
  EXPECT_EQ(loaded.system.network.eager_threshold_bytes,
            original.system.network.eager_threshold_bytes);
  EXPECT_EQ(loaded.system.network.torus.enabled, original.system.network.torus.enabled);
  EXPECT_EQ(loaded.system.energy.static_watts_per_core,
            original.system.energy.static_watts_per_core);
  ASSERT_EQ(loaded.surface.samples().size(), original.surface.samples().size());

  // The reconstructed surface answers lookups identically (same samples →
  // same deterministic regression).
  for (const auto& query : {std::array<double, 3>{0.5, 0.8, 0.9},
                            std::array<double, 3>{0.95, 0.98, 0.99},
                            std::array<double, 3>{0.0, 0.2, 0.4}}) {
    EXPECT_DOUBLE_EQ(loaded.surface.lookup(query), original.surface.lookup(query));
  }
  // Timing model reproduces too.
  EXPECT_DOUBLE_EQ(loaded.timing.memory_seconds(), original.timing.memory_seconds());
}

TEST(ProfileIoTest, FileRoundTrip) {
  const auto original = machine::build_profile(machine::opteron_2level(), fast_probe());
  const std::string path = ::testing::TempDir() + "/pmacx_profile_test.prof";
  machine::save_profile(original, path);
  const auto loaded = machine::load_profile(path);
  EXPECT_EQ(loaded.system.name, original.system.name);
  EXPECT_EQ(loaded.surface.samples().size(), original.surface.samples().size());
  std::remove(path.c_str());
}

TEST(ProfileIoTest, RejectsMalformed) {
  EXPECT_THROW(machine::profile_from_text("not a profile"), util::Error);
  EXPECT_THROW(machine::load_profile("/nonexistent/p.prof"), util::Error);
  auto text = machine::profile_to_text(
      machine::build_profile(machine::opteron_2level(), fast_probe()));
  text.resize(text.size() / 2);
  EXPECT_THROW(machine::profile_from_text(text), util::Error);
}

TEST(DvfsTest, ScalingRules) {
  const TargetSystem base = machine::bluewaters_p1();
  const TargetSystem half = machine::scale_frequency(base, base.clock_ghz / 2);

  // Memory is physical: constant nanoseconds / bytes-per-second.
  const double base_mem_ns =
      base.hierarchy.memory_latency_cycles / base.clock_ghz;
  const double half_mem_ns =
      half.hierarchy.memory_latency_cycles / half.clock_ghz;
  EXPECT_NEAR(base_mem_ns, half_mem_ns, 1e-9);
  EXPECT_NEAR(base.hierarchy.memory_bandwidth_bytes_per_cycle * base.clock_ghz,
              half.hierarchy.memory_bandwidth_bytes_per_cycle * half.clock_ghz, 1e-9);

  // Caches track the core clock: cycle figures unchanged.
  EXPECT_DOUBLE_EQ(half.hierarchy.levels[0].latency_cycles,
                   base.hierarchy.levels[0].latency_cycles);
  EXPECT_EQ(half.hierarchy.levels[0].size_bytes, base.hierarchy.levels[0].size_bytes);

  // Core energies ∝ f², memory energy constant, static power ∝ f.
  EXPECT_NEAR(half.energy.fp_nj, base.energy.fp_nj / 4.0, 1e-12);
  EXPECT_DOUBLE_EQ(half.energy.memory_nj, base.energy.memory_nj);
  EXPECT_NEAR(half.energy.static_watts_per_core,
              base.energy.static_watts_per_core / 2.0, 1e-12);
  EXPECT_NO_THROW(half.hierarchy.validate());
}

TEST(DvfsTest, MemoryBoundWorkSlowsSubLinearly) {
  // At half the clock, a pure-memory workload's time (in seconds) is
  // unchanged, a pure-compute one doubles.
  const TargetSystem base = machine::bluewaters_p1();
  const TargetSystem half = machine::scale_frequency(base, base.clock_ghz / 2);
  const machine::MemTimingModel fast(base.hierarchy, base.clock_ghz);
  const machine::MemTimingModel slow(half.hierarchy, half.clock_ghz);
  EXPECT_NEAR(slow.memory_seconds(), fast.memory_seconds(), 1e-15);
  EXPECT_NEAR(slow.level_seconds(0), 2.0 * fast.level_seconds(0), 1e-15);
}

TEST(DvfsTest, RejectsBadClock) {
  EXPECT_THROW(machine::scale_frequency(machine::bluewaters_p1(), 0.0), util::Error);
}

TEST(ProfileTest, TargetLookupByName) {
  for (const std::string& name : machine::target_names()) {
    EXPECT_EQ(machine::target_by_name(name).name, name);
  }
  EXPECT_THROW(machine::target_by_name("cray-xt9000"), util::Error);
}

TEST(ProfileTest, AllTargetHierarchiesValidate) {
  for (const TargetSystem& sys :
       {machine::xt5_base(), machine::bluewaters_p1(), machine::opteron_2level(),
        machine::system_a_12kb(), machine::system_b_56kb()}) {
    EXPECT_NO_THROW(sys.hierarchy.validate()) << sys.name;
  }
}

}  // namespace
}  // namespace pmacx
