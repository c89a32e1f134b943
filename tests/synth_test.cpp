// Tests for the synthetic-application substrate: address patterns, scaling
// laws, the two application models, comm-trace safety and the tracer.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <ostream>
#include <set>
#include <utility>

#include "machine/targets.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/threaded.hpp"
#include "simmpi/replay.hpp"
#include "synth/app.hpp"
#include "synth/patterns.hpp"
#include "synth/hpcg.hpp"
#include "synth/registry.hpp"
#include "synth/specfem.hpp"
#include "synth/tracer.hpp"
#include "synth/uh3d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pmacx {
namespace {

using synth::Pattern;
using synth::RefStream;
using synth::StreamSpec;

StreamSpec spec_of(Pattern pattern, std::uint64_t footprint = 4096) {
  StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = 1 << 20;
  spec.footprint_bytes = footprint;
  spec.elem_bytes = 8;
  spec.stride_elems = 4;
  spec.store_fraction = 0.25;
  return spec;
}

// ------------------------------------------------------------- patterns ----

class PatternBoundsTest : public ::testing::TestWithParam<Pattern> {};

TEST_P(PatternBoundsTest, AllRefsInsideFootprint) {
  const StreamSpec spec = spec_of(GetParam());
  RefStream stream(spec, 1);
  for (int i = 0; i < 5000; ++i) {
    const auto ref = stream.next();
    EXPECT_GE(ref.addr, spec.base_addr);
    EXPECT_LT(ref.addr + ref.size, spec.base_addr + spec.footprint_bytes + spec.elem_bytes);
    EXPECT_EQ(ref.size, spec.elem_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPatterns, PatternBoundsTest,
                         ::testing::Values(Pattern::Sequential, Pattern::Strided,
                                           Pattern::Random, Pattern::Gather,
                                           Pattern::Stencil3d),
                         [](const auto& info) { return synth::pattern_name(info.param); });

TEST(PatternTest, SequentialCoversWholeFootprint) {
  const StreamSpec spec = spec_of(Pattern::Sequential, 512);  // 64 elements
  RefStream stream(spec, 1);
  std::set<std::uint64_t> addresses;
  for (int i = 0; i < 64; ++i) addresses.insert(stream.next().addr);
  EXPECT_EQ(addresses.size(), 64u);
}

TEST(PatternTest, SequentialWraps) {
  const StreamSpec spec = spec_of(Pattern::Sequential, 64);  // 8 elements
  RefStream stream(spec, 1);
  const auto first = stream.next().addr;
  for (int i = 0; i < 7; ++i) stream.next();
  EXPECT_EQ(stream.next().addr, first);
}

TEST(PatternTest, DeterministicForSeed) {
  auto run = [](std::uint64_t seed) {
    RefStream stream(spec_of(Pattern::Random), seed);
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 100; ++i) addrs.push_back(stream.next().addr);
    return addrs;
  };
  EXPECT_EQ(run(9), run(9));
  EXPECT_NE(run(9), run(10));
}

TEST(PatternTest, StoreFractionRoughlyHonored) {
  StreamSpec spec = spec_of(Pattern::Sequential);
  spec.store_fraction = 0.3;
  RefStream stream(spec, 5);
  int stores = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    if (stream.next().is_store) ++stores;
  EXPECT_NEAR(static_cast<double>(stores) / n, 0.3, 0.02);
}

TEST(PatternTest, RejectsBadSpecs) {
  StreamSpec spec = spec_of(Pattern::Sequential);
  spec.footprint_bytes = 4;  // smaller than one element
  EXPECT_THROW(RefStream(spec, 1), util::Error);
  spec = spec_of(Pattern::Sequential);
  spec.store_fraction = 1.5;
  EXPECT_THROW(RefStream(spec, 1), util::Error);
  spec = spec_of(Pattern::Strided);
  spec.stride_elems = 0;
  EXPECT_THROW(RefStream(spec, 1), util::Error);
}

// ----------------------------------------------------------------- laws ----

TEST(LawsTest, PerCoreDividesAndFloors) {
  EXPECT_DOUBLE_EQ(synth::laws::per_core(1000, 10), 100);
  EXPECT_DOUBLE_EQ(synth::laws::per_core(10, 1000), 1);  // floored
}

TEST(LawsTest, SurfaceIsTwoThirdsPower) {
  const double v = synth::laws::surface(1e6, 1.0, 1.0);
  EXPECT_NEAR(v, std::pow(1e6, 2.0 / 3.0), 1e-6);
  // Surface shrinks slower than volume under strong scaling.
  const double s8 = synth::laws::surface(1e6, 8.0, 1.0);
  EXPECT_GT(s8, v / 8.0);
}

TEST(LawsTest, GrowthLaws) {
  EXPECT_DOUBLE_EQ(synth::laws::log_growth(1, 2, 8), 7);   // 1 + 2·3
  EXPECT_DOUBLE_EQ(synth::laws::linear_growth(1, 2, 8), 17);
}

TEST(LawsTest, ImbalancePeaksAtRankZero) {
  const std::uint32_t cores = 64;
  const double peak = synth::imbalance_factor(0, cores, 0.1);
  EXPECT_NEAR(peak, 1.1, 1e-9);
  for (std::uint32_t r = 1; r < cores; ++r) {
    const double f = synth::imbalance_factor(r, cores, 0.1);
    EXPECT_LT(f, peak);
    EXPECT_GE(f, 1.0);
  }
}

// ----------------------------------------------------------------- apps ----

template <typename App>
class AppModelTest : public ::testing::Test {};

using AppTypes = ::testing::Types<synth::Specfem3dApp, synth::Uh3dApp, synth::HpcgApp>;
TYPED_TEST_SUITE(AppModelTest, AppTypes);

TYPED_TEST(AppModelTest, KernelsValidateAndHaveStableIds) {
  const TypeParam app;
  const auto k96 = app.kernels(96, 0);
  const auto k384 = app.kernels(384, 0);
  ASSERT_EQ(k96.size(), k384.size());
  for (std::size_t i = 0; i < k96.size(); ++i) {
    EXPECT_EQ(k96[i].block_id, k384[i].block_id);
    EXPECT_NO_THROW(k96[i].validate());
  }
}

TYPED_TEST(AppModelTest, StrongScalingShrinksDominantKernel) {
  const TypeParam app;
  // Total memory refs of the dominant kernel must shrink as cores grow.
  const auto small = app.kernels(128, 0);
  const auto large = app.kernels(4096, 0);
  std::uint64_t small_max = 0, large_max = 0;
  for (const auto& k : small) small_max = std::max(small_max, k.total_refs());
  for (const auto& k : large) large_max = std::max(large_max, k.total_refs());
  EXPECT_LT(large_max, small_max);
}

TYPED_TEST(AppModelTest, DemandingRankHasMostWork) {
  const TypeParam app;
  const std::uint32_t cores = 64;
  const std::uint32_t demanding = app.demanding_rank(cores);
  const double peak = app.work_units(cores, demanding);
  for (std::uint32_t r = 0; r < cores; r += 7)
    EXPECT_LE(app.work_units(cores, r), peak) << "rank " << r;
}

TYPED_TEST(AppModelTest, CommTracesReplayWithoutDeadlock) {
  const TypeParam app;
  for (std::uint32_t cores : {4u, 6u, 16u}) {
    std::vector<trace::CommTrace> traces;
    for (std::uint32_t r = 0; r < cores; ++r) traces.push_back(app.comm_trace(cores, r));
    const std::vector<double> scales(cores, 1e-9);
    simmpi::NetworkModel net;
    EXPECT_NO_THROW(simmpi::replay(simmpi::timelines_from_comm(traces, scales), net))
        << cores << " cores";
  }
}

TYPED_TEST(AppModelTest, WorkUnitsPositiveAndDeterministic) {
  const TypeParam app;
  EXPECT_GT(app.work_units(64, 0), 0.0);
  EXPECT_DOUBLE_EQ(app.work_units(64, 3), app.work_units(64, 3));
}

TEST(AppModelTest2, SpecfemHasLogGrowthKernel) {
  // reduce_norm's refs/visit must grow with cores (the Fig. 5 shape).
  const synth::Specfem3dApp app;
  const auto small = app.kernels(128, 0);
  const auto large = app.kernels(4096, 0);
  bool found_growth = false;
  for (std::size_t i = 0; i < small.size(); ++i)
    if (large[i].refs_per_visit > small[i].refs_per_visit * 1.2) found_growth = true;
  EXPECT_TRUE(found_growth);
}

TEST(AppModelTest2, CommTraceRequiresEvenCores) {
  const synth::Specfem3dApp app;
  EXPECT_THROW(app.comm_trace(5, 0), util::Error);
}

// --------------------------------------------------------------- registry ----

TEST(RegistryTest, MakesEveryKnownApp) {
  for (const std::string& name : synth::app_names()) {
    const auto app = synth::make_app(name);
    ASSERT_NE(app, nullptr);
    EXPECT_EQ(app->name(), name);
    EXPECT_GT(app->work_units(64, 0), 0.0);
  }
}

TEST(RegistryTest, WorkScaleMultipliesWork) {
  const auto base = synth::make_app("hpcg", 1.0);
  const auto scaled = synth::make_app("hpcg", 10.0);
  EXPECT_NEAR(scaled->work_units(64, 0), 10.0 * base->work_units(64, 0),
              0.01 * scaled->work_units(64, 0));
}

TEST(RegistryTest, RejectsUnknownAppAndBadScale) {
  EXPECT_THROW(synth::make_app("linpack"), util::Error);
  EXPECT_THROW(synth::make_app("hpcg", 0.0), util::Error);
}

// ----------------------------------------------------------------- tracer ----

synth::TracerOptions tracer_options(std::uint64_t cap = 200'000) {
  synth::TracerOptions options;
  options.target = machine::bluewaters_p1().hierarchy;
  options.max_refs_per_kernel = cap;
  return options;
}

TEST(TracerTest, TraceStructureComplete) {
  const synth::Specfem3dApp app;
  const auto task = synth::trace_task(app, 96, 0, tracer_options());
  EXPECT_EQ(task.app, "specfem3d");
  EXPECT_EQ(task.core_count, 96u);
  EXPECT_FALSE(task.extrapolated);
  EXPECT_EQ(task.blocks.size(), app.kernels(96, 0).size());
  for (const auto& block : task.blocks) {
    EXPECT_GT(block.get(trace::BlockElement::VisitCount), 0.0);
    EXPECT_FALSE(block.instructions.empty());
  }
}

TEST(TracerTest, HitRatesValidAndMonotone) {
  const synth::Uh3dApp app;
  const auto task = synth::trace_task(app, 1024, 0, tracer_options());
  for (const auto& block : task.blocks) {
    const double h1 = block.get(trace::BlockElement::HitRateL1);
    const double h2 = block.get(trace::BlockElement::HitRateL2);
    const double h3 = block.get(trace::BlockElement::HitRateL3);
    EXPECT_GE(h1, 0.0);
    EXPECT_LE(h3, 1.0);
    EXPECT_LE(h1, h2);
    EXPECT_LE(h2, h3);
    for (const auto& instr : block.instructions) {
      EXPECT_LE(instr.get(trace::InstrElement::HitRateL1),
                instr.get(trace::InstrElement::HitRateL2) + 1e-12);
    }
  }
}

TEST(TracerTest, CountsAreAnalyticDespiteSampling) {
  // The recorded memory-op totals must not depend on the sampling cap.
  const synth::Specfem3dApp app;
  const auto coarse = synth::trace_task(app, 96, 0, tracer_options(50'000));
  const auto fine = synth::trace_task(app, 96, 0, tracer_options(400'000));
  for (std::size_t b = 0; b < coarse.blocks.size(); ++b) {
    const double c = coarse.blocks[b].memory_ops();
    const double f = fine.blocks[b].memory_ops();
    EXPECT_NEAR(c, f, 0.02 * std::max(c, f)) << "block " << coarse.blocks[b].id;
  }
}

TEST(TracerTest, SmallerL1TargetLowersHitRate) {
  const synth::Specfem3dApp app;
  synth::TracerOptions a = tracer_options();
  a.target = machine::system_a_12kb().hierarchy;
  synth::TracerOptions b = tracer_options();
  b.target = machine::system_b_56kb().hierarchy;
  const auto trace_a = synth::trace_task(app, 96, 0, a);
  const auto trace_b = synth::trace_task(app, 96, 0, b);
  // The constant source-injection kernel (24 KB footprint) fits system B's
  // L1 but not system A's — the Table III contrast.
  const auto* block_a = trace_a.find_block(4);
  const auto* block_b = trace_b.find_block(4);
  ASSERT_NE(block_a, nullptr);
  ASSERT_NE(block_b, nullptr);
  EXPECT_GT(block_b->get(trace::BlockElement::HitRateL1),
            block_a->get(trace::BlockElement::HitRateL1) + 0.05);
}

TEST(TracerTest, CollectSignatureDefaultsToDemandingRank) {
  const synth::Uh3dApp app;
  const auto signature = synth::collect_signature(app, 16, tracer_options());
  EXPECT_EQ(signature.tasks.size(), 1u);
  EXPECT_EQ(signature.tasks[0].rank, app.demanding_rank(16));
  EXPECT_EQ(signature.comm.size(), 16u);
  EXPECT_NO_THROW(signature.validate());
}

TEST(TracerTest, CollectSignatureExtraRanks) {
  const synth::Uh3dApp app;
  const auto signature =
      synth::collect_signature(app, 16, tracer_options(), {0, 8, 8, 15});
  EXPECT_EQ(signature.tasks.size(), 3u);  // deduplicated
}

TEST(TracerTest, SetSamplingPreservesHitRates) {
  const synth::Uh3dApp app;
  const auto full = synth::trace_task(app, 1024, 0, tracer_options());
  synth::TracerOptions sampled_options = tracer_options();
  sampled_options.sample_shift = 3;  // simulate 1/8 of the lines
  const auto sampled = synth::trace_task(app, 1024, 0, sampled_options);

  ASSERT_EQ(sampled.blocks.size(), full.blocks.size());
  for (std::size_t b = 0; b < full.blocks.size(); ++b) {
    // Counts are analytic and unaffected; hit rates agree within sampling
    // noise.
    EXPECT_NEAR(sampled.blocks[b].memory_ops(), full.blocks[b].memory_ops(),
                1e-6 * full.blocks[b].memory_ops());
    EXPECT_NEAR(sampled.blocks[b].get(trace::BlockElement::HitRateL3),
                full.blocks[b].get(trace::BlockElement::HitRateL3), 0.05)
        << "block " << full.blocks[b].id;
  }
}

TEST(TracerTest, DeterministicTraces) {
  const synth::Specfem3dApp app;
  const auto a = synth::trace_task(app, 96, 0, tracer_options());
  const auto b = synth::trace_task(app, 96, 0, tracer_options());
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------- per-reference oracle ----

// Counters of one (block id, memory instruction) scope.
using ScopeCounters = std::map<std::pair<std::uint64_t, std::uint32_t>, memsim::AccessCounters>;

// The tracer's simulation done one reference at a time, with the scope set
// before every reference: the oracle the staged block replay must match.
ScopeCounters per_reference_scopes(const std::vector<synth::KernelSpec>& kernels,
                                   const synth::TracerOptions& options) {
  memsim::HierarchyConfig target = options.target;
  target.sample_shift = options.sample_shift;
  const std::uint32_t threads = std::max<std::uint32_t>(options.threads_per_rank, 1);
  std::optional<memsim::CacheHierarchy> flat;
  std::optional<memsim::ThreadedHierarchy> threaded;
  if (threads == 1)
    flat.emplace(target);
  else
    threaded.emplace(target, threads, std::min(options.shared_from_level, target.levels.size()));

  ScopeCounters scopes;
  for (const synth::KernelSpec& kernel : kernels) {
    const std::uint64_t sim_refs = std::min(kernel.total_refs(), options.max_refs_per_kernel);
    const std::uint64_t slice_bytes =
        synth::thread_slice_bytes(kernel.footprint_bytes, threads, target.line_bytes());
    std::vector<RefStream> streams;
    for (std::uint32_t t = 0; t < threads; ++t) {
      StreamSpec spec;
      spec.pattern = kernel.pattern;
      spec.base_addr = (kernel.block_id << 40) + t * slice_bytes;
      spec.footprint_bytes = slice_bytes;
      spec.elem_bytes = kernel.elem_bytes;
      spec.stride_elems = kernel.stride_elems;
      spec.store_fraction = kernel.store_fraction;
      streams.emplace_back(spec, util::derive_seed(options.seed, kernel.block_id * 64 + t));
    }
    const std::uint32_t mem_instrs = std::max<std::uint32_t>(kernel.mem_instructions, 1);
    const auto scope_id = [&](std::uint32_t instr) { return kernel.block_id * 1024 + instr + 1; };
    for (std::uint64_t i = 0; i < sim_refs; ++i) {
      const auto instr = static_cast<std::uint32_t>((i * mem_instrs) / sim_refs);
      const auto thread = static_cast<std::uint32_t>(i % threads);
      const memsim::MemRef ref = streams[thread].next();
      if (flat) {
        flat->set_scope(scope_id(instr));
        flat->access(ref);
      } else {
        threaded->set_scope(scope_id(instr));
        threaded->access(thread, ref);
      }
    }
    for (std::uint32_t instr = 0; instr < mem_instrs; ++instr)
      scopes[{kernel.block_id, instr}] =
          flat ? flat->scope(scope_id(instr)) : threaded->scope(scope_id(instr));
  }
  return scopes;
}

// `traced` with every simulated element (load/store split, hit rates,
// memory-instruction counts) recomputed from the oracle's counters.
trace::TaskTrace with_oracle_elements(trace::TaskTrace traced,
                                      const std::vector<synth::KernelSpec>& kernels,
                                      const ScopeCounters& scopes,
                                      const synth::TracerOptions& options) {
  const std::size_t levels = options.target.levels.size();
  const auto hit_rates = [&](const memsim::AccessCounters& c) {
    std::array<double, memsim::kMaxLevels> rates{};
    double rate = 0.0;
    for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl) {
      if (lvl < levels) rate = c.cumulative_hit_rate(lvl);
      rates[lvl] = rate;
    }
    return rates;
  };
  for (trace::BasicBlockRecord& record : traced.blocks) {
    const auto kernel = std::find_if(kernels.begin(), kernels.end(),
                                     [&](const auto& k) { return k.block_id == record.id; });
    const std::uint64_t total_refs = kernel->total_refs();
    const std::uint64_t sim_refs = std::min(total_refs, options.max_refs_per_kernel);
    const double count_scale =
        sim_refs > 0 ? static_cast<double>(total_refs) / static_cast<double>(sim_refs) : 0.0;
    const std::uint32_t mem_instrs = std::max<std::uint32_t>(kernel->mem_instructions, 1);

    memsim::AccessCounters block;
    for (std::uint32_t instr = 0; instr < mem_instrs; ++instr)
      block.merge(scopes.at({record.id, instr}));
    const double sim_total = static_cast<double>(block.refs);
    const double load_fraction = sim_total > 0 ? static_cast<double>(block.loads) / sim_total
                                               : 1.0 - kernel->store_fraction;
    record.set(trace::BlockElement::MemLoads, static_cast<double>(total_refs) * load_fraction);
    record.set(trace::BlockElement::MemStores,
               static_cast<double>(total_refs) * (1.0 - load_fraction));
    const auto block_rates = hit_rates(block);
    record.set(trace::BlockElement::HitRateL1, block_rates[0]);
    record.set(trace::BlockElement::HitRateL2, block_rates[1]);
    record.set(trace::BlockElement::HitRateL3, block_rates[2]);

    for (trace::InstructionRecord& rec : record.instructions) {
      if (rec.index >= mem_instrs) continue;  // floating-point: analytic
      const memsim::AccessCounters& c = scopes.at({record.id, rec.index});
      rec.set(trace::InstrElement::ExecCount, static_cast<double>(c.refs) * count_scale);
      rec.set(trace::InstrElement::MemOps, static_cast<double>(c.refs) * count_scale);
      const auto rates = hit_rates(c);
      rec.set(trace::InstrElement::HitRateL1, rates[0]);
      rec.set(trace::InstrElement::HitRateL2, rates[1]);
      rec.set(trace::InstrElement::HitRateL3, rates[2]);
    }
  }
  return traced;
}

struct OracleCase {
  std::string name;
  std::string app;
  std::uint32_t cores;
  synth::TracerOptions options;
};

void PrintTo(const OracleCase& c, std::ostream* os) { *os << c.name; }

OracleCase oracle_case(std::string name, std::string app, std::uint32_t cores,
                       std::uint64_t cap) {
  return {std::move(name), std::move(app), cores, tracer_options(cap)};
}

std::vector<OracleCase> oracle_cases() {
  std::vector<OracleCase> cases;
  // Caps that split slices across several staged blocks with a ragged tail.
  cases.push_back(oracle_case("PaperScaleFootprint", "specfem3d", 96, 30'001));
  cases.push_back(oracle_case("Hybrid", "uh3d", 1024, 20'000));
  cases.back().options.threads_per_rank = 2;
  cases.push_back(oracle_case("SetSampled", "uh3d", 1024, 20'000));
  cases.back().options.sample_shift = 2;
  // Prefetching and Random replacement take access_block's per-reference
  // fallback instead of grouped replay.
  cases.push_back(oracle_case("Prefetch", "specfem3d", 96, 20'000));
  cases.back().options.target.prefetch.enabled = true;
  cases.push_back(oracle_case("RandomReplacement", "hpcg", 64, 20'000));
  for (auto& level : cases.back().options.target.levels)
    level.replacement = memsim::Replacement::Random;
  // Fewer references than instructions: some slices are empty.
  cases.push_back(oracle_case("TinyCap", "specfem3d", 96, 3));
  return cases;
}

class TracerOracleTest : public ::testing::TestWithParam<OracleCase> {};

TEST_P(TracerOracleTest, StagedReplayMatchesPerReferenceSimulation) {
  const OracleCase& c = GetParam();
  synth::SpecfemConfig specfem;
  specfem.global_field_bytes = 100'000'000'000;  // bench::specfem_config's fields
  const std::unique_ptr<synth::SyntheticApp> app =
      c.app == "specfem3d" ? std::make_unique<synth::Specfem3dApp>(specfem)
                           : synth::make_app(c.app);
  const std::vector<synth::KernelSpec> kernels = app->kernels(c.cores, 0);
  const trace::TaskTrace traced = synth::trace_task(*app, c.cores, 0, c.options);
  const trace::TaskTrace expected =
      with_oracle_elements(traced, kernels, per_reference_scopes(kernels, c.options), c.options);
  ASSERT_EQ(traced.blocks.size(), kernels.size());
  for (std::size_t b = 0; b < traced.blocks.size(); ++b)
    EXPECT_EQ(traced.blocks[b], expected.blocks[b]) << "block " << traced.blocks[b].id;
}

INSTANTIATE_TEST_SUITE_P(Configs, TracerOracleTest, ::testing::ValuesIn(oracle_cases()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace pmacx
