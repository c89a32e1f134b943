// Whole-workload scalar-vs-AVX2 byte identity.  The SIMD layer's contract
// (util/simd.hpp) is that dispatch level never changes a single output bit;
// these tests pin the level with force_level and drive the two public
// pipelines that use the kernels — trace extrapolation and cache
// simulation — end to end at both levels.  The release-noavx2 CI leg runs
// the same suite with the AVX2 paths compiled out, where the AVX2 halves
// skip and the scalar halves still pass.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/extrapolator.hpp"
#include "machine/targets.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/ref_block.hpp"
#include "synth/patterns.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/arena.hpp"
#include "util/simd.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

using trace::BasicBlockRecord;
using trace::BlockElement;
using trace::InstrElement;
using trace::InstructionRecord;
using trace::TaskTrace;
using util::simd::Level;

/// Pins the dispatch level for one scope and always restores resolution.
class ForcedLevel {
 public:
  explicit ForcedLevel(Level level) { util::simd::force_level(level); }
  ~ForcedLevel() { util::simd::clear_forced_level(); }
};

/// A multi-block trace at `cores` with element series engineered to hit
/// every canonical form and fallback path (zeros, negatives, decays).
TaskTrace identity_trace(std::uint32_t cores, std::size_t block_count) {
  TaskTrace task;
  task.app = "simd-identity";
  task.rank = 0;
  task.core_count = cores;
  task.target_system = "test";
  const double p = static_cast<double>(cores);
  for (std::size_t b = 0; b < block_count; ++b) {
    BasicBlockRecord block;
    block.id = 100 + b;
    block.location = {"kern.c", static_cast<std::uint32_t>(b + 1), "kern"};
    // Different scaling shape per block so batches mix forms.
    switch (b % 5) {
      case 0: block.set(BlockElement::VisitCount, 50.0 + 2.0 * p); break;
      case 1: block.set(BlockElement::VisitCount, 10.0 * std::log(p)); break;
      case 2: block.set(BlockElement::VisitCount, 3.0 * std::pow(p, 1.3)); break;
      case 3: block.set(BlockElement::VisitCount, 1e6 / p); break;
      case 4: block.set(BlockElement::VisitCount, p > 20 ? 0.0 : 7.0); break;
    }
    block.set(BlockElement::MemLoads, 8.0e6 / p);
    block.set(BlockElement::MemStores, 4.0e6 / p + static_cast<double>(b));
    block.set(BlockElement::BytesPerRef, 8.0);
    block.set(BlockElement::HitRateL1, 0.90);
    block.set(BlockElement::HitRateL2, 0.95);
    block.set(BlockElement::HitRateL3, 0.99);
    InstructionRecord instr;
    instr.index = 1;
    instr.set(InstrElement::ExecCount, 100.0 * p);
    instr.set(InstrElement::MemOps, 75.0);
    instr.set(InstrElement::HitRateL1, 0.5);
    instr.set(InstrElement::HitRateL2, 0.6);
    instr.set(InstrElement::HitRateL3, 0.7);
    block.instructions.push_back(instr);
    task.blocks.push_back(block);
  }
  task.sort_blocks();
  return task;
}

std::vector<TaskTrace> identity_series() {
  std::vector<TaskTrace> series;
  for (std::uint32_t p : {8u, 16u, 32u, 64u}) series.push_back(identity_trace(p, 40));
  return series;
}

/// The full extrapolation output, serialized: trace bytes plus the scores
/// and candidates digest via the model set's golden evaluation.
std::string extrapolation_bytes(const std::vector<TaskTrace>& series,
                                const core::ExtrapolationOptions& options) {
  const auto result = core::extrapolate_task(series, 512, options);
  return trace::to_binary(result.trace);
}

TEST(SimdIdentityTest, ExtrapolationBytesIdenticalAcrossLevels) {
  const auto series = identity_series();
  core::ExtrapolationOptions options;
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    scalar_bytes = extrapolation_bytes(series, options);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  EXPECT_EQ(extrapolation_bytes(series, options), scalar_bytes);
}

TEST(SimdIdentityTest, ExtrapolationBytesIdenticalAcrossLevelsThreaded) {
  const auto series = identity_series();
  util::ThreadPool pool(4);
  core::ExtrapolationOptions options;
  options.pool = &pool;
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    scalar_bytes = extrapolation_bytes(series, options);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  EXPECT_EQ(extrapolation_bytes(series, options), scalar_bytes);
}

TEST(SimdIdentityTest, FittedModelSetIdenticalAcrossLevels) {
  const auto series = identity_series();
  std::string scalar_bytes;
  {
    ForcedLevel forced(Level::Scalar);
    const auto models = core::fit_task_models(series);
    scalar_bytes = trace::to_binary(core::extrapolate_from_models(models, 2048).trace);
  }
  if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
  ForcedLevel forced(Level::Avx2);
  const auto models = core::fit_task_models(series);
  EXPECT_EQ(trace::to_binary(core::extrapolate_from_models(models, 2048).trace),
            scalar_bytes);
}

// -------------------------------------------------------------- cache sim ----

synth::RefStream identity_stream(synth::Pattern pattern, std::uint32_t rank) {
  synth::StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = (1ull << 40) + (static_cast<std::uint64_t>(rank) << 30);
  spec.footprint_bytes = 1u << 20;
  spec.elem_bytes = 8;
  spec.stride_elems = 3;
  spec.store_fraction = 0.25;
  return synth::RefStream(spec, 4000 + rank);
}

/// Streams `refs` references of each of four ranks' identity streams
/// through a private hierarchy per rank, staged into full RefBlocks.
std::vector<memsim::AccessCounters> replay_four_ranks(const memsim::HierarchyConfig& config,
                                                      synth::Pattern pattern,
                                                      std::uint64_t refs) {
  std::vector<memsim::AccessCounters> counters;
  util::Arena arena;
  memsim::RefBlockBuilder builder(arena, memsim::kStagedRefs);
  for (std::uint32_t rank = 0; rank < 4; ++rank) {
    memsim::CacheHierarchy hierarchy(config);
    hierarchy.set_scope(rank + 1);
    synth::RefStream stream = identity_stream(pattern, rank);
    for (std::uint64_t remaining = refs; remaining > 0;) {
      builder.clear();
      for (; remaining > 0 && !builder.full(); --remaining) {
        const memsim::MemRef ref = stream.next();
        builder.push(ref.addr, ref.size, ref.is_store);
      }
      hierarchy.access_block(builder.block());
    }
    counters.push_back(hierarchy.totals());
  }
  return counters;
}

void expect_identical(const memsim::AccessCounters& a, const memsim::AccessCounters& b) {
  EXPECT_EQ(a.refs, b.refs);
  EXPECT_EQ(a.loads, b.loads);
  EXPECT_EQ(a.stores, b.stores);
  EXPECT_EQ(a.bytes, b.bytes);
  EXPECT_EQ(a.line_accesses, b.line_accesses);
  for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl)
    EXPECT_EQ(a.level_hits[lvl], b.level_hits[lvl]);
  EXPECT_EQ(a.memory_accesses, b.memory_accesses);
  EXPECT_EQ(a.tlb_misses, b.tlb_misses);
  EXPECT_EQ(a.writebacks, b.writebacks);
}

TEST(SimdIdentityTest, CacheReplayCountersIdenticalAcrossLevels) {
  // Hierarchies capture their find_tag kernel at construction, so the level
  // must be pinned before replay_four_ranks constructs them.
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  for (const synth::Pattern pattern :
       {synth::Pattern::Sequential, synth::Pattern::Random, synth::Pattern::Strided}) {
    std::vector<memsim::AccessCounters> scalar_replay;
    {
      ForcedLevel forced(Level::Scalar);
      scalar_replay = replay_four_ranks(config, pattern, 30'000);
    }
    if (!util::simd::avx2_available()) GTEST_SKIP() << "AVX2 not available";
    ForcedLevel forced(Level::Avx2);
    const auto avx2_replay = replay_four_ranks(config, pattern, 30'000);
    ASSERT_EQ(scalar_replay.size(), avx2_replay.size());
    for (std::size_t r = 0; r < scalar_replay.size(); ++r)
      expect_identical(scalar_replay[r], avx2_replay[r]);
  }
}

TEST(SimdIdentityTest, AccessBlockMatchesPerRefAccess) {
  const memsim::HierarchyConfig config = machine::bluewaters_p1().hierarchy;
  synth::RefStream stream_a = identity_stream(synth::Pattern::Strided, 0);
  synth::RefStream stream_b = identity_stream(synth::Pattern::Strided, 0);

  memsim::CacheHierarchy one_at_a_time(config);
  one_at_a_time.set_scope(7);
  for (int i = 0; i < 50'000; ++i) one_at_a_time.access(stream_a.next());

  memsim::CacheHierarchy blocked(config);
  blocked.set_scope(7);
  util::Arena arena;
  // A block size that leaves a ragged tail on the final refill.
  memsim::RefBlockBuilder builder(arena, 1013);
  int remaining = 50'000;
  while (remaining > 0) {
    builder.clear();
    while (remaining > 0 && !builder.full()) {
      const memsim::MemRef ref = stream_b.next();
      builder.push(ref.addr, ref.size, ref.is_store);
      --remaining;
    }
    blocked.access_block(builder.block());
  }

  expect_identical(one_at_a_time.totals(), blocked.totals());
  expect_identical(one_at_a_time.scope(7), blocked.scope(7));
}

}  // namespace
}  // namespace pmacx
