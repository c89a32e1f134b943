// Tests for the thread-aware hierarchy (hybrid MPI/OpenMP tracing):
// private-level isolation, shared-level contention, aggregation, and
// equivalence with the scalar hierarchy in the 1-thread case.
#include <gtest/gtest.h>

#include "memsim/hierarchy.hpp"
#include "memsim/ref_block.hpp"
#include "memsim/threaded.hpp"
#include "synth/patterns.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using memsim::CacheHierarchy;
using memsim::CacheLevelConfig;
using memsim::HierarchyConfig;
using memsim::MemRef;
using memsim::ThreadedHierarchy;

HierarchyConfig two_level(std::uint64_t l1_lines = 16, std::uint64_t l2_lines = 128) {
  CacheLevelConfig l1;
  l1.name = "L1";
  l1.size_bytes = l1_lines * 64;
  l1.line_bytes = 64;
  l1.associativity = 0;
  CacheLevelConfig l2 = l1;
  l2.name = "L2";
  l2.size_bytes = l2_lines * 64;
  HierarchyConfig cfg;
  cfg.name = "threaded-test";
  cfg.levels = {l1, l2};
  return cfg;
}

MemRef load(std::uint64_t addr) { return {addr, 8, false}; }

TEST(ThreadedTest, PrivateLevelsAreIsolated) {
  // Private L1 (16 lines), shared L2.  Thread 1 sweeps a large region;
  // thread 0's small working set must stay in ITS OWN L1.
  ThreadedHierarchy h(two_level(), 2, /*shared_from=*/1);
  for (std::uint64_t line = 0; line < 8; ++line) h.access(0, load(line * 64));
  for (std::uint64_t line = 100; line < 200; ++line) h.access(1, load(line * 64));
  const auto before = h.totals().level_hits[0];
  for (std::uint64_t line = 0; line < 8; ++line) h.access(0, load(line * 64));
  EXPECT_EQ(h.totals().level_hits[0], before + 8);  // all L1 hits
}

TEST(ThreadedTest, SharedLevelShowsContention) {
  // Two threads each touching 96 lines: together they exceed the shared
  // 128-line L2; alone one thread fits.  Shared-mode L2 hit rate must be
  // strictly worse than a single thread's.
  auto run = [](std::uint32_t threads) {
    ThreadedHierarchy h(two_level(), threads, 1);
    for (int pass = 0; pass < 4; ++pass)
      for (std::uint64_t line = 0; line < 96; ++line)
        for (std::uint32_t t = 0; t < threads; ++t)
          h.access(t, load((t * 4096 + line) * 64));
    return h.totals().cumulative_hit_rate(1);
  };
  EXPECT_GT(run(1), run(2) + 0.05);
}

TEST(ThreadedTest, SingleThreadMatchesScalarHierarchy) {
  HierarchyConfig cfg = two_level();
  ThreadedHierarchy threaded(cfg, 1, 1);
  CacheHierarchy scalar(cfg);
  synth::StreamSpec spec;
  spec.pattern = synth::Pattern::Gather;
  spec.base_addr = 0;
  spec.footprint_bytes = 1 << 16;
  spec.elem_bytes = 8;
  synth::RefStream a(spec, 5), b(spec, 5);
  for (int i = 0; i < 50'000; ++i) {
    threaded.access(0, a.next());
    scalar.access(b.next());
  }
  for (std::size_t lvl = 0; lvl < 2; ++lvl)
    EXPECT_NEAR(threaded.totals().cumulative_hit_rate(lvl),
                scalar.totals().cumulative_hit_rate(lvl), 1e-12);
}

TEST(ThreadedTest, ScopesAggregateAcrossThreads) {
  ThreadedHierarchy h(two_level(), 2, 1);
  h.set_scope(7);
  h.access(0, load(0));
  h.access(1, load(64));
  EXPECT_EQ(h.scope(7).refs, 2u);
  EXPECT_EQ(h.totals().refs, 2u);
  EXPECT_EQ(h.scope(99).refs, 0u);
}

TEST(ThreadedTest, AccessBlockMatchesPerReferenceRotation) {
  // Three threads with private L1s; blocks start mid-rotation and end on a
  // ragged count, so a block that restarted at thread 0 would land
  // references in the wrong private cache and move the L1 hits.
  ThreadedHierarchy blocked(two_level(), 3, 1);
  ThreadedHierarchy oracle(two_level(), 3, 1);
  synth::StreamSpec spec;
  spec.pattern = synth::Pattern::Gather;
  spec.footprint_bytes = 1 << 12;
  synth::RefStream a(spec, 9), b(spec, 9);
  util::Arena arena;
  memsim::RefBlockBuilder builder(arena, 1000);
  std::uint32_t thread = 0;
  for (int block = 0; block < 20; ++block) {
    blocked.set_scope(block % 2 + 1);
    oracle.set_scope(block % 2 + 1);
    builder.clear();
    const std::uint32_t first_thread = thread;
    for (int k = 0; k < 997; ++k) {
      const MemRef ref = a.next();
      builder.push(ref.addr, ref.size, ref.is_store);
      oracle.access(thread, b.next());
      thread = (thread + 1) % 3;
    }
    blocked.access_block(builder.block(), first_thread);
  }
  for (std::uint64_t scope : {0u, 1u, 2u}) {
    const memsim::AccessCounters& got = scope == 0 ? blocked.totals() : blocked.scope(scope);
    const memsim::AccessCounters& want = scope == 0 ? oracle.totals() : oracle.scope(scope);
    EXPECT_EQ(got.refs, want.refs);
    EXPECT_EQ(got.stores, want.stores);
    EXPECT_EQ(got.line_accesses, want.line_accesses);
    EXPECT_EQ(got.level_hits, want.level_hits);
    EXPECT_EQ(got.memory_accesses, want.memory_accesses);
    EXPECT_EQ(got.writebacks, want.writebacks);
  }
  EXPECT_THROW(blocked.access_block(builder.block(), 3), util::Error);
}

TEST(ThreadedTest, ShareEverythingAndShareNothingExtremes) {
  EXPECT_NO_THROW(ThreadedHierarchy(two_level(), 4, 0));  // all levels shared
  EXPECT_NO_THROW(ThreadedHierarchy(two_level(), 4, 2));  // all private
  // All-shared with one thread still behaves.
  ThreadedHierarchy h(two_level(), 1, 0);
  h.access(0, load(0));
  EXPECT_EQ(h.totals().memory_accesses, 1u);
}

TEST(ThreadedTest, Validation) {
  EXPECT_THROW(ThreadedHierarchy(two_level(), 0, 1), util::Error);
  EXPECT_THROW(ThreadedHierarchy(two_level(), 2, 5), util::Error);
  ThreadedHierarchy h(two_level(), 2, 1);
  EXPECT_THROW(h.access(7, load(0)), util::Error);
  HierarchyConfig with_prefetch = two_level();
  with_prefetch.prefetch.enabled = true;
  EXPECT_THROW(ThreadedHierarchy(with_prefetch, 2, 1), util::Error);
}

}  // namespace
}  // namespace pmacx
