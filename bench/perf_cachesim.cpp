// Microbenchmark P1 — cache-simulator throughput.
//
// The tracer's cost is dominated by the on-the-fly cache simulation, so its
// throughput bounds how cheap "collect at small core counts" really is.
// Measured per access pattern and per hierarchy depth.
#include <benchmark/benchmark.h>

#include <vector>

#include "machine/targets.hpp"
#include "memsim/hierarchy.hpp"
#include "memsim/ref_block.hpp"
#include "memsim/reuse.hpp"
#include "reference_sim.hpp"
#include "synth/patterns.hpp"
#include "util/arena.hpp"

namespace {

using namespace pmacx;

synth::RefStream make_stream(synth::Pattern pattern, std::uint64_t footprint) {
  synth::StreamSpec spec;
  spec.pattern = pattern;
  spec.base_addr = 1ull << 40;
  spec.footprint_bytes = footprint;
  spec.elem_bytes = 8;
  spec.stride_elems = 4;
  spec.store_fraction = 0.3;
  return synth::RefStream(spec, 42);
}

// Shared staging for the gate pair below: both sides replay the same
// pre-staged 1M-reference window, so the measured ratio isolates the
// simulator implementations (staging/generation excluded from both).
constexpr std::size_t kStagedBlockRefs = 16384;
constexpr std::size_t kStagedBlocks = 64;

std::vector<memsim::RefBlockBuilder> stage_blocks(util::Arena& arena,
                                                  synth::Pattern pattern,
                                                  std::uint64_t footprint) {
  auto stream = make_stream(pattern, footprint);
  std::vector<memsim::RefBlockBuilder> blocks;
  blocks.reserve(kStagedBlocks);
  for (std::size_t b = 0; b < kStagedBlocks; ++b) {
    blocks.emplace_back(arena, kStagedBlockRefs);
    while (!blocks.back().full()) {
      const memsim::MemRef ref = stream.next();
      blocks.back().push(ref.addr, ref.size, ref.is_store);
    }
  }
  return blocks;
}

void BM_HierarchyAccess(benchmark::State& state) {
  const auto pattern = static_cast<synth::Pattern>(state.range(0));
  const std::uint64_t footprint = 1ull << state.range(1);
  memsim::CacheHierarchy hierarchy(machine::bluewaters_p1().hierarchy);
  auto stream = make_stream(pattern, footprint);
  hierarchy.set_scope(1);
  for (auto _ : state) {
    hierarchy.access(stream.next());
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(synth::pattern_name(pattern) + "/" +
                 std::to_string(footprint >> 20) + "MiB");
}
BENCHMARK(BM_HierarchyAccess)
    ->Args({static_cast<int>(synth::Pattern::Sequential), 24})
    ->Args({static_cast<int>(synth::Pattern::Strided), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 21})
    ->Args({static_cast<int>(synth::Pattern::Stencil3d), 24});

void BM_HierarchyReplayBlock(benchmark::State& state) {
  // The grouped block fast path over the same streams BM_HierarchyAccess
  // drives one reference at a time (items/sec are refs/sec in both, so the
  // bench gate can compare them directly).  Blocks are staged once up
  // front and cycled — the tracer stages each reference exactly once as it
  // decodes, so replay throughput is the quantity the simulator bounds —
  // and a full cycle covers a 1M-reference window of the stream.
  const auto pattern = static_cast<synth::Pattern>(state.range(0));
  const std::uint64_t footprint = 1ull << state.range(1);
  memsim::CacheHierarchy hierarchy(machine::bluewaters_p1().hierarchy);
  hierarchy.set_scope(1);
  util::Arena arena;
  const auto blocks = stage_blocks(arena, pattern, footprint);
  std::size_t next = 0;
  for (auto _ : state) {
    hierarchy.access_block(blocks[next].block());
    next = (next + 1) % kStagedBlocks;
  }
  state.SetItemsProcessed(state.iterations() * kStagedBlockRefs);
  state.SetLabel(synth::pattern_name(pattern) + "/" +
                 std::to_string(footprint >> 20) + "MiB");
}
BENCHMARK(BM_HierarchyReplayBlock)
    ->Args({static_cast<int>(synth::Pattern::Sequential), 24})
    ->Args({static_cast<int>(synth::Pattern::Strided), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 21})
    ->Args({static_cast<int>(synth::Pattern::Stencil3d), 24});

void BM_ReferenceHierarchyAccess(benchmark::State& state) {
  // The pre-refactor array-of-structs per-reference simulator
  // (bench/reference_sim.hpp), replaying the same pre-staged blocks as
  // BM_HierarchyReplayBlock one reference at a time.  The speedup gate
  // (tools/bench_compare.py speedup) divides the block path's items/sec by
  // this — both numbers come from the same run on the same machine, so the
  // enforced ratio cannot drift with host speed the way a comparison
  // against a checked-in baseline value would.
  const auto pattern = static_cast<synth::Pattern>(state.range(0));
  const std::uint64_t footprint = 1ull << state.range(1);
  bench::ReferenceHierarchy hierarchy(machine::bluewaters_p1().hierarchy);
  util::Arena arena;
  const auto blocks = stage_blocks(arena, pattern, footprint);
  std::size_t next = 0;
  for (auto _ : state) {
    const memsim::RefBlock block = blocks[next].block();
    for (std::size_t i = 0; i < block.count; ++i)
      hierarchy.access({block.addr[i], block.size[i], block.is_store[i] != 0});
    next = (next + 1) % kStagedBlocks;
  }
  state.SetItemsProcessed(state.iterations() * kStagedBlockRefs);
  state.SetLabel(synth::pattern_name(pattern) + "/" +
                 std::to_string(footprint >> 20) + "MiB");
}
BENCHMARK(BM_ReferenceHierarchyAccess)
    ->Args({static_cast<int>(synth::Pattern::Sequential), 24})
    ->Args({static_cast<int>(synth::Pattern::Strided), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 24})
    ->Args({static_cast<int>(synth::Pattern::Random), 21})
    ->Args({static_cast<int>(synth::Pattern::Stencil3d), 24});

void BM_ReuseDistance(benchmark::State& state) {
  const std::uint64_t footprint = 1ull << state.range(0);
  auto stream = make_stream(synth::Pattern::Random, footprint);
  memsim::ReuseDistanceAnalyzer analyzer;
  for (auto _ : state) {
    analyzer.access(stream.next().addr >> 6);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReuseDistance)->Arg(18)->Arg(22);

void BM_ScopeSwitching(benchmark::State& state) {
  // Cost of per-instruction scope attribution in the tracer's hot loop.
  memsim::CacheHierarchy hierarchy(machine::bluewaters_p1().hierarchy);
  auto stream = make_stream(synth::Pattern::Sequential, 1 << 22);
  std::uint64_t scope = 0;
  for (auto _ : state) {
    hierarchy.set_scope(1024 + (scope++ % 8));
    hierarchy.access(stream.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ScopeSwitching);

}  // namespace
