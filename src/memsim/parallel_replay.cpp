#include "memsim/parallel_replay.hpp"

#include <algorithm>
#include <string>

#include "memsim/ref_block.hpp"
#include "util/arena.hpp"
#include "util/error.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx::memsim {

std::vector<RankReplay> replay_ranks(const HierarchyConfig& config, std::uint32_t ranks,
                                     std::uint64_t refs_per_rank,
                                     const RankStreamFactory& make_stream,
                                     util::ThreadPool* pool) {
  PMACX_CHECK(static_cast<bool>(make_stream), "replay_ranks requires a stream factory");
  util::metrics::StageTimer timer("memsim.replay");

  // References are staged into an arena-backed SoA block and replayed
  // block-at-a-time: the generator and the simulator each run over a dense
  // array instead of interleaving per reference.  Staging order == replay
  // order, so the counters match the one-at-a-time path exactly.
  auto replay_one = [&](std::size_t index) {
    const auto rank = static_cast<std::uint32_t>(index);
    RankReplay result;
    result.rank = rank;
    CacheHierarchy hierarchy(config);  // private: no sharing across ranks
    hierarchy.set_scope(rank + 1);
    RefGenerator next = make_stream(rank);
    util::Arena arena;
    RefBlockBuilder block(arena, kStagedRefs);
    std::uint64_t remaining = refs_per_rank;
    while (remaining > 0) {
      const std::uint64_t chunk =
          std::min<std::uint64_t>(remaining, kStagedRefs);
      block.clear();
      for (std::uint64_t i = 0; i < chunk; ++i) {
        const MemRef ref = next();
        block.push(ref.addr, ref.size, ref.is_store);
      }
      hierarchy.access_block(block.block());
      remaining -= chunk;
    }
    result.counters = hierarchy.totals();
    return result;
  };

  std::vector<RankReplay> results;
  if (pool != nullptr && !pool->serial() && ranks > 1) {
    results = pool->parallel_map<RankReplay>(ranks, replay_one);
  } else {
    results.reserve(ranks);
    for (std::uint32_t rank = 0; rank < ranks; ++rank) results.push_back(replay_one(rank));
  }

  // Flush aggregate tallies once per call, in rank order — the per-access
  // path stays atomic-free and the totals match the serial path exactly.
  AccessCounters totals;
  for (const RankReplay& replay : results) totals.merge(replay.counters);
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("memsim.replay.ranks").add(ranks);
  metrics.counter("memsim.refs").add(totals.refs);
  metrics.counter("memsim.loads").add(totals.loads);
  metrics.counter("memsim.stores").add(totals.stores);
  metrics.counter("memsim.bytes").add(totals.bytes);
  metrics.counter("memsim.line_accesses").add(totals.line_accesses);
  for (std::size_t lvl = 0; lvl < config.levels.size() && lvl < kMaxLevels; ++lvl)
    metrics.counter("memsim.hits.l" + std::to_string(lvl + 1)).add(totals.level_hits[lvl]);
  metrics.counter("memsim.memory_accesses").add(totals.memory_accesses);
  metrics.counter("memsim.writebacks").add(totals.writebacks);
  return results;
}

}  // namespace pmacx::memsim
