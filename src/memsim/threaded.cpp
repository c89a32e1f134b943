#include "memsim/threaded.hpp"

#include <bit>

#include "util/error.hpp"

namespace pmacx::memsim {

ThreadedHierarchy::ThreadedHierarchy(HierarchyConfig config, std::uint32_t threads,
                                     std::size_t shared_from)
    : config_(std::move(config)), threads_(threads), shared_from_(shared_from) {
  config_.validate();
  PMACX_CHECK(threads_ > 0, "threaded hierarchy needs at least one thread");
  PMACX_CHECK(shared_from_ <= config_.levels.size(), "shared_from beyond level count");
  PMACX_CHECK(!config_.prefetch.enabled && !config_.tlb.enabled,
              "threaded hierarchy does not model prefetch/TLB (use per-rank mode)");
  line_shift_ = static_cast<std::uint32_t>(
      std::countr_zero(static_cast<std::uint64_t>(config_.line_bytes())));

  private_.resize(threads_);
  for (std::uint32_t t = 0; t < threads_; ++t) {
    for (std::size_t lvl = 0; lvl < shared_from_; ++lvl)
      private_[t].emplace_back(config_.levels[lvl], config_.seed + lvl + t * 131);
  }
  for (std::size_t lvl = shared_from_; lvl < config_.levels.size(); ++lvl)
    shared_.emplace_back(config_.levels[lvl], config_.seed + lvl);
}

void ThreadedHierarchy::set_scope(std::uint64_t block_id) {
  scope_ = block_id;
  current_ = &scopes_[block_id];
}

void ThreadedHierarchy::access(std::uint32_t thread, const MemRef& ref) {
  PMACX_CHECK(thread < threads_, "thread index out of range");
  PMACX_CHECK(ref.size > 0, "zero-size memory reference");
  if (current_ == nullptr) current_ = &scopes_[scope_];
  AccessCounters& scoped = *current_;

  auto count_ref = [&](AccessCounters& c) {
    ++c.refs;
    if (ref.is_store)
      ++c.stores;
    else
      ++c.loads;
    c.bytes += ref.size;
  };
  count_ref(totals_);
  count_ref(scoped);

  const std::uint64_t first_line = ref.addr >> line_shift_;
  const std::uint64_t last_line = (ref.addr + ref.size - 1) >> line_shift_;
  for (std::uint64_t line = first_line; line <= last_line; ++line) {
    if (config_.sample_shift != 0 &&
        (line & ((1ull << config_.sample_shift) - 1)) != 0)
      continue;
    ++totals_.line_accesses;
    ++scoped.line_accesses;
    bool resolved = false;
    for (std::size_t lvl = 0; lvl < config_.levels.size() && !resolved; ++lvl) {
      CacheLevel& level = lvl < shared_from_
                              ? private_[thread][lvl]
                              : shared_[lvl - shared_from_];
      const AccessOutcome outcome = level.access(line, ref.is_store);
      if (outcome.writeback) {
        ++totals_.writebacks;
        ++scoped.writebacks;
      }
      if (outcome.hit) {
        ++totals_.level_hits[lvl];
        ++scoped.level_hits[lvl];
        resolved = true;
      }
    }
    if (!resolved) {
      ++totals_.memory_accesses;
      ++scoped.memory_accesses;
    }
  }
}

void ThreadedHierarchy::access_block(const RefBlock& block, std::uint32_t first_thread) {
  PMACX_CHECK(first_thread < threads_, "thread index out of range");
  std::uint32_t thread = first_thread;
  for (std::size_t k = 0; k < block.count; ++k) {
    access(thread, {block.addr[k], block.size[k], block.is_store[k] != 0});
    if (++thread == threads_) thread = 0;
  }
}

const AccessCounters& ThreadedHierarchy::scope(std::uint64_t block_id) const {
  static const AccessCounters kEmpty{};
  const auto it = scopes_.find(block_id);
  return it == scopes_.end() ? kEmpty : it->second;
}

}  // namespace pmacx::memsim
