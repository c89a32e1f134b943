// Thread-aware cache hierarchy for hybrid MPI/OpenMP tracing.
//
// Section III-A requires the base system to run "the same parallelization
// mode (e.g., MPI or hybrid MPI/OpenMP) that will be used on the target".
// In hybrid mode one MPI rank hosts T threads that share the deeper cache
// levels: each thread gets private copies of levels [0, shared_from) while
// levels [shared_from, n) are shared, so thread streams genuinely contend
// for the shared capacity (the effect hybrid tracing must capture).
// Accounting is rank-level (aggregated over threads), matching the per-task
// trace files the methodology consumes.
#pragma once

#include <cstdint>
#include <vector>

#include "memsim/hierarchy.hpp"

namespace pmacx::memsim {

/// A hierarchy shared by T threads of one rank.
class ThreadedHierarchy {
 public:
  /// `shared_from` is the first shared level index (e.g. 2 for private
  /// L1/L2 + shared L3).  Must be ≤ the level count; `shared_from == 0`
  /// shares everything, `shared_from == levels` shares nothing.
  ThreadedHierarchy(HierarchyConfig config, std::uint32_t threads, std::size_t shared_from);

  /// Selects the accounting scope (rank-level, shared by all threads).
  void set_scope(std::uint64_t block_id);

  /// Streams one reference of `thread` through its private levels and the
  /// shared levels.
  void access(std::uint32_t thread, const MemRef& ref);

  /// Replays a staged block within the current scope, reference k issued
  /// by thread (first_thread + k) % threads: the interleave of T streams
  /// staged round-robin.  Counter-identical to calling access() per
  /// reference.
  void access_block(const RefBlock& block, std::uint32_t first_thread);

  /// Aggregated counters across all threads.
  const AccessCounters& totals() const { return totals_; }

  /// Per-scope counters (aggregated over threads).
  const AccessCounters& scope(std::uint64_t block_id) const;

  std::size_t num_levels() const { return config_.levels.size(); }
  std::uint32_t threads() const { return threads_; }

  const HierarchyConfig& config() const { return config_; }

 private:
  HierarchyConfig config_;
  std::uint32_t threads_;
  std::size_t shared_from_;
  std::uint32_t line_shift_;
  /// private_[t][lvl] for lvl < shared_from_.
  std::vector<std::vector<CacheLevel>> private_;
  /// shared_[lvl - shared_from_].
  std::vector<CacheLevel> shared_;
  std::uint64_t scope_ = 0;
  AccessCounters totals_;
  std::unordered_map<std::uint64_t, AccessCounters> scopes_;
  AccessCounters* current_ = nullptr;
};

}  // namespace pmacx::memsim
