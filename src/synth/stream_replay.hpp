// One rank's address streams through one cache simulator.
//
// The tracer (trace_task), the reference "measurement"
// (psins::measure_run) and the MultiMAPS probe (machine::run_multimaps) all
// turn generated address streams into cache-simulator counters.  This
// driver is the one place that does it, so the traced signature and the
// measured runtime push the same streams through the same simulator (the
// paper's Fig. 2).  It owns four decisions:
//   * the hierarchy: a flat CacheHierarchy for one thread, a
//     ThreadedHierarchy (private shallow levels, shared deep levels) for a
//     hybrid MPI/OpenMP rank;
//   * a kernel's streams: thread t walks slice t of the footprint at
//     (block_id << 40) + t·slice, seeded derive_seed(seed, block_id·64 + t);
//     disjoint regions per block keep kernels from aliasing in the caches,
//     like distinct allocations in a real address space;
//   * the interleave: reference i comes from stream i % threads;
//   * staging: references go into RefBlocks of memsim::kStagedRefs, each
//     flushed with one access_block call.  A block never spans two slices,
//     so the accounting scope is set once per slice, and replay order is
//     generation order, so every counter matches streaming the references
//     one at a time.
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>
#include <span>

#include "memsim/hierarchy.hpp"
#include "memsim/ref_block.hpp"
#include "memsim/threaded.hpp"
#include "synth/kernel.hpp"
#include "util/arena.hpp"

namespace pmacx::synth {

/// Seed of the kernel address streams: the tracer's default, and the seed
/// the reference run replays so it executes the streams the tracer saw.
inline constexpr std::uint64_t kStreamSeed = 0x7ace;

/// A rank's cache simulation, fed a kernel (or any stream set) at a time.
class StreamReplay {
 public:
  using Clock = std::chrono::steady_clock;

  /// One thread simulates a flat hierarchy; more threads share the levels
  /// from min(shared_from, level count) down.  `threads` 0 counts as 1.
  explicit StreamReplay(const memsim::HierarchyConfig& config, std::uint32_t threads = 1,
                        std::size_t shared_from = 0);
  StreamReplay(const StreamReplay&) = delete;
  StreamReplay& operator=(const StreamReplay&) = delete;

  /// Replays `refs` references of `kernel`'s streams (seeded from `seed`),
  /// cut into `slices` consecutive slices: slice k — references i with
  /// i·slices/refs == k — counts under scope first_scope + k.
  void replay_kernel(const KernelSpec& kernel, std::uint64_t seed, std::uint64_t refs,
                     std::uint32_t slices, std::uint64_t first_scope);

  /// As replay_kernel, over caller-built streams, one per thread.
  void replay(std::span<RefStream> streams, std::uint64_t refs, std::uint32_t slices,
              std::uint64_t first_scope);

  std::uint32_t threads() const { return threads_; }
  const memsim::AccessCounters& totals() const;
  const memsim::AccessCounters& scope(std::uint64_t scope_id) const;

  /// Host time spent generating and staging references, and replaying
  /// them, summed over every replay call.
  Clock::duration generate_time() const { return generate_time_; }
  Clock::duration simulate_time() const { return simulate_time_; }

 private:
  void flush(const memsim::RefBlock& block, std::uint32_t first_thread);

  std::uint32_t threads_;
  std::uint32_t line_bytes_;
  std::optional<memsim::CacheHierarchy> flat_;
  std::optional<memsim::ThreadedHierarchy> threaded_;
  util::Arena arena_;
  memsim::RefBlockBuilder staged_;
  Clock::duration generate_time_{};
  Clock::duration simulate_time_{};
  Clock::time_point mark_;
};

}  // namespace pmacx::synth
