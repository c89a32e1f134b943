#include "synth/stream_replay.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace pmacx::synth {

StreamReplay::StreamReplay(const memsim::HierarchyConfig& config, std::uint32_t threads,
                           std::size_t shared_from)
    : threads_(std::max<std::uint32_t>(threads, 1)),
      line_bytes_(config.line_bytes()),
      staged_(arena_, memsim::kStagedRefs) {
  if (threads_ == 1)
    flat_.emplace(config);
  else
    threaded_.emplace(config, threads_, std::min(shared_from, config.levels.size()));
}

void StreamReplay::replay_kernel(const KernelSpec& kernel, std::uint64_t seed,
                                 std::uint64_t refs, std::uint32_t slices,
                                 std::uint64_t first_scope) {
  const std::uint64_t slice_bytes =
      thread_slice_bytes(kernel.footprint_bytes, threads_, line_bytes_);
  std::vector<RefStream> streams;
  streams.reserve(threads_);
  for (std::uint32_t t = 0; t < threads_; ++t) {
    StreamSpec spec;
    spec.pattern = kernel.pattern;
    spec.base_addr = (kernel.block_id << 40) + t * slice_bytes;
    spec.footprint_bytes = slice_bytes;
    spec.elem_bytes = kernel.elem_bytes;
    spec.stride_elems = kernel.stride_elems;
    spec.store_fraction = kernel.store_fraction;
    streams.emplace_back(spec, util::derive_seed(seed, kernel.block_id * 64 + t));
  }
  replay(streams, refs, slices, first_scope);
}

void StreamReplay::replay(std::span<RefStream> streams, std::uint64_t refs,
                          std::uint32_t slices, std::uint64_t first_scope) {
  PMACX_CHECK(streams.size() == threads_, "stream replay needs one stream per thread");
  PMACX_CHECK(slices > 0, "stream replay needs at least one slice");
  // Local copies keep the staging loop's state in registers across the
  // out-of-line next() calls.
  RefStream* const first_stream = streams.data();
  RefStream* const end_stream = first_stream + streams.size();
  memsim::RefBlockBuilder staged = staged_;
  mark_ = Clock::now();
  RefStream* stream = first_stream;
  for (std::uint64_t i = 0; i < refs;) {
    const auto slice = static_cast<std::uint32_t>((i * slices) / refs);
    // The least i with i * slices >= (slice + 1) * refs: the first
    // reference of the next slice.
    const std::uint64_t slice_end =
        std::min(refs, ((std::uint64_t{slice} + 1) * refs + slices - 1) / slices);
    if (flat_)
      flat_->set_scope(first_scope + slice);
    else
      threaded_->set_scope(first_scope + slice);
    while (i < slice_end) {
      const auto first_thread = static_cast<std::uint32_t>(stream - first_stream);
      const std::uint64_t block_end =
          std::min<std::uint64_t>(slice_end, i + memsim::kStagedRefs);
      for (; i < block_end; ++i) {
        const memsim::MemRef ref = stream->next();
        staged.push(ref.addr, ref.size, ref.is_store);
        if (++stream == end_stream) stream = first_stream;
      }
      flush(staged.block(), first_thread);
      staged.clear();
    }
  }
}

void StreamReplay::flush(const memsim::RefBlock& block, std::uint32_t first_thread) {
  // The clock is read around each flush, splitting the time into address
  // generation and simulation.
  const Clock::time_point start = Clock::now();
  generate_time_ += start - mark_;
  if (flat_)
    flat_->access_block(block);
  else
    threaded_->access_block(block, first_thread);
  mark_ = Clock::now();
  simulate_time_ += mark_ - start;
}

const memsim::AccessCounters& StreamReplay::totals() const {
  return flat_ ? flat_->totals() : threaded_->totals();
}

const memsim::AccessCounters& StreamReplay::scope(std::uint64_t scope_id) const {
  return flat_ ? flat_->scope(scope_id) : threaded_->scope(scope_id);
}

}  // namespace pmacx::synth
