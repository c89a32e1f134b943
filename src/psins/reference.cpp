#include "psins/reference.hpp"

#include <algorithm>

#include "simmpi/replay.hpp"
#include "synth/stream_replay.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace pmacx::psins {
namespace {

/// Computation seconds of one rank: every kernel's stream goes through the
/// cache simulator and is charged exact per-level costs; sampled kernels
/// scale time by their sampling factor.
double simulate_rank_compute_seconds(const synth::SyntheticApp& app, std::uint32_t cores,
                                     std::uint32_t rank,
                                     const machine::MachineProfile& machine,
                                     const ReferenceOptions& options) {
  synth::StreamReplay sim(machine.system.hierarchy, options.threads_per_rank,
                          options.shared_from_level);
  double seconds = 0.0;

  for (const synth::KernelSpec& kernel : app.kernels(cores, rank)) {
    const std::uint64_t total_refs = kernel.total_refs();
    const std::uint64_t sim_refs = std::min(total_refs, options.max_refs_per_kernel);
    const double scale =
        sim_refs > 0 ? static_cast<double>(total_refs) / static_cast<double>(sim_refs) : 0.0;

    if (sim_refs > 0) {
      // The tracer's streams under the tracer's seed: the "machine"
      // executes the same address streams the tracer observed.  Block ids
      // are unique, so the kernel's scope holds only its own references.
      sim.replay_kernel(kernel, synth::kStreamSeed, sim_refs, 1, kernel.block_id);
      seconds += machine.timing.seconds_for(sim.scope(kernel.block_id)) * scale;
    }

    seconds += machine.fp_seconds(
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.adds,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.muls,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.fmas,
                   static_cast<double>(kernel.visits) * kernel.fp_per_visit.divs, kernel.ilp) *
               (1.0 - machine.system.mem_fp_overlap);
    // The overlapped FP fraction hides under memory time in this
    // memory-bound regime, mirroring the machine's real behaviour.
  }
  // Hybrid: the rank's work ran on `threads` cores at the given efficiency.
  // Pure MPI (one thread) has no intra-rank parallel overhead to model.
  if (sim.threads() == 1) return seconds;
  return seconds / (static_cast<double>(sim.threads()) * options.thread_efficiency);
}

}  // namespace

MeasuredRun measure_run(const synth::SyntheticApp& app, std::uint32_t cores,
                        const machine::MachineProfile& machine,
                        const ReferenceOptions& options) {
  PMACX_CHECK(cores > 0, "measure_run: zero cores");
  const std::uint32_t demanding = app.demanding_rank(cores);

  const double demanding_seconds =
      simulate_rank_compute_seconds(app, cores, demanding, machine, options);
  const double demanding_units = app.work_units(cores, demanding);
  PMACX_CHECK(demanding_units > 0, "measure_run: zero work units");
  const double seconds_per_unit = demanding_seconds / demanding_units;

  // Per-rank noise: run-to-run variation of the "measurement".
  std::vector<trace::CommTrace> comm;
  comm.reserve(cores);
  std::vector<double> scales(cores);
  util::Rng rng(options.seed);
  for (std::uint32_t rank = 0; rank < cores; ++rank) {
    comm.push_back(app.comm_trace(cores, rank));
    const double noise = 1.0 + options.noise * rng.normal();
    scales[rank] = seconds_per_unit * std::max(noise, 0.5);
  }

  const std::vector<simmpi::RankTimeline> timelines = simmpi::timelines_from_comm(comm, scales);
  const simmpi::ReplayResult replayed = simmpi::replay(timelines, machine.system.network);

  MeasuredRun run;
  run.runtime_seconds = replayed.runtime;
  run.compute_seconds = replayed.ranks[demanding].compute_seconds;
  run.comm_seconds = replayed.ranks[demanding].comm_seconds;
  return run;
}

}  // namespace pmacx::psins
