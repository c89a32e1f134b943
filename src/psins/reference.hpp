// Reference ("measured") runtime simulation.
//
// The paper compares its predictions to the application's real measured
// runtime on the target machine (e.g. SPECFEM3D's 143 s on Phase-I Blue
// Waters).  We have no Blue Waters, so the measured runtime is produced by
// a *higher-fidelity* simulation that shares no aggregation shortcuts with
// the convolution: the demanding rank's kernels — the tracer's own streams,
// through the tracer's own driver (synth::StreamReplay) — are pushed through
// the target's cache simulator and timed with the parametric timing model
// (exact per-level hit counts × per-level costs — no MultiMAPS surface, no
// per-block bandwidth aggregation), and the run is replayed over the
// network model with per-rank measurement noise.  The gap between this
// path and the convolution's is the honest modeling error Table I reports.
#pragma once

#include <cstdint>

#include "machine/profile.hpp"
#include "synth/app.hpp"

namespace pmacx::psins {

/// Reference-run knobs.
struct ReferenceOptions {
  /// Per-kernel simulated reference cap (higher fidelity than the tracer's).
  std::uint64_t max_refs_per_kernel = 3'000'000;
  /// Per-rank run-to-run measurement noise (relative sigma).
  double noise = 0.01;
  /// Hybrid MPI/OpenMP runs: threads hosted per rank (cache simulation uses
  /// the thread-aware hierarchy; compute time divides by threads×efficiency).
  std::uint32_t threads_per_rank = 1;
  double thread_efficiency = 0.9;
  std::size_t shared_from_level = 2;
  std::uint64_t seed = 0x9ea5;
};

/// Breakdown of one measured run.
struct MeasuredRun {
  double runtime_seconds = 0.0;
  double compute_seconds = 0.0;  ///< demanding rank computation
  double comm_seconds = 0.0;     ///< demanding rank communication
};

/// "Runs" the application at `cores` on the machine and measures it.
MeasuredRun measure_run(const synth::SyntheticApp& app, std::uint32_t cores,
                        const machine::MachineProfile& machine,
                        const ReferenceOptions& options = {});

}  // namespace pmacx::psins
