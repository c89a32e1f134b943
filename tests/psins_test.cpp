// Tests for the PSiNS convolution (Equation 1), the whole-app predictor and
// the reference simulator.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "machine/targets.hpp"
#include "psins/convolution.hpp"
#include "psins/energy.hpp"
#include "psins/predictor.hpp"
#include "psins/reference.hpp"
#include "synth/specfem.hpp"
#include "synth/tracer.hpp"
#include "synth/uh3d.hpp"
#include "util/error.hpp"

namespace pmacx {
namespace {

using trace::BlockElement;

machine::MultiMapsOptions fast_probe() {
  machine::MultiMapsOptions options;
  options.working_sets = {16ull << 10, 256ull << 10, 4ull << 20, 32ull << 20};
  options.strides = {1, 8};
  options.min_refs_per_probe = 50'000;
  options.max_refs_per_probe = 200'000;
  return options;
}

const machine::MachineProfile& test_profile() {
  static const machine::MachineProfile profile =
      machine::build_profile(machine::bluewaters_p1(), fast_probe());
  return profile;
}

trace::TaskTrace one_block_trace(double mem_ops, double hit_rate, double fp_ops = 0.0,
                                 double ilp = 4.0) {
  trace::TaskTrace task;
  task.app = "unit";
  task.core_count = 4;
  task.target_system = "bluewaters-p1";
  trace::BasicBlockRecord block;
  block.id = 1;
  block.set(BlockElement::VisitCount, 1);
  block.set(BlockElement::MemLoads, mem_ops);
  block.set(BlockElement::BytesPerRef, 8);
  block.set(BlockElement::HitRateL1, hit_rate);
  block.set(BlockElement::HitRateL2, hit_rate);
  block.set(BlockElement::HitRateL3, hit_rate);
  block.set(BlockElement::FpAdd, fp_ops);
  block.set(BlockElement::Ilp, ilp);
  block.set(BlockElement::DepChainLength, 2);
  task.blocks.push_back(block);
  return task;
}

// ------------------------------------------------------------ convolution ----

TEST(ConvolutionTest, MemoryTimeMatchesEquationOne) {
  // Equation 1: memory_time = refs × size / BW(hit rates).
  const auto task = one_block_trace(1e6, 0.99);
  const auto prediction = psins::convolve_task(task, test_profile());
  ASSERT_EQ(prediction.blocks.size(), 1u);
  const auto& bt = prediction.blocks[0];
  const double expected = 1e6 * 8 / bt.bandwidth_bytes_per_s;
  EXPECT_DOUBLE_EQ(bt.memory_seconds, expected);
  EXPECT_DOUBLE_EQ(bt.bandwidth_bytes_per_s,
                   test_profile().surface.lookup({0.99, 0.99, 0.99}));
}

TEST(ConvolutionTest, LowerHitRatesCostMore) {
  const auto hot = psins::convolve_task(one_block_trace(1e6, 0.999), test_profile());
  const auto cold = psins::convolve_task(one_block_trace(1e6, 0.10), test_profile());
  EXPECT_GT(cold.seconds, 2.0 * hot.seconds);
}

TEST(ConvolutionTest, BlockTimesSumToTotal) {
  trace::TaskTrace task = one_block_trace(1e6, 0.9);
  trace::BasicBlockRecord second = task.blocks[0];
  second.id = 2;
  second.set(BlockElement::MemLoads, 5e5);
  task.blocks.push_back(second);
  const auto prediction = psins::convolve_task(task, test_profile());
  double sum = 0.0;
  for (const auto& bt : prediction.blocks) sum += bt.block_seconds;
  EXPECT_DOUBLE_EQ(prediction.seconds, sum);
}

TEST(ConvolutionTest, OverlapHidesShorterStream) {
  // With fp ≪ mem, block time ≈ mem + (1-overlap)·fp.
  const auto task = one_block_trace(1e6, 0.5, /*fp_ops=*/1e3);
  const auto prediction = psins::convolve_task(task, test_profile());
  const auto& bt = prediction.blocks[0];
  const double overlap = test_profile().system.mem_fp_overlap;
  EXPECT_DOUBLE_EQ(bt.block_seconds,
                   bt.memory_seconds + (1.0 - overlap) * bt.fp_seconds);
}

TEST(ConvolutionTest, PureFpBlockHasNoMemoryTime) {
  const auto task = one_block_trace(0, 0.0, /*fp_ops=*/1e9);
  const auto prediction = psins::convolve_task(task, test_profile());
  EXPECT_DOUBLE_EQ(prediction.blocks[0].memory_seconds, 0.0);
  EXPECT_GT(prediction.blocks[0].fp_seconds, 0.0);
}

TEST(ConvolutionTest, EmptyTraceIsZero) {
  trace::TaskTrace task;
  task.app = "empty";
  const auto prediction = psins::convolve_task(task, test_profile());
  EXPECT_DOUBLE_EQ(prediction.seconds, 0.0);
}

// -------------------------------------------------------------- predictor ----

TEST(PredictorTest, EndToEndOnSmallApp) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 100'000;
  const auto signature = synth::collect_signature(app, 16, options);
  const auto prediction = psins::predict(signature, test_profile());
  EXPECT_GT(prediction.runtime_seconds, 0.0);
  EXPECT_GT(prediction.compute_seconds, 0.0);
  EXPECT_GE(prediction.comm_seconds, 0.0);
  // Wall clock can't be shorter than the demanding rank's own compute time.
  EXPECT_GE(prediction.runtime_seconds, prediction.compute_seconds * 0.999);
  EXPECT_FALSE(prediction.from_extrapolated_trace);
}

TEST(PredictorTest, RequiresCommTraces) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 50'000;
  auto signature = synth::collect_signature(app, 4, options);
  signature.comm.clear();
  EXPECT_THROW(psins::predict(signature, test_profile()), util::Error);
}

TEST(PredictorTest, DeterministicPrediction) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 50'000;
  const auto signature = synth::collect_signature(app, 8, options);
  const auto a = psins::predict(signature, test_profile());
  const auto b = psins::predict(signature, test_profile());
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
}

// ----------------------------------------------------------------- hybrid ----

TEST(HybridPredictTest, ComputeDividesByThreadsTimesEfficiency) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 50'000;
  const auto signature = synth::collect_signature(app, 8, options);

  const auto flat = psins::predict(signature, test_profile());
  const auto hybrid = psins::predict_hybrid(signature, test_profile(), 4, 0.5);
  // 4 threads × 0.5 efficiency = 2× compute speedup.
  EXPECT_NEAR(hybrid.compute_seconds, flat.compute_seconds / 2.0,
              1e-9 * flat.compute_seconds);
  EXPECT_LT(hybrid.runtime_seconds, flat.runtime_seconds);
}

TEST(HybridPredictTest, OneThreadFullEfficiencyMatchesFlat) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 50'000;
  const auto signature = synth::collect_signature(app, 8, options);
  const auto flat = psins::predict(signature, test_profile());
  const auto hybrid = psins::predict_hybrid(signature, test_profile(), 1, 1.0);
  EXPECT_DOUBLE_EQ(hybrid.runtime_seconds, flat.runtime_seconds);
}

TEST(HybridPredictTest, RejectsBadParameters) {
  const synth::Specfem3dApp app;
  synth::TracerOptions options;
  options.target = test_profile().system.hierarchy;
  options.max_refs_per_kernel = 50'000;
  const auto signature = synth::collect_signature(app, 4, options);
  EXPECT_THROW(psins::predict_hybrid(signature, test_profile(), 0), util::Error);
  EXPECT_THROW(psins::predict_hybrid(signature, test_profile(), 2, 0.0), util::Error);
  EXPECT_THROW(psins::predict_hybrid(signature, test_profile(), 2, 1.5), util::Error);
}

// -------------------------------------------------------------- reference ----

TEST(ReferenceTest, MeasuredRunIsPositiveAndDeterministic) {
  const synth::Specfem3dApp app;
  psins::ReferenceOptions options;
  options.max_refs_per_kernel = 100'000;
  const auto a = psins::measure_run(app, 16, test_profile(), options);
  const auto b = psins::measure_run(app, 16, test_profile(), options);
  EXPECT_GT(a.runtime_seconds, 0.0);
  EXPECT_EQ(a.runtime_seconds, b.runtime_seconds);
  EXPECT_GT(a.compute_seconds, 0.0);
}

std::string hex(double value) {
  std::ostringstream os;
  os << std::hexfloat << value;
  return os.str();
}

void expect_run_bits(const psins::MeasuredRun& run, double runtime, double compute,
                     double comm) {
  EXPECT_EQ(hex(run.runtime_seconds), hex(runtime));
  EXPECT_EQ(hex(run.compute_seconds), hex(compute));
  EXPECT_EQ(hex(run.comm_seconds), hex(comm));
}

TEST(ReferenceTest, MeasuredRunMatchesGoldenBits) {
  // Bitwise goldens of the "measured" runtime: how the reference simulator
  // stages and replays its streams must never move a bit of the result.
  // The cap leaves every sampled kernel a ragged final staged block.
  const synth::Specfem3dApp specfem;
  const synth::Uh3dApp uh3d;
  psins::ReferenceOptions options;
  options.max_refs_per_kernel = 30'001;
  {
    SCOPED_TRACE("specfem3d @ 96, pure MPI");
    expect_run_bits(psins::measure_run(specfem, 96, test_profile(), options),
                    0x1.45c4e03f03507p-2, 0x1.3eff3c5397743p-2, 0x1.b137e2f8648acp-8);
  }
  {
    SCOPED_TRACE("uh3d @ 1024, pure MPI");
    expect_run_bits(psins::measure_run(uh3d, 1024, test_profile(), options),
                    0x1.3e779671f295fp+5, 0x1.3a6147d612646p+5, 0x1.0551eb4c55ff8p-1);
  }
  {
    SCOPED_TRACE("uh3d @ 1024, 2 threads sharing L3");
    psins::ReferenceOptions hybrid = options;
    hybrid.threads_per_rank = 2;
    hybrid.shared_from_level = 2;
    expect_run_bits(psins::measure_run(uh3d, 1024, test_profile(), hybrid),
                    0x1.616fddcae9628p+4, 0x1.5cd6ab8ff01f6p+4, 0x1.26039ea03a168p-2);
  }
  {
    // A prefetcher rules out access_block's grouped replay.
    SCOPED_TRACE("specfem3d @ 96, prefetching target");
    machine::MachineProfile prefetching = test_profile();
    prefetching.system.hierarchy.prefetch.enabled = true;
    expect_run_bits(psins::measure_run(specfem, 96, prefetching, options),
                    0x1.b378c3e1d2e18p-3, 0x1.a7f0ba59c2ac2p-3, 0x1.70e091c7b1c5p-8);
  }
}

TEST(ReferenceTest, PredictionTracksMeasurement) {
  // The convolution prediction and the per-reference measurement are
  // different models of the same machine; they must agree within tens of
  // percent on the same run (Table I shows ~1-5% after full calibration).
  const synth::Specfem3dApp app;
  synth::TracerOptions toptions;
  toptions.target = test_profile().system.hierarchy;
  toptions.max_refs_per_kernel = 200'000;
  const auto signature = synth::collect_signature(app, 16, toptions);
  const auto prediction = psins::predict(signature, test_profile());

  psins::ReferenceOptions roptions;
  roptions.max_refs_per_kernel = 200'000;
  const auto measured = psins::measure_run(app, 16, test_profile(), roptions);

  const double error = std::abs(prediction.runtime_seconds - measured.runtime_seconds) /
                       measured.runtime_seconds;
  EXPECT_LT(error, 0.5) << "prediction " << prediction.runtime_seconds << "s vs measured "
                        << measured.runtime_seconds << "s";
}

TEST(ReferenceTest, NoiselessComputeMatchesConvolutionTightly) {
  // Regression guard: with identical streams/caps and no measurement noise,
  // the reference's demanding-rank compute time and the convolution's
  // differ only by surface-regression error — a few percent, never a
  // systematic scale factor (e.g. a stray 1/efficiency on the pure-MPI
  // path, which once inflated every "measured" runtime by 11%).
  const synth::Specfem3dApp app;
  synth::TracerOptions toptions;
  toptions.target = test_profile().system.hierarchy;
  toptions.max_refs_per_kernel = 300'000;
  const auto signature = synth::collect_signature(app, 16, toptions);
  const auto prediction = psins::predict(signature, test_profile());

  psins::ReferenceOptions roptions;
  roptions.max_refs_per_kernel = 300'000;
  roptions.noise = 0.0;
  const auto measured = psins::measure_run(app, 16, test_profile(), roptions);

  EXPECT_NEAR(prediction.compute_seconds, measured.compute_seconds,
              0.05 * measured.compute_seconds);
}

// ----------------------------------------------------------------- energy ----

/// Minimal valid signature around one hand-built block for exact arithmetic
/// checks of the energy convolution.
trace::AppSignature energy_signature(double mem_ops, double h1, double h2, double h3,
                                     double fp_adds = 0.0, double divs = 0.0) {
  trace::AppSignature sig;
  sig.app = "energy-unit";
  sig.core_count = 2;
  sig.target_system = "bluewaters-p1";
  sig.demanding_rank = 0;
  trace::TaskTrace task = one_block_trace(mem_ops, h1);
  task.app = sig.app;
  task.core_count = 2;
  task.rank = 0;
  task.blocks[0].set(BlockElement::HitRateL2, h2);
  task.blocks[0].set(BlockElement::HitRateL3, h3);
  task.blocks[0].set(BlockElement::FpAdd, fp_adds);
  task.blocks[0].set(BlockElement::FpDivSqrt, divs);
  sig.tasks.push_back(task);
  for (std::uint32_t r = 0; r < 2; ++r) {
    trace::CommTrace comm;
    comm.rank = r;
    comm.core_count = 2;
    comm.tail_compute_units = 100.0;  // equal work on both ranks
    sig.comm.push_back(comm);
  }
  return sig;
}

psins::PredictionResult fake_prediction(double runtime) {
  psins::PredictionResult prediction;
  prediction.runtime_seconds = runtime;
  return prediction;
}

TEST(EnergyTest, MemoryEnergySplitsByIncrementalHitFractions) {
  // 1e9 refs: 60% L1, +20% L2, +10% L3, 10% memory.
  const auto sig = energy_signature(1e9, 0.6, 0.8, 0.9);
  const auto energy = psins::estimate_energy(sig, test_profile(), fake_prediction(10.0));
  const auto& model = test_profile().system.energy;
  const double expected_demanding =
      1e9 * (0.6 * model.level_nj[0] + 0.2 * model.level_nj[1] + 0.1 * model.level_nj[2] +
             0.1 * model.memory_nj) *
      1e-9;
  // Two equal-work ranks → dynamic doubles the demanding rank's joules.
  EXPECT_NEAR(energy.dynamic_joules, 2.0 * expected_demanding,
              1e-9 * energy.dynamic_joules);
}

TEST(EnergyTest, StaticTermIsPowerTimesCoresTimesRuntime) {
  const auto sig = energy_signature(1e6, 0.9, 0.95, 0.99);
  const auto energy = psins::estimate_energy(sig, test_profile(), fake_prediction(50.0));
  const double watts = test_profile().system.energy.static_watts_per_core;
  EXPECT_DOUBLE_EQ(energy.static_joules, watts * 2 * 50.0);
  EXPECT_DOUBLE_EQ(energy.total_joules, energy.dynamic_joules + energy.static_joules);
  EXPECT_DOUBLE_EQ(energy.mean_watts, energy.total_joules / 50.0);
}

TEST(EnergyTest, FpEnergyCountsDividesExtra) {
  const auto plain = psins::estimate_energy(energy_signature(0, 0, 0, 0, 1e9, 0),
                                            test_profile(), fake_prediction(1.0));
  const auto divs = psins::estimate_energy(energy_signature(0, 0, 0, 0, 0, 1e9),
                                           test_profile(), fake_prediction(1.0));
  EXPECT_GT(divs.dynamic_joules, plain.dynamic_joules);
}

TEST(EnergyTest, LowerHitRatesCostMoreEnergy) {
  const auto hot = psins::estimate_energy(energy_signature(1e9, 0.95, 0.99, 0.999),
                                          test_profile(), fake_prediction(1.0));
  const auto cold = psins::estimate_energy(energy_signature(1e9, 0.1, 0.2, 0.3),
                                           test_profile(), fake_prediction(1.0));
  EXPECT_GT(cold.dynamic_joules, 3.0 * hot.dynamic_joules);
}

TEST(EnergyTest, RequiresPositiveRuntime) {
  const auto sig = energy_signature(1e6, 0.9, 0.95, 0.99);
  EXPECT_THROW(psins::estimate_energy(sig, test_profile(), fake_prediction(0.0)),
               util::Error);
}

TEST(EnergyTest, BlockBreakdownSumsToDemandingShare) {
  const auto sig = energy_signature(1e9, 0.6, 0.8, 0.9, 1e8);
  const auto energy = psins::estimate_energy(sig, test_profile(), fake_prediction(10.0));
  double demanding = 0.0;
  for (const auto& block : energy.blocks) demanding += block.memory_joules + block.fp_joules;
  EXPECT_NEAR(energy.dynamic_joules, 2.0 * demanding, 1e-9 * energy.dynamic_joules);
}

}  // namespace
}  // namespace pmacx
