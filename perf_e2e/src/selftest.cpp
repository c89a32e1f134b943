// Self-test of the benchmark's checks: each check must pass the correct
// output and fail a perturbed one, so a broken check cannot pass silently.
// Inputs are small real traces (SPECFEM3D at 16/32/64 cores with a low
// sampling cap) so the whole test takes seconds.
#include <cstdio>

#include "checks.hpp"
#include "core/extrapolator.hpp"
#include "e2e.hpp"
#include "machine/targets.hpp"
#include "synth/registry.hpp"
#include "synth/tracer.hpp"
#include "trace/binary_io.hpp"

namespace pmacx::e2e {
namespace {

int failures = 0;

void expect(const char* what, const std::string& correct, const std::string& perturbed) {
  const bool ok = correct.empty() && !perturbed.empty();
  if (!ok) ++failures;
  std::printf("%s %s\n    correct output: %s\n    perturbed output: %s\n", ok ? "ok  " : "FAIL",
              what, correct.empty() ? "passes" : correct.c_str(),
              perturbed.empty() ? "passes (check is broken)" : perturbed.c_str());
}

}  // namespace

int run_selftest(const Options&) {
  const auto app = synth::make_app("specfem3d", 1.0);
  synth::TracerOptions tracer;
  tracer.target = machine::target_by_name("bluewaters-p1").hierarchy;
  tracer.max_refs_per_kernel = 100'000;
  std::vector<trace::TaskTrace> traces;
  for (const std::uint32_t cores : {16u, 32u, 64u})
    traces.push_back(synth::trace_task(*app, cores, app->demanding_rank(cores), tracer));

  machine::MultiMapsOptions probe;
  probe.working_sets = {16ull << 10, 1ull << 20, 16ull << 20};
  probe.max_refs_per_probe = 200'000;
  const machine::MachineProfile profile =
      machine::build_profile(machine::target_by_name("bluewaters-p1"), probe);

  // 1. A PREDICT body with one flipped byte.
  const std::string body =
      expected_prediction(traces, service::FitSpec{}, 256, "specfem3d", profile);
  std::string flipped = body;
  flipped[flipped.size() / 2] ^= 0x01;
  expect("PREDICT body byte-identity", check_identical(body, body),
         check_identical(flipped, body));

  // 2. A prediction 6% off the reference runtime.
  const double reference = 137.25;
  expect("prediction within 5% of the reference", check_within(reference * 1.03, reference, 0.05),
         check_within(reference * 1.06, reference, 0.05));

  // 3. A post-refit answer taken from the previous model set.
  const std::vector<trace::TaskTrace> previous(traces.begin(), traces.end() - 1);
  expect("post-refit answer equals a cold fit of the committed files",
         check_identical(body, expected_prediction(traces, service::FitSpec{}, 256,
                                                   "specfem3d", profile)),
         check_identical(expected_prediction(previous, service::FitSpec{}, 256, "specfem3d",
                                             profile),
                         body));

  // 4. Hit rates that decrease with level.
  trace::TaskTrace broken = traces.back();
  auto& f = broken.blocks.front().features;
  f[static_cast<std::size_t>(trace::BlockElement::HitRateL2)] =
      0.5 * f[static_cast<std::size_t>(trace::BlockElement::HitRateL1)];
  expect("hit rates in [0, 1] and non-decreasing", check_hit_rates(traces.back()),
         check_hit_rates(broken));

  // 5. An interval whose bounds are swapped.
  core::ExtrapolationOptions options = service::FitSpec{}.to_options();
  const core::ExtrapolationResult interval =
      core::extrapolate_from_models(core::fit_task_models(traces, options), 256, 0.9);
  service::IntervalResult encoded;
  encoded.lo = trace::to_binary(interval.trace_lo);
  encoded.median = trace::to_binary(interval.trace_median);
  encoded.hi = trace::to_binary(interval.trace_hi);
  encoded.report_csv = interval.report.to_csv();
  service::IntervalResult swapped = encoded;
  std::swap(swapped.lo, swapped.hi);
  expect("interval lo <= median <= hi", check_interval(service::encode_interval_result(encoded)),
         check_interval(service::encode_interval_result(swapped)));

  std::printf("selftest: %s\n", failures == 0 ? "every check catches its perturbation"
                                              : "some checks are broken");
  return failures == 0 ? 0 : 1;
}

}  // namespace pmacx::e2e
