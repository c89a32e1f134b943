// table1: the paper's Table I workflow at paper scale, in-process.
//
// Set-up profiles the Blue-Waters-like target with the standard MultiMAPS
// probe (five times; setup_s is the median).  Each round then runs, for
// SPECFEM3D {96, 384, 1536} → 6144 and UH3D {1024, 2048, 4096} → 8192,
// collect ×3 → fit → extrapolate → predict, exactly the calls of
// core::run_pipeline without its collect-at-target and measure stages.
// Outside the timed region the reference simulator measures the target run
// and the prediction must land within the paper's 5%.  Table I's inputs are
// the paper's configurations, so the seed changes nothing here.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "common.hpp"
#include "checks.hpp"
#include "core/extrapolator.hpp"
#include "e2e.hpp"
#include "inputs.hpp"
#include "machine/targets.hpp"
#include "psins/reference.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx::e2e {
namespace {

// Rounds per untraced run, fixed rather than bounded by --seconds: with a
// speed-dependent count, slow spells of the host also changed how many cold
// and warm rounds the median mixed.
constexpr std::size_t kRounds = 2;

struct AppCase {
  std::unique_ptr<synth::SyntheticApp> app;
  bench::Experiment experiment;
  std::string key;  ///< lower-case name used in metric names
  std::vector<double> seconds;
  // Outputs of the last round, checked after the timed region.
  psins::PredictionResult prediction;
  std::vector<trace::TaskTrace> traces;
};

std::uint64_t counter(const char* name) {
  return util::metrics::Registry::global().counter(name).value();
}

void run_case(AppCase& c, const machine::MachineProfile& profile, util::ThreadPool& pool,
              Spans& spans, Ops& ops, std::map<std::string, double>& detail) {
  const auto span = spans.span("table1.app", c.key);
  const bench::Experiment& exp = c.experiment;
  synth::TracerOptions tracer = bench::tracer_for(profile);
  tracer.pool = &pool;

  const std::uint64_t refs_before = counter("memsim.refs");
  const std::uint64_t lines_before = counter("memsim.line_accesses");
  const Clock::time_point collect_start = Clock::now();
  const std::int64_t parent = span.id();
  std::vector<trace::AppSignature> collected = pool.parallel_map<trace::AppSignature>(
      exp.small_core_counts.size(), [&](std::size_t i) {
        const std::uint32_t cores = exp.small_core_counts[i];
        const auto s = spans.span("synth.collect_signature", c.key + "." + std::to_string(cores),
                                  0, parent);
        return synth::collect_signature(*c.app, cores, tracer);
      });
  const double collect_s = seconds_since(collect_start);
  ops.attempted += exp.small_core_counts.size();
  detail["memsim.refs." + c.key] = static_cast<double>(counter("memsim.refs") - refs_before);
  detail["memsim.line_accesses." + c.key] =
      static_cast<double>(counter("memsim.line_accesses") - lines_before);
  detail["memsim.collect_s." + c.key] = collect_s;

  c.traces.clear();
  for (const trace::AppSignature& signature : collected)
    c.traces.push_back(signature.demanding_task());

  core::ExtrapolationOptions options;
  options.pool = &pool;
  core::TaskModelSet models = [&] {
    const auto s = spans.span("core.fit_task_models", c.key);
    return core::fit_task_models(c.traces, options);
  }();
  core::ExtrapolationResult extrapolated = [&] {
    const auto s = spans.span("core.extrapolate_from_models", c.key);
    return core::extrapolate_from_models(models, exp.target_core_count);
  }();

  trace::AppSignature synthetic;
  synthetic.app = c.app->name();
  synthetic.core_count = exp.target_core_count;
  synthetic.target_system = tracer.target.name;
  synthetic.demanding_rank = c.app->demanding_rank(exp.target_core_count);
  extrapolated.trace.rank = synthetic.demanding_rank;
  synthetic.tasks.push_back(std::move(extrapolated.trace));
  {
    const auto s = spans.span("synth.comm_trace", c.key);
    synthetic.comm = pool.parallel_map<trace::CommTrace>(
        exp.target_core_count,
        [&](std::size_t rank) {
          return c.app->comm_trace(exp.target_core_count, static_cast<std::uint32_t>(rank));
        },
        /*grain=*/64);
  }
  synthetic.validate();
  {
    const auto s = spans.span("psins.predict", c.key);
    c.prediction = psins::predict(synthetic, profile);
  }
  c.traces.push_back(synthetic.demanding_task());
  ops.attempted += 4;
}

}  // namespace

Report run_table1(const Options& options, Spans& spans) {
  Report report;
  report.ops.connections = 0;
  util::ThreadPool pool(options.threads);
  std::optional<Spans::Scope> root(std::in_place, spans, "workload", "table1", 0,
                                   Spans::kNoParent);

  // Set-up: the MultiMAPS profile of the prediction target.
  std::vector<double> setup;
  std::optional<machine::MachineProfile> profile;
  for (int i = 0; i < 5; ++i) {
    const Clock::time_point start = Clock::now();
    const auto s = spans.span("machine.build_profile", "bluewaters-p1");
    profile.emplace(machine::build_profile(machine::bluewaters_p1(), bench::standard_probe()));
    setup.push_back(seconds_since(start));
    ++report.ops.attempted;
  }

  std::vector<AppCase> cases;
  cases.push_back({std::make_unique<synth::Specfem3dApp>(bench::specfem_config()),
                   bench::specfem_experiment(), "specfem3d", {}, {}, {}});
  cases.push_back({std::make_unique<synth::Uh3dApp>(bench::uh3d_config()),
                   bench::uh3d_experiment(), "uh3d", {}, {}, {}});

  // Peak RSS is read after the first round: what one regeneration of
  // Table I holds.  Later rounds only add allocator fragmentation, and their
  // number depends on the machine's speed.
  std::vector<double> rounds;
  double rss = 0.0;
  const Clock::time_point measured = Clock::now();
  do {
    const Clock::time_point start = Clock::now();
    const auto s = spans.span("table1.round", std::to_string(rounds.size()));
    for (AppCase& c : cases) {
      const Clock::time_point app_start = Clock::now();
      run_case(c, *profile, pool, spans, report.ops, report.detail);
      c.seconds.push_back(seconds_since(app_start));
    }
    rounds.push_back(seconds_since(start));
    if (rounds.size() == 1) rss = peak_rss_mib(::getpid());
  } while (rounds.size() < (options.trace ? 1u : kRounds));
  report.measured_s = seconds_since(measured);
  report.rounds = rounds.size();
  const std::string snapshot = options.out_dir + "/inproc.metrics.json";
  util::metrics::write_json(snapshot, util::metrics::RunManifest::for_tool("pmacx_e2e"),
                            util::metrics::Registry::global().snapshot());
  report.snapshot = snapshot;
  root.reset();

  report.e2e["setup_s"] = median(setup);
  report.e2e["peak_rss_mib"] = rss;
  report.e2e["result_p50_ms"] = 1e3 * median(rounds);
  report.e2e["result_tail_ms"] = 1e3 * tail(rounds);
  report.e2e["results_per_s"] = static_cast<double>(rounds.size()) / report.measured_s;
  for (const AppCase& c : cases) report.detail[c.key + "_s"] = median(c.seconds);
  report.detail["machine.probe_refs"] = probe_refs(bench::standard_probe());

  // Checks, outside the timed region.
  const auto checks = spans.span("checks", "table1", 0, Spans::kNoParent);
  for (const AppCase& c : cases) {
    psins::ReferenceOptions reference;
    reference.max_refs_per_kernel = 2'000'000;
    const psins::MeasuredRun measured_run =
        psins::measure_run(*c.app, c.experiment.target_core_count, *profile, reference);
    report.check(c.key + " prediction within 5% of the reference simulator",
                 check_within(c.prediction.runtime_seconds, measured_run.runtime_seconds, 0.05));
    report.detail[c.key + ".prediction_error"] =
        std::abs(c.prediction.runtime_seconds - measured_run.runtime_seconds) /
        measured_run.runtime_seconds;
    for (const trace::TaskTrace& task : c.traces)
      report.check(c.key + " hit rates in [0, 1] and non-decreasing", check_hit_rates(task));
  }
  report.ops.ok = report.ops.attempted;
  return report;
}

}  // namespace pmacx::e2e
