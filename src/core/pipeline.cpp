#include "core/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <optional>
#include <sstream>

#include "core/checkpoint.hpp"
#include "core/comm_extrap.hpp"
#include "stats/descriptive.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx::core {
namespace {

/// What a cached collection must have been produced by for the pipeline to
/// trust it: everything that shapes a collected signature.  Text form, saved
/// via save_checked and compared by equality — a human can also `cat` the
/// stamp (modulo the trailer) to see why a resume redid a collection.
std::string collection_stamp(const std::string& app_name, std::uint32_t cores,
                             const synth::TracerOptions& tracer) {
  std::ostringstream stamp;
  stamp << kCheckpointVersion << '\n'
        << "app=" << app_name << '\n'
        << "cores=" << cores << '\n'
        << "target=" << tracer.target.name << '\n'
        << "max_refs=" << tracer.max_refs_per_kernel << '\n'
        << "sample_shift=" << tracer.sample_shift << '\n'
        << "threads_per_rank=" << tracer.threads_per_rank << '\n'
        << "shared_from_level=" << tracer.shared_from_level << '\n'
        << "instruction_detail=" << (tracer.instruction_detail ? 1 : 0) << '\n'
        << "seed=" << tracer.seed << '\n';
  return stamp.str();
}

}  // namespace

double PipelineResult::extrapolated_error() const {
  PMACX_CHECK(measured.has_value(), "pipeline did not measure the target run");
  return stats::absolute_relative_error(prediction_from_extrapolated.runtime_seconds,
                                        measured->runtime_seconds);
}

double PipelineResult::collected_error() const {
  PMACX_CHECK(measured.has_value(), "pipeline did not measure the target run");
  PMACX_CHECK(prediction_from_collected.has_value(),
              "pipeline did not collect at the target count");
  return stats::absolute_relative_error(prediction_from_collected->runtime_seconds,
                                        measured->runtime_seconds);
}

PipelineResult run_pipeline(const synth::SyntheticApp& app,
                            const machine::MachineProfile& machine,
                            const PipelineConfig& config) {
  PMACX_CHECK(config.small_core_counts.size() >= 2,
              "pipeline needs at least two small core counts");
  PMACX_CHECK(std::is_sorted(config.small_core_counts.begin(), config.small_core_counts.end()),
              "small core counts must be ascending");
  PMACX_CHECK(config.target_core_count > config.small_core_counts.back(),
              "target core count must exceed the largest small count");
  PMACX_CHECK(config.tracer.target.name == machine.system.hierarchy.name,
              "tracer must simulate the prediction target's hierarchy");

  PipelineResult result;

  // Resolve the run's pool once and share it across collection, fitting,
  // and comm synthesis.  An externally supplied extrapolation pool wins.
  util::ThreadPool* pool = config.extrapolation.pool;
  std::optional<util::ThreadPool> pool_storage;
  if (pool == nullptr) {
    const std::size_t threads = util::ThreadPool::resolve_threads(config.threads);
    if (threads > 1) {
      pool_storage.emplace(threads);
      pool = &*pool_storage;
    }
  }
  const bool parallel = pool != nullptr && !pool->serial();

  const bool checkpointed = !config.checkpoint_dir.empty();
  if (checkpointed) util::ensure_directory(config.checkpoint_dir);

  // 1. Collect at the small counts.  Each count's collection is an
  // independent simulation, so they overlap across the pool; parallel_map
  // keeps the signatures in ascending-count order.  With a checkpoint
  // directory, each count persists its signature plus a stamp; a resume
  // loads stamped collections instead of re-simulating them.  The stamp is
  // written only after the signature directory is complete, so a crash
  // mid-save leaves an unstamped (ignored) directory, never a half-loaded
  // signature.
  std::atomic<std::size_t> collections_reused{0};
  {
    util::metrics::StageTimer timer("pipeline.collect");
    auto collect = [&](std::size_t i) {
      const std::uint32_t cores = config.small_core_counts[i];
      const std::string sig_dir =
          config.checkpoint_dir + "/collect_" + std::to_string(cores);
      const std::string stamp_path = sig_dir + ".stamp";
      const std::string stamp = collection_stamp(app.name(), cores, config.tracer);
      if (checkpointed) {
        const std::optional<std::string> prior = util::try_load_checked(stamp_path);
        if (prior && *prior == stamp) {
          try {
            trace::AppSignature cached = trace::AppSignature::load(sig_dir);
            PMACX_LOG_INFO << app.name() << ": reusing checkpointed signature at "
                           << cores << " cores";
            collections_reused.fetch_add(1, std::memory_order_relaxed);
            return cached;
          } catch (const util::Error&) {
            // Stamped but unloadable (damaged files): fall through and
            // re-collect — a checkpoint must never be able to fail a run.
          }
        }
      }
      PMACX_LOG_INFO << app.name() << ": collecting signature at " << cores << " cores";
      synth::TracerOptions tracer = config.tracer;
      tracer.pool = pool;  // nested fan-out: waiting tasks help, so this is safe
      trace::AppSignature signature = synth::collect_signature(app, cores, tracer);
      if (checkpointed) {
        util::ensure_directory(sig_dir);
        signature.save(sig_dir);
        util::save_checked(stamp_path, stamp);
      }
      return signature;
    };
    if (parallel) {
      result.small_signatures = pool->parallel_map<trace::AppSignature>(
          config.small_core_counts.size(), collect);
    } else {
      for (std::size_t i = 0; i < config.small_core_counts.size(); ++i)
        result.small_signatures.push_back(collect(i));
    }
  }
  std::vector<trace::TaskTrace> series;
  for (const trace::AppSignature& signature : result.small_signatures)
    series.push_back(signature.demanding_task());

  // 2. Extrapolate the demanding task to the target count.
  PMACX_LOG_INFO << app.name() << ": extrapolating to " << config.target_core_count
                 << " cores";
  ExtrapolationOptions extrapolation = config.extrapolation;
  extrapolation.pool = pool;
  if (pool == nullptr) extrapolation.threads = 1;
  ExtrapolationResult extrapolated = [&] {
    util::metrics::StageTimer timer("pipeline.extrapolate");
    if (!checkpointed)
      return extrapolate_task(series, config.target_core_count, extrapolation);
    // Checkpointed fitting + evaluation — byte-identical to extrapolate_task
    // (the extrapolate_from_models contract), but a killed run resumes from
    // the persisted chunks.  The digest covers the collected traces' bytes
    // and the fit options, so stale chunks can never leak into the result.
    CheckpointConfig ckpt;
    ckpt.dir = config.checkpoint_dir + "/models";
    ckpt.digest = models_digest_for_traces(series, extrapolation);
    const TaskModelSet models = fit_task_models(series, extrapolation, &ckpt);
    return extrapolate_from_models(models, config.target_core_count);
  }();
  result.report = std::move(extrapolated.report);
  result.diagnostics.merge(extrapolated.diagnostics);
  if (!result.diagnostics.clean())
    PMACX_LOG_WARN << app.name() << ": extrapolation degraded — "
                   << result.diagnostics.fallback_fits << " fallback fits, "
                   << result.diagnostics.clamped_values << " clamped values";

  // 3. Assemble the synthetic signature and predict.
  {
    util::metrics::StageTimer timer("pipeline.assemble_predict");
    trace::AppSignature& synthetic = result.extrapolated_signature;
    synthetic.app = app.name();
    synthetic.core_count = config.target_core_count;
    synthetic.target_system = config.tracer.target.name;
    synthetic.demanding_rank = app.demanding_rank(config.target_core_count);
    extrapolated.trace.rank = synthetic.demanding_rank;
    synthetic.tasks.push_back(std::move(extrapolated.trace));
    if (config.extrapolate_comm) {
      PMACX_LOG_INFO << app.name() << ": extrapolating communication traces";
      synthetic.comm =
          extrapolate_comm(result.small_signatures, config.target_core_count).comm;
    } else if (parallel) {
      // Instantiating one comm trace per target rank is the widest loop in
      // the pipeline (e.g. 6144 ranks); rank order is preserved.
      synthetic.comm = pool->parallel_map<trace::CommTrace>(
          config.target_core_count,
          [&](std::size_t rank) {
            return app.comm_trace(config.target_core_count,
                                  static_cast<std::uint32_t>(rank));
          },
          /*grain=*/64);
    } else {
      synthetic.comm.reserve(config.target_core_count);
      for (std::uint32_t rank = 0; rank < config.target_core_count; ++rank)
        synthetic.comm.push_back(app.comm_trace(config.target_core_count, rank));
    }
    synthetic.validate();

    result.prediction_from_extrapolated = psins::predict(synthetic, machine);
  }

  // 4. Optionally collect at the target count and predict from that.
  if (config.collect_at_target) {
    util::metrics::StageTimer timer("pipeline.collect_target");
    PMACX_LOG_INFO << app.name() << ": collecting signature at target count "
                   << config.target_core_count;
    synth::TracerOptions tracer = config.tracer;
    tracer.pool = pool;
    result.collected_signature =
        synth::collect_signature(app, config.target_core_count, tracer);
    result.prediction_from_collected = psins::predict(*result.collected_signature, machine);
  }

  // 5. Optionally measure the "real" runtime.
  if (config.measure_at_target) {
    util::metrics::StageTimer timer("pipeline.measure");
    PMACX_LOG_INFO << app.name() << ": measuring reference run at "
                   << config.target_core_count;
    result.measured =
        psins::measure_run(app, config.target_core_count, machine, config.reference);
  }

  // The DiagnosticsReport above is the per-run ledger; these counters make
  // the same events visible across runs in metrics snapshots.
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  metrics.counter("pipeline.runs").add();
  if (!result.diagnostics.clean()) metrics.counter("pipeline.degraded_runs").add();
  metrics.counter("pipeline.salvaged_files").add(result.diagnostics.salvaged_files);
  metrics.counter("pipeline.lost_blocks").add(result.diagnostics.lost_blocks);
  metrics.counter("pipeline.checkpoint.collections_reused")
      .add(collections_reused.load(std::memory_order_relaxed));

  return result;
}

}  // namespace pmacx::core
