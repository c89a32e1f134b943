#include "synth/tracer.hpp"

#include <algorithm>
#include <chrono>

#include "util/error.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx::synth {
namespace {

/// Scope ids: each (block, memory-instruction) pair gets its own accounting
/// scope so per-instruction hit rates are *measured*, not modeled.  Block
/// stats are the merge of its instruction scopes.
constexpr std::uint64_t kScopeStride = 1024;

std::uint64_t instr_scope(std::uint64_t block_id, std::uint32_t instr) {
  return block_id * kScopeStride + instr + 1;
}

/// Fills the three hit-rate slots from counters; levels beyond the simulated
/// hierarchy inherit the deepest simulated level's cumulative rate (a 2-level
/// machine's "L3" rate equals its L2 rate).
template <typename SetRate>
void fill_hit_rates(const memsim::AccessCounters& counters, std::size_t levels,
                    SetRate&& set_rate) {
  double rate = 0.0;
  for (std::size_t lvl = 0; lvl < memsim::kMaxLevels; ++lvl) {
    if (lvl < levels) rate = counters.cumulative_hit_rate(lvl);
    set_rate(lvl, rate);
  }
}

}  // namespace

trace::TaskTrace trace_task(const SyntheticApp& app, std::uint32_t cores, std::uint32_t rank,
                            const TracerOptions& options) {
  PMACX_CHECK(options.max_refs_per_kernel > 0, "max_refs_per_kernel must be positive");
  util::metrics::StageTimer task_timer("trace.task");

  memsim::HierarchyConfig target = options.target;
  target.sample_shift = options.sample_shift;
  StreamReplay sim(target, options.threads_per_rank, options.shared_from_level);

  const std::size_t levels = options.target.levels.size();

  trace::TaskTrace task;
  task.app = app.name();
  task.rank = rank;
  task.core_count = cores;
  task.target_system = options.target.name;

  const std::vector<KernelSpec> kernels = app.kernels(cores, rank);
  PMACX_CHECK(!kernels.empty(), "application yields no kernels");

  std::uint64_t refs_simulated = 0;
  std::uint64_t sampling_cap_hits = 0;
  for (const KernelSpec& kernel : kernels) {
    const std::uint64_t total_refs = kernel.total_refs();
    const std::uint64_t sim_refs = std::min(total_refs, options.max_refs_per_kernel);
    refs_simulated += sim_refs;
    if (total_refs > options.max_refs_per_kernel) ++sampling_cap_hits;
    const double count_scale =
        sim_refs > 0 ? static_cast<double>(total_refs) / static_cast<double>(sim_refs) : 0.0;

    // Chunked instruction attribution: instruction k owns the k-th slice
    // of the kernel's reference stream, so early instructions absorb the
    // cold misses and later ones run warm — per-instruction hit-rate
    // diversity as in the paper's Fig. 4/5.
    const std::uint32_t mem_instrs = std::max<std::uint32_t>(kernel.mem_instructions, 1);
    sim.replay_kernel(kernel, options.seed, sim_refs, mem_instrs,
                      instr_scope(kernel.block_id, 0));

    // Merge instruction scopes into the block aggregate.
    memsim::AccessCounters block_counters;
    for (std::uint32_t instr = 0; instr < mem_instrs; ++instr)
      block_counters.merge(sim.scope(instr_scope(kernel.block_id, instr)));

    trace::BasicBlockRecord record;
    record.id = kernel.block_id;
    record.location = kernel.location;
    record.set(trace::BlockElement::VisitCount, static_cast<double>(kernel.visits));
    record.set(trace::BlockElement::FpAdd,
               static_cast<double>(kernel.visits) * kernel.fp_per_visit.adds);
    record.set(trace::BlockElement::FpMul,
               static_cast<double>(kernel.visits) * kernel.fp_per_visit.muls);
    record.set(trace::BlockElement::FpFma,
               static_cast<double>(kernel.visits) * kernel.fp_per_visit.fmas);
    record.set(trace::BlockElement::FpDivSqrt,
               static_cast<double>(kernel.visits) * kernel.fp_per_visit.divs);

    // Counts: analytic totals, split by the sampled load/store proportion.
    const double sim_total = static_cast<double>(block_counters.refs);
    const double load_fraction =
        sim_total > 0 ? static_cast<double>(block_counters.loads) / sim_total
                      : 1.0 - kernel.store_fraction;
    record.set(trace::BlockElement::MemLoads,
               static_cast<double>(total_refs) * load_fraction);
    record.set(trace::BlockElement::MemStores,
               static_cast<double>(total_refs) * (1.0 - load_fraction));
    record.set(trace::BlockElement::BytesPerRef, static_cast<double>(kernel.elem_bytes));

    fill_hit_rates(block_counters, levels, [&](std::size_t lvl, double rate) {
      const trace::BlockElement slots[] = {trace::BlockElement::HitRateL1,
                                           trace::BlockElement::HitRateL2,
                                           trace::BlockElement::HitRateL3};
      record.set(slots[lvl], rate);
    });

    // The block's true data region; sampling would under-report footprints
    // of heavily sampled kernels, so report the region size (what a full
    // trace would observe — all patterns sweep their whole region).
    record.set(trace::BlockElement::WorkingSetBytes,
               static_cast<double>(kernel.footprint_bytes));
    record.set(trace::BlockElement::Ilp, kernel.ilp);
    record.set(trace::BlockElement::DepChainLength, kernel.dep_chain);

    if (options.instruction_detail) {
      // Memory instructions: measured per-slice rates, analytic counts.
      for (std::uint32_t instr = 0; instr < mem_instrs && kernel.refs_per_visit > 0; ++instr) {
        const memsim::AccessCounters& c = sim.scope(instr_scope(kernel.block_id, instr));
        trace::InstructionRecord rec;
        rec.index = instr;
        rec.set(trace::InstrElement::ExecCount, static_cast<double>(c.refs) * count_scale);
        rec.set(trace::InstrElement::MemOps, static_cast<double>(c.refs) * count_scale);
        rec.set(trace::InstrElement::BytesPerOp, static_cast<double>(kernel.elem_bytes));
        rec.set(trace::InstrElement::FpOps, 0.0);
        fill_hit_rates(c, levels, [&](std::size_t lvl, double rate) {
          const trace::InstrElement slots[] = {trace::InstrElement::HitRateL1,
                                               trace::InstrElement::HitRateL2,
                                               trace::InstrElement::HitRateL3};
          rec.set(slots[lvl], rate);
        });
        record.instructions.push_back(rec);
      }
      // Floating-point instructions: analytic shares of the fp mix.
      const double fp_total = kernel.total_fp_ops();
      for (std::uint32_t instr = 0; instr < kernel.fp_instructions && fp_total > 0; ++instr) {
        trace::InstructionRecord rec;
        rec.index = mem_instrs + instr;
        const double share = fp_total / static_cast<double>(kernel.fp_instructions);
        rec.set(trace::InstrElement::ExecCount, static_cast<double>(kernel.visits));
        rec.set(trace::InstrElement::MemOps, 0.0);
        rec.set(trace::InstrElement::BytesPerOp, 0.0);
        rec.set(trace::InstrElement::FpOps, share);
        record.instructions.push_back(rec);
      }
    }

    task.blocks.push_back(std::move(record));
  }

  task.sort_blocks();

  // Per-task tallies flushed once (never per reference): the simulation's
  // work totals are identical however the pool scheduled the tasks, so
  // these counters diff cleanly between 1- and N-thread runs.
  util::metrics::Registry& metrics = util::metrics::Registry::global();
  const auto nanos = [](StreamReplay::Clock::duration d) {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
  };
  metrics.histogram("trace.generate.wall_ns").record(nanos(sim.generate_time()));
  metrics.histogram("trace.simulate.wall_ns").record(nanos(sim.simulate_time()));
  metrics.counter("trace.tasks_traced").add();
  metrics.counter("trace.blocks_traced").add(kernels.size());
  metrics.counter("trace.refs_simulated").add(refs_simulated);
  metrics.counter("trace.sampling_cap_hits").add(sampling_cap_hits);
  const memsim::AccessCounters& totals = sim.totals();
  metrics.counter("memsim.refs").add(totals.refs);
  metrics.counter("memsim.loads").add(totals.loads);
  metrics.counter("memsim.stores").add(totals.stores);
  metrics.counter("memsim.bytes").add(totals.bytes);
  metrics.counter("memsim.line_accesses").add(totals.line_accesses);
  for (std::size_t lvl = 0; lvl < levels && lvl < memsim::kMaxLevels; ++lvl)
    metrics.counter("memsim.hits.l" + std::to_string(lvl + 1)).add(totals.level_hits[lvl]);
  metrics.counter("memsim.memory_accesses").add(totals.memory_accesses);
  metrics.counter("memsim.writebacks").add(totals.writebacks);
  return task;
}

trace::AppSignature collect_signature(const SyntheticApp& app, std::uint32_t cores,
                                      const TracerOptions& options,
                                      std::vector<std::uint32_t> ranks_to_trace) {
  trace::AppSignature signature;
  signature.app = app.name();
  signature.core_count = cores;
  signature.target_system = options.target.name;
  signature.demanding_rank = app.demanding_rank(cores);

  if (ranks_to_trace.empty()) ranks_to_trace.push_back(signature.demanding_rank);
  std::sort(ranks_to_trace.begin(), ranks_to_trace.end());
  ranks_to_trace.erase(std::unique(ranks_to_trace.begin(), ranks_to_trace.end()),
                       ranks_to_trace.end());

  // Every rank's simulation is self-contained (own hierarchy, own streams),
  // so tracing fans out across the pool; parallel_map keeps rank order.
  util::ThreadPool* pool = options.pool;
  const bool parallel = pool != nullptr && !pool->serial();
  auto trace_rank = [&](std::size_t i) {
    const std::uint32_t rank = ranks_to_trace[i];
    PMACX_LOG_DEBUG << app.name() << ": tracing rank " << rank << " of " << cores;
    return trace_task(app, cores, rank, options);
  };
  if (parallel && ranks_to_trace.size() > 1) {
    signature.tasks =
        pool->parallel_map<trace::TaskTrace>(ranks_to_trace.size(), trace_rank);
  } else {
    for (std::size_t i = 0; i < ranks_to_trace.size(); ++i)
      signature.tasks.push_back(trace_rank(i));
  }

  if (parallel) {
    signature.comm = pool->parallel_map<trace::CommTrace>(
        cores, [&](std::size_t rank) {
          return app.comm_trace(cores, static_cast<std::uint32_t>(rank));
        },
        /*grain=*/64);
  } else {
    signature.comm.reserve(cores);
    for (std::uint32_t rank = 0; rank < cores; ++rank)
      signature.comm.push_back(app.comm_trace(cores, rank));
  }

  signature.validate();
  return signature;
}

}  // namespace pmacx::synth
