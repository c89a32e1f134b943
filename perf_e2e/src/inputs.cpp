#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>

#ifndef PMACX_E2E_TRACE_BINARY
#error "PMACX_E2E_TRACE_BINARY must name the pmacx_trace binary"
#endif

#include "machine/targets.hpp"
#include "serve.hpp"
#include "synth/registry.hpp"
#include "synth/tracer.hpp"
#include "trace/binary_io.hpp"
#include "util/metrics.hpp"

namespace pmacx::e2e {

Zipf::Zipf(std::size_t n, double s) {
  double total = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cumulative_.push_back(total);
  }
  for (double& c : cumulative_) c /= total;
}

std::size_t Zipf::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cumulative_.begin(), cumulative_.end(), u);
  return std::min<std::size_t>(it - cumulative_.begin(), cumulative_.size() - 1);
}

std::vector<std::string> generate_traces(const std::string& app,
                                         const std::vector<std::uint32_t>& counts,
                                         const std::string& dir, std::uint64_t refs_cap,
                                         util::ThreadPool& pool, Spans& spans,
                                         std::map<std::string, double>& detail) {
  std::filesystem::create_directories(dir);
  const auto model = synth::make_app(app, 1.0);
  synth::TracerOptions options;
  options.target = machine::target_by_name("bluewaters-p1").hierarchy;
  options.max_refs_per_kernel = refs_cap;
  util::metrics::Registry& registry = util::metrics::Registry::global();
  util::metrics::Counter& refs = registry.counter("memsim.refs");
  util::metrics::Counter& lines = registry.counter("memsim.line_accesses");

  const std::uint64_t refs_before = refs.value();
  const std::uint64_t lines_before = lines.value();
  const Clock::time_point start = Clock::now();
  const auto inputs_span = spans.span("inputs", app);
  const std::int64_t parent = inputs_span.id();
  auto generate = [&](std::size_t i) {
    const std::uint32_t cores = counts[i];
    const trace::TaskTrace task = [&] {
      const auto s = spans.span("synth.trace_task", app + "." + std::to_string(cores), 0, parent);
      return synth::trace_task(*model, cores, model->demanding_rank(cores), options);
    }();
    const std::string path = dir + "/" + app + "_" + std::to_string(cores) + ".trace";
    trace::save_binary(task, path);
    return path;
  };
  std::vector<std::string> paths = pool.parallel_map<std::string>(counts.size(), generate);
  detail["memsim.refs." + app] = static_cast<double>(refs.value() - refs_before);
  detail["memsim.line_accesses." + app] = static_cast<double>(lines.value() - lines_before);
  detail["memsim.collect_s." + app] = seconds_since(start);
  return paths;
}

std::vector<std::string> inflated_traces(const std::string& app,
                                         const std::vector<std::uint32_t>& counts,
                                         const std::string& dir, std::uint64_t inflate_bytes,
                                         std::uint64_t refs_cap, util::ThreadPool& pool,
                                         Spans& spans, std::map<std::string, double>& detail,
                                         std::vector<ToolSnapshot>& snapshots) {
  std::filesystem::create_directories(dir);
  const Clock::time_point start = Clock::now();
  const auto inputs_span = spans.span("inputs", app);
  const std::int64_t parent = inputs_span.id();
  const std::size_t first = snapshots.size();
  for (const std::uint32_t cores : counts)
    snapshots.push_back({app, cores, dir + "/" + app + "_" + std::to_string(cores) +
                                         ".metrics.json"});
  auto generate = [&](std::size_t i) {
    const std::string cores = std::to_string(counts[i]);
    const std::string path = dir + "/" + app + "_" + cores + ".trace";
    const auto s = spans.span("pmacx_trace", app + "." + cores, 0, parent);
    run_tool({PMACX_E2E_TRACE_BINARY, "--app", app, "--cores", cores, "--target",
              "bluewaters-p1", "--refs-cap", std::to_string(refs_cap), "--inflate-to-bytes",
              std::to_string(inflate_bytes), "--threads", "1", "--quiet", "--out", path,
              "--metrics-json", snapshots[first + i].path},
             path + ".log");
    return path;
  };
  std::vector<std::string> paths = pool.parallel_map<std::string>(counts.size(), generate);
  detail["memsim.collect_s." + app] = seconds_since(start);
  return paths;
}

double probe_refs(const machine::MultiMapsOptions& options) {
  double total = 0.0;
  for (const std::uint64_t working_set : options.working_sets) {
    const std::uint64_t wanted =
        std::max<std::uint64_t>(options.min_refs_per_probe, 3 * working_set / 8);
    const double refs = static_cast<double>(std::min(wanted, options.max_refs_per_probe));
    total += refs * static_cast<double>(options.strides.size() + (options.include_random ? 1 : 0));
  }
  return total;
}

}  // namespace pmacx::e2e
