// pmacx_e2e — the end-to-end benchmark program.
//
//   pmacx_e2e --workload table1|whatif|ingest --seed N --seconds S
//             --trace 0|1 --out-dir DIR [--threads T]
//   pmacx_e2e --selftest --out-dir DIR
//
// Runs one workload, checks its outputs and writes DIR/report.json (and, in
// a traced run, DIR/spans.json).  perf_e2e/run.py builds this binary, runs
// it and prints the benchmark's result line.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "e2e.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/strings.hpp"

namespace pmacx::e2e {

void Report::check(const std::string& name, const std::string& failure) {
  ++checks_run;
  if (failure.empty()) return;
  correct = false;
  if (failures.size() < 20) failures.push_back(name + ": " + failure);
}

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  if (p == 50.0) {
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * values.size()));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double tail(const std::vector<double>& values) {
  return values.size() >= 100 ? percentile(values, 90.0) : median(values);
}

double peak_rss_mib(long pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  return 0.0;
}

}  // namespace pmacx::e2e

namespace {

using namespace pmacx;
using namespace pmacx::e2e;

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
  }
  return out + "\"";
}

std::string json_map(const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const auto& [name, value] : values)
    out += (out.size() > 1 ? ", " : "") + json_string(name) + ": " +
           util::format("%.9g", std::isfinite(value) ? value : 0.0);
  return out + "}";
}

void write_report(const std::string& path, const Options& options, const Report& r) {
  std::ofstream out(path);
  PMACX_CHECK(out.good(), "cannot write '" + path + "'");
  out << "{\n  \"workload\": " << json_string(options.workload) << ",\n"
      << "  \"seed\": " << options.seed << ",\n"
      << "  \"correct\": " << (r.correct ? "true" : "false") << ",\n"
      << "  \"checks_run\": " << r.checks_run << ",\n  \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i)
    out << (i ? ", " : "") << json_string(r.failures[i]);
  out << "],\n  \"ops\": {\"attempted\": " << r.ops.attempted << ", \"ok\": " << r.ops.ok
      << ", \"busy\": " << r.ops.busy << ", \"error\": " << r.ops.error
      << ", \"status_polls\": " << r.ops.status_polls
      << ", \"connections\": " << r.ops.connections
      << ", \"pacing\": " << json_string(r.ops.pacing) << "},\n"
      << "  \"rounds\": " << r.rounds << ",\n"
      << "  \"measured_s\": " << util::format("%.9g", r.measured_s) << ",\n"
      << "  \"e2e\": " << json_map(r.e2e) << ",\n"
      << "  \"detail\": " << json_map(r.detail) << ",\n"
      << "  \"snapshot\": " << json_string(r.snapshot) << ",\n  \"input_snapshots\": [";
  for (std::size_t i = 0; i < r.input_snapshots.size(); ++i) {
    const ToolSnapshot& t = r.input_snapshots[i];
    out << (i ? ", " : "") << "{\"app\": " << json_string(t.app) << ", \"cores\": " << t.cores
        << ", \"path\": " << json_string(t.path) << "}";
  }
  out << "]\n}\n";
}

std::string arg_value(int argc, char** argv, const std::string& flag, const std::string& fallback) {
  for (int i = 1; i + 1 < argc; ++i)
    if (argv[i] == flag) return argv[i + 1];
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    util::set_log_level(util::LogLevel::Warn);
    Options options;
    options.out_dir = arg_value(argc, argv, "--out-dir", "");
    PMACX_CHECK(!options.out_dir.empty(), "--out-dir is required");
    std::filesystem::create_directories(options.out_dir);
    const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
    options.threads = std::stoul(arg_value(argc, argv, "--threads", std::to_string(hardware)));
    PMACX_CHECK(options.threads >= 1 && options.threads <= hardware,
                "--threads must be in [1, nproc]");
    for (int i = 1; i < argc; ++i)
      if (std::string(argv[i]) == "--selftest") return run_selftest(options);

    options.workload = arg_value(argc, argv, "--workload", "");
    options.seed = std::stoull(arg_value(argc, argv, "--seed", "1"));
    options.seconds = std::stod(arg_value(argc, argv, "--seconds", "10"));
    options.trace = arg_value(argc, argv, "--trace", "0") == "1";
    PMACX_CHECK(options.seconds > 0, "--seconds must be positive");

    Spans spans(options.trace);
    Report report;
    if (options.workload == "table1") {
      report = run_table1(options, spans);
    } else if (options.workload == "whatif") {
      report = run_whatif(options, spans);
    } else if (options.workload == "ingest") {
      report = run_ingest(options, spans);
    } else {
      throw util::Error("unknown --workload '" + options.workload +
                        "' (table1 | whatif | ingest)");
    }
    if (options.trace) spans.write(options.out_dir + "/spans.json");
    write_report(options.out_dir + "/report.json", options, report);
    for (const std::string& failure : report.failures)
      std::fprintf(stderr, "pmacx_e2e: check failed: %s\n", failure.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmacx_e2e: %s\n", e.what());
    return 1;
  }
}
