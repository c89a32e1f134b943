// ingest: live trace ingestion with background refits, beside reads.
//
// A run is five rounds, each on a fresh server.  Set-up uploads a read
// collection (UH3D at 1024/2048/4096), waits for its refits and records the
// answer to each read query: the answers every read during ingestion must
// repeat.  The round then uploads SPECFEM3D traces inflated to 2 MiB by
// pmacx_trace, one at a time in a seeded order, into a fresh collection.
// After each COMMIT it polls STATUS until the background refit is
// published, then asks the collection for a PREDICT: waiting on every refit
// keeps the number of refits fixed (back-to-back commits would coalesce
// into a timing-dependent number).  Meanwhile a second connection sends
// closed-loop PREDICTs against the read collection.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <thread>

#include "checks.hpp"
#include "e2e.hpp"
#include "inputs.hpp"
#include "machine/targets.hpp"
#include "serve.hpp"
#include "trace/stream_reader.hpp"
#include "trace/task_trace.hpp"
#include "util/crc32.hpp"

namespace pmacx::e2e {
namespace {

constexpr std::uint64_t kInflateBytes = std::uint64_t{2} << 20;
// The writer's work is fixed, not bounded by --seconds, so that the number
// of refits does not depend on the machine's speed.  setup_s is the median
// of the rounds' set-ups.
constexpr std::uint64_t kRounds = 5;
constexpr std::uint32_t kChunkBytes = 1u << 20;
constexpr std::uint32_t kWriteTarget = 6144;
constexpr char kMachine[] = "bluewaters-p1";
const std::vector<std::uint32_t> kReadTargets = {6144, 8192};

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// One refit the writer waited for: which files the collection held, and
/// what the collection answered once the refit was published.
struct Refit {
  std::vector<std::size_t> files;  ///< indices into the write inputs
  std::string answer;
};

/// Polls STATUS until the server reports `refits` completed refits.
bool wait_for_refits(service::Client& client, std::uint64_t refits, Ops& ops) {
  service::Request status;
  status.type = service::MsgType::Status;
  const Clock::time_point start = Clock::now();
  while (seconds_since(start) < 120.0) {
    ++ops.status_polls;
    const service::Response response = client.call(status);
    if (response.status == service::Status::Ok &&
        status_value(response.body, "ingest.refits") >= refits)
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

}  // namespace

Report run_ingest(const Options& options, Spans& spans) {
  Report report;
  report.ops.connections = 2;
  report.ops.pacing =
      "writer: one upload at a time, next upload after its refit answers; reader: closed loop";
  util::ThreadPool pool(options.threads);
  std::optional<Spans::Scope> root(std::in_place, spans, "workload", "ingest", 0,
                                   Spans::kNoParent);

  const std::string inputs_dir = options.out_dir + "/inputs";
  const std::vector<std::string> read_files = generate_traces(
      "uh3d", {1024, 2048, 4096}, inputs_dir, kServedRefsCap, pool, spans, report.detail);
  const std::vector<std::uint32_t> write_counts = {96, 384, 768, 1536};
  const std::vector<std::string> write_files =
      inflated_traces("specfem3d", write_counts, inputs_dir, kInflateBytes, kServedRefsCap,
                      pool, spans, report.detail, report.input_snapshots);
  std::vector<std::uint32_t> write_crcs;
  double validate_s = 0.0, validate_bytes = 0.0;
  for (const std::string& file : write_files) {
    const std::string bytes = file_bytes(file);
    write_crcs.push_back(util::crc32(bytes));
    const auto s = spans.span("trace.stream_validate", file.substr(file.rfind('/') + 1));
    const Clock::time_point start = Clock::now();
    const auto source = trace::make_view_source(bytes);
    trace::stream_validate(*source);
    validate_s += seconds_since(start);
    validate_bytes += static_cast<double>(bytes.size());
  }
  report.detail["trace.validate_mib_s"] = validate_bytes / (1 << 20) / validate_s;

  // Read keys, in a seeded order the reader cycles through.
  Rng rng(options.seed);
  std::vector<std::uint32_t> read_sequence;
  for (int i = 0; i < 64; ++i)
    read_sequence.push_back(kReadTargets[rng.below(kReadTargets.size())]);
  const std::vector<std::string> read_spec = {"@rd"};

  // Each round runs on a fresh server: set-up (spawn until the read
  // collection is uploaded, fitted and answered), then the round.  A server
  // keeps every collection it has refitted, so rounds on one server would
  // each start with more memory held than the last.
  std::vector<double> setup, rss, results_ms, refit_s;
  std::map<std::uint32_t, std::string> read_answers;
  std::vector<std::string> failures;
  std::vector<double> read_ms;
  std::vector<std::pair<std::uint32_t, service::Response>> reads;
  double upload_s = 0.0, upload_bytes = 0.0;
  std::vector<Refit> refits;
  std::vector<std::pair<std::string, std::uint32_t>> committed;  // path, source CRC
  // Every server writes its snapshot here on exit; the last one's stays.
  const std::string snapshot = options.out_dir + "/server.metrics.json";
  for (; report.rounds < kRounds; ++report.rounds) {
    const std::string round = std::to_string(report.rounds);
    const std::string ingest_dir = options.out_dir + "/ingest" + round;
    std::filesystem::remove_all(ingest_dir);
    std::uint64_t refits_expected = 0;
    std::optional<Spans::Scope> setup_span(std::in_place, spans, "setup", round, 0,
                                           Spans::kCurrent);
    const Clock::time_point setup_start = Clock::now();
    std::unique_ptr<ServerProcess> server;
    {
      const auto spawn = spans.span("service.spawn", round);
      server = std::make_unique<ServerProcess>(options.out_dir, options.threads, snapshot,
                                               ingest_dir);
    }
    const std::unique_ptr<service::Client> writer = connect(server->port());
    const std::unique_ptr<service::Client> reader = connect(server->port());
    for (std::size_t i = 0; i < read_files.size(); ++i) {
      const UploadResult up = upload_file(*writer, read_files[i], "rd", kChunkBytes, report.ops,
                                          spans, 1 + i);
      if (!up.ok) failures.push_back("read upload: " + up.error);
      if (i == 0) continue;  // one trace cannot be fitted: refit defers
      const auto w = spans.span("ingest.wait_refit", "rd", 1 + i);
      if (!wait_for_refits(*writer, ++refits_expected, report.ops))
        failures.push_back("read collection refit not published within 120 s");
    }
    for (const std::uint32_t target : kReadTargets) {
      const auto p = spans.span("service.predict", "@rd:" + std::to_string(target));
      const service::Response r =
          call_counted(*reader, predict_request(read_spec, target, "uh3d", kMachine), report.ops);
      if (r.status != service::Status::Ok) failures.push_back("read setup: " + r.body);
      // Every server must give the same answers: the first one's are kept.
      read_answers.emplace(target, r.body);
    }
    setup.push_back(seconds_since(setup_start));
    setup_span.reset();

    // The reader runs for the whole round.  Its spans hang off a root of
    // their own: they are load beside the writer, and the ledger's coverage
    // follows the writer's chain.
    std::atomic<bool> writing{true};
    Ops read_ops;
    std::thread read_thread([&] {
      const auto reader_root = spans.span("ingest.reader", "@rd", 0, Spans::kNoParent);
      for (std::size_t i = 0; writing.load(); ++i) {
        const std::uint32_t target = read_sequence[i % read_sequence.size()];
        const auto s = spans.span("service.predict", "@rd:" + std::to_string(target),
                                  2'000'000 + i);
        const Clock::time_point start = Clock::now();
        service::Response r =
            call_counted(*reader, predict_request(read_spec, target, "uh3d", kMachine), read_ops);
        read_ms.push_back(1e3 * seconds_since(start));
        reads.emplace_back(target, std::move(r));
      }
    });

    // A result is one collection made servable: its first BEGIN until it
    // answers after its last refit.  The single uploads fall into three
    // clusters (two, three or four traces to refit), and a median over them
    // lands between clusters.
    const std::string collection = "w" + round;
    std::optional<Spans::Scope> round_span(std::in_place, spans, "ingest.round", collection, 0,
                                           Spans::kCurrent);
    std::vector<std::size_t> order(write_files.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    Rng round_rng(options.seed * 7919 + report.rounds);
    round_rng.shuffle(order);
    std::vector<std::size_t> held;
    const Clock::time_point round_start = Clock::now();
    for (const std::size_t f : order) {
      const std::uint64_t request_id = 1000 * (report.rounds + 1) + held.size();
      const auto s = spans.span("ingest.upload", collection, request_id);
      const UploadResult up = upload_file(*writer, write_files[f], collection, kChunkBytes,
                                          report.ops, spans, request_id);
      if (!up.ok) {
        failures.push_back(collection + " upload: " + up.error);
        continue;
      }
      upload_s += up.seconds;
      upload_bytes += static_cast<double>(up.bytes);
      committed.emplace_back(up.path, write_crcs[f]);
      held.push_back(f);
      if (held.size() < 2) continue;  // one trace cannot be fitted: refit defers
      const Clock::time_point acked = Clock::now();
      {
        const auto w = spans.span("ingest.wait_refit", collection, request_id);
        if (!wait_for_refits(*writer, ++refits_expected, report.ops)) {
          failures.push_back(collection + ": refit not published within 120 s");
          continue;
        }
      }
      const service::Response r = [&] {
        const auto p = spans.span("service.predict", "@" + collection, request_id);
        return call_counted(*writer,
                            predict_request({"@" + collection}, kWriteTarget, "specfem3d",
                                            kMachine),
                            report.ops);
      }();
      refit_s.push_back(seconds_since(acked));
      if (r.status != service::Status::Ok) {
        failures.push_back(collection + " PREDICT: " + r.body);
        continue;
      }
      refits.push_back({held, r.body});
    }
    results_ms.push_back(1e3 * seconds_since(round_start));
    report.measured_s += results_ms.back() / 1e3;
    round_span.reset();
    writing = false;
    read_thread.join();
    report.ops.attempted += read_ops.attempted;
    report.ops.ok += read_ops.ok;
    report.ops.busy += read_ops.busy;
    report.ops.error += read_ops.error;
    rss.push_back(peak_rss_mib(server->pid()));
    server->shutdown();
  }
  report.snapshot = snapshot;
  root.reset();

  report.e2e["setup_s"] = median(setup);
  report.e2e["peak_rss_mib"] = median(rss);
  report.e2e["result_p50_ms"] = median(results_ms);
  report.e2e["result_tail_ms"] = tail(results_ms);
  report.e2e["results_per_s"] = static_cast<double>(results_ms.size()) / report.measured_s;
  report.detail["ingest.upload_mib_s"] = upload_bytes / (1 << 20) / upload_s;
  report.detail["ingest.refit_s"] = median(refit_s);
  report.detail["ingest.read_p50_ms"] = median(read_ms);
  report.detail["ingest.reads"] = static_cast<double>(read_ms.size());
  report.detail["ingest.refits_waited"] = static_cast<double>(refit_s.size());
  report.detail["machine.probe_refs"] = probe_refs({});

  // Checks, outside the timed region.
  const auto checks = spans.span("checks", "ingest", 0, Spans::kNoParent);
  for (const std::string& failure : failures) report.check("every operation OK", failure);
  for (const auto& [path, crc] : committed) {
    const std::uint32_t got = util::crc32(file_bytes(path));
    report.check("committed file CRC matches its source",
                 got == crc ? "" : path + ": CRC differs from the uploaded source");
  }
  for (const auto& [target, response] : reads) {
    std::string failure;
    if (response.status != service::Status::Ok)
      failure = "read @rd:" + std::to_string(target) + ": " + response.body;
    else if (std::string bad = check_identical(response.body, read_answers.at(target));
             !bad.empty())
      failure = "read @rd:" + std::to_string(target) + " changed during ingest: " + bad;
    report.check("reads during ingest equal the answers before it", failure);
  }
  const machine::MachineProfile profile = [&] {
    const auto s = spans.span("machine.build_profile", kMachine);
    return machine::build_profile(machine::target_by_name(kMachine));
  }();
  std::map<std::vector<std::size_t>, std::string> expected;
  std::vector<trace::TaskTrace> loaded(write_files.size());
  for (Refit& refit : refits) {
    std::sort(refit.files.begin(), refit.files.end());  // ascending core counts
    auto [it, fresh] = expected.emplace(refit.files, "");
    if (fresh) {
      std::vector<trace::TaskTrace> inputs;
      for (const std::size_t f : refit.files) {
        if (loaded[f].blocks.empty()) loaded[f] = trace::TaskTrace::load(write_files[f]);
        inputs.push_back(loaded[f]);
      }
      it->second = expected_prediction(inputs, service::FitSpec{}, kWriteTarget, "specfem3d",
                                       profile);
    }
    report.check("post-refit answer equals an in-process cold fit",
                 check_identical(refit.answer, it->second));
  }
  for (std::uint64_t round = 0; round < kRounds; ++round)
    std::filesystem::remove_all(options.out_dir + "/ingest" + std::to_string(round));
  return report;
}

}  // namespace pmacx::e2e
