// whatif: closed-loop PREDICT and PREDICT_INTERVAL queries against one
// pmacx_serve, over models fitted from both applications' small-count
// traces.
//
// Each request is a key drawn from a seeded, skewed distribution.  PREDICT
// keys cycle through fixed (application, target) shapes, so the replay work
// per round is the same for every seed, and draw the machine from a Zipf
// over a seeded order of the five predefined machines.  Every fourth
// request is a PREDICT_INTERVAL (coverage 0.9).  Nine in ten of those draw
// their target from a Zipf over eight target counts in a seeded order, so a
// few keys repeat often; the tenth asks for a target no earlier request
// named, so every round has the same number of keys that appear once.
// Nothing records how real what-if queries spread over keys: the mix's
// parameters, named below, are assumptions made for the benchmark, and
// README.md gives the reason for each.
// `threads` connections pull the requests of a round from one queue, each
// sending its next request only after the previous answer.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <map>
#include <optional>
#include <thread>

#include "checks.hpp"
#include "e2e.hpp"
#include "inputs.hpp"
#include "machine/targets.hpp"
#include "serve.hpp"
#include "trace/task_trace.hpp"
#include "util/strings.hpp"

namespace pmacx::e2e {
namespace {

constexpr std::size_t kRoundRequests = 200;
constexpr double kCoverage = 0.9;
// The assumed mix.
constexpr std::size_t kIntervalEvery = 4;    ///< every 4th request is an interval
constexpr double kMachineSkew = 1.2;         ///< Zipf exponent over the machines
constexpr double kTargetSkew = 1.1;          ///< Zipf exponent over interval multiples
constexpr std::uint32_t kMultiples = 8;      ///< interval multiples, drawn from 2..65
constexpr std::size_t kFreshEvery = 10;      ///< every 10th interval is a fresh key
constexpr std::size_t kFreshPerRound = kRoundRequests / kIntervalEvery / kFreshEvery;

struct AppInputs {
  std::string app;
  std::vector<std::uint32_t> counts;
  std::vector<std::uint32_t> predict_targets;
  std::vector<std::string> paths;
};

struct Query {
  bool interval = false;
  std::size_t app = 0;
  std::uint32_t target = 0;
  std::string machine;  ///< PREDICT only

  std::string key(const std::vector<AppInputs>& apps) const {
    return (interval ? "interval:" : "predict:") + apps[app].app + ":" +
           std::to_string(target) + ":" + machine;
  }
};

struct Answer {
  double ms = 0.0;
  service::Response response;
};

std::vector<Query> round_queries(const std::vector<AppInputs>& apps, std::uint64_t seed,
                                 std::uint64_t round) {
  // The orders are fixed per seed; the draws change from round to round.
  Rng order(seed);
  std::vector<std::string> machines = machine::target_names();
  order.shuffle(machines);
  std::vector<std::uint32_t> multiples;
  for (std::uint32_t m = 2; m < 66; ++m) multiples.push_back(m);
  order.shuffle(multiples);
  multiples.resize(kMultiples);
  const Zipf machine_zipf(machines.size(), kMachineSkew);
  const Zipf target_zipf(multiples.size(), kTargetSkew);

  std::vector<std::pair<std::size_t, std::uint32_t>> shapes;
  for (std::size_t a = 0; a < apps.size(); ++a)
    for (const std::uint32_t target : apps[a].predict_targets) shapes.emplace_back(a, target);

  Rng draw(seed * 1'000'003 + round);
  std::vector<Query> queries(kRoundRequests);
  std::size_t predicts = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    Query& q = queries[i];
    if (i % kIntervalEvery == kIntervalEvery - 1) {
      const std::size_t k = i / kIntervalEvery;
      q.interval = true;
      q.app = (k / 2) % apps.size();
      q.target = apps[q.app].counts.back() *
                 (k % kFreshEvery == kFreshEvery - 1
                      ? 100 + static_cast<std::uint32_t>(kFreshPerRound * round + k / kFreshEvery)
                      : multiples[target_zipf(draw)]);
    } else {
      const auto& shape = shapes[predicts++ % shapes.size()];
      q.app = shape.first;
      q.target = shape.second;
      q.machine = machines[machine_zipf(draw)];
    }
  }
  return queries;
}

service::Request to_request(const Query& q, const std::vector<AppInputs>& apps) {
  return q.interval ? interval_request(apps[q.app].paths, q.target, kCoverage)
                    : predict_request(apps[q.app].paths, q.target, apps[q.app].app, q.machine);
}

/// Sends every query over `connections` closed-loop clients; answers land
/// in query order.
std::vector<Answer> drive(const std::vector<Query>& queries, const std::vector<AppInputs>& apps,
                          std::vector<std::unique_ptr<service::Client>>& clients, Ops& ops,
                          Spans& spans, std::int64_t parent, std::uint64_t first_request_id) {
  std::vector<Answer> answers(queries.size());
  std::vector<Ops> per_client(clients.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = next++; i < queries.size(); i = next++) {
        const service::Request request = to_request(queries[i], apps);
        const auto s = spans.span(queries[i].interval ? "service.predict_interval"
                                                      : "service.predict",
                                  queries[i].key(apps), first_request_id + i, parent);
        const Clock::time_point start = Clock::now();
        answers[i].response = call_counted(*clients[c], request, per_client[c]);
        answers[i].ms = 1e3 * seconds_since(start);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const Ops& o : per_client) {
    ops.attempted += o.attempted;
    ops.ok += o.ok;
    ops.busy += o.busy;
    ops.error += o.error;
  }
  return answers;
}

}  // namespace

Report run_whatif(const Options& options, Spans& spans) {
  Report report;
  report.ops.connections = options.threads;
  report.ops.pacing = "closed loop, " + std::to_string(options.threads) +
                      " connections, next request on answer";
  util::ThreadPool pool(options.threads);
  std::optional<Spans::Scope> root(std::in_place, spans, "workload", "whatif", 0,
                                   Spans::kNoParent);

  std::vector<AppInputs> apps = {{"specfem3d", {96, 384, 1536}, {3072, 6144}, {}},
                                 {"uh3d", {1024, 2048, 4096}, {8192}, {}}};
  for (AppInputs& a : apps)
    a.paths = generate_traces(a.app, a.counts, options.out_dir + "/traces", kServedRefsCap,
                              pool, spans, report.detail);
  const std::vector<std::string> machines = machine::target_names();

  // Set-up, three times on fresh servers: spawn until every (application,
  // machine) pair has answered one PREDICT, so every model is fitted and
  // every profile probed.  The last server serves the measured rounds.
  std::vector<double> setup;
  std::unique_ptr<ServerProcess> server;
  std::vector<std::unique_ptr<service::Client>> clients;
  std::map<std::string, std::string> bodies;  // key -> first body seen
  const std::string snapshot = options.out_dir + "/server.metrics.json";
  for (int attempt = 0; attempt < 3; ++attempt) {
    if (server) server->shutdown();
    clients.clear();
    const auto s = spans.span("setup", std::to_string(attempt));
    const Clock::time_point start = Clock::now();
    {
      const auto spawn = spans.span("service.spawn", std::to_string(attempt));
      server = std::make_unique<ServerProcess>(options.out_dir, options.threads, snapshot);
    }
    for (std::size_t c = 0; c < options.threads; ++c) clients.push_back(connect(server->port()));
    std::vector<Query> warm;
    for (std::size_t a = 0; a < apps.size(); ++a)
      for (const std::string& m : machines)
        warm.push_back({false, a, apps[a].predict_targets[0], m});
    const std::vector<Answer> answers =
        drive(warm, apps, clients, report.ops, spans, s.id(), 1 + 100 * attempt);
    setup.push_back(seconds_since(start));
    for (std::size_t i = 0; i < warm.size(); ++i)
      if (answers[i].response.status == service::Status::Ok)
        bodies.emplace(warm[i].key(apps), answers[i].response.body);
  }

  // Measured rounds.
  std::vector<double> latencies, predict_ms, interval_ms;
  std::vector<std::pair<Query, service::Response>> failures;
  std::map<std::string, Query> distinct;
  std::map<std::string, std::string> mismatched;  // key -> first differing body
  std::uint64_t requests = 0;
  const Clock::time_point measured = Clock::now();
  do {
    const std::vector<Query> queries = round_queries(apps, options.seed, report.rounds);
    const auto s = spans.span("whatif.round", std::to_string(report.rounds));
    const std::vector<Answer> answers =
        drive(queries, apps, clients, report.ops, spans, s.id(),
              1'000'000 * (report.rounds + 1));
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const Answer& a = answers[i];
      latencies.push_back(a.ms);
      (queries[i].interval ? interval_ms : predict_ms).push_back(a.ms);
      if (a.response.status != service::Status::Ok) {
        failures.emplace_back(queries[i], a.response);
        continue;
      }
      const std::string key = queries[i].key(apps);
      distinct.emplace(key, queries[i]);
      const auto [it, fresh] = bodies.emplace(key, a.response.body);
      if (!fresh && it->second != a.response.body) mismatched.emplace(key, a.response.body);
    }
    requests += queries.size();
    ++report.rounds;
  } while (!options.trace && seconds_since(measured) < options.seconds);
  report.measured_s = seconds_since(measured);
  const double rss = peak_rss_mib(server->pid());
  server->shutdown();
  report.snapshot = snapshot;
  root.reset();

  report.e2e["setup_s"] = median(setup);
  report.e2e["peak_rss_mib"] = rss;
  report.e2e["result_p50_ms"] = median(latencies);
  report.e2e["result_tail_ms"] = tail(latencies);
  report.e2e["results_per_s"] = static_cast<double>(requests) / report.measured_s;
  report.detail["whatif.requests"] = static_cast<double>(requests);
  report.detail["whatif.p99_ms"] = percentile(latencies, 99.0);
  report.detail["whatif.predict_p50_ms"] = median(predict_ms);
  report.detail["whatif.interval_p50_ms"] = median(interval_ms);
  report.detail["whatif.predict_requests"] = static_cast<double>(predict_ms.size());
  report.detail["whatif.distinct_keys"] = static_cast<double>(distinct.size());
  report.detail["machine.probe_refs"] = probe_refs({});

  // Checks, outside the timed region.
  const auto checks = spans.span("checks", "whatif", 0, Spans::kNoParent);
  for (const auto& [query, response] : failures)
    report.check("every response OK", query.key(apps) + ": " + response.body);
  for (const auto& [key, body] : mismatched)
    report.check("repeated queries answer byte-identically",
                 key + ": " + check_identical(body, bodies.at(key)));

  using Profile = std::shared_ptr<const machine::MachineProfile>;
  auto probe = [&](std::size_t i) {
    const auto s = spans.span("machine.build_profile", machines[i], 0, checks.id());
    return std::make_shared<const machine::MachineProfile>(
        machine::build_profile(machine::target_by_name(machines[i])));
  };
  // A traced run probes one machine at a time, so that machine.probe_s
  // times a probe alone on the host, not one of several sharing it.  An
  // untraced run reports no probe time and probes in parallel, which keeps
  // it about 7 s shorter.
  std::vector<Profile> profiles;
  if (options.trace) {
    for (std::size_t i = 0; i < machines.size(); ++i) profiles.push_back(probe(i));
  } else {
    profiles = pool.parallel_map<Profile>(machines.size(), probe);
  }
  std::vector<std::vector<trace::TaskTrace>> inputs;
  for (const AppInputs& a : apps) {
    inputs.emplace_back();
    for (const std::string& path : a.paths) inputs.back().push_back(trace::TaskTrace::load(path));
  }
  std::vector<Query> to_check;
  for (const auto& [key, query] : distinct) to_check.push_back(query);
  const std::vector<std::string> verdicts =
      pool.parallel_map<std::string>(to_check.size(), [&](std::size_t i) {
        const Query& q = to_check[i];
        const std::string& body = bodies.at(q.key(apps));
        if (q.interval) return check_interval(body);
        const std::size_t m =
            std::find(machines.begin(), machines.end(), q.machine) - machines.begin();
        return check_identical(body, expected_prediction(inputs[q.app], service::FitSpec{},
                                                         q.target, apps[q.app].app, *profiles[m]));
      });
  for (std::size_t i = 0; i < to_check.size(); ++i)
    report.check(to_check[i].interval ? "interval has lo <= median <= hi"
                                      : "PREDICT body equals the in-process render",
                 verdicts[i].empty() ? "" : to_check[i].key(apps) + ": " + verdicts[i]);
  std::filesystem::remove_all(options.out_dir + "/traces");
  return report;
}

}  // namespace pmacx::e2e
