// pmacx_diskchaos — seeded storage-fault sweep over every durable-state path.
//
// The storage-side twin of pmacx_chaos: where that tool tears the network
// out from under the RPC layer, this one tears the *disk* out from under
// the persistence layer.  Each seed installs a mixed util::io fault
// schedule (EIO, ENOSPC, short transfers, EINTR storms, torn renames,
// lying fsyncs, crash-after-N-ops) and drives the two durable-state
// workloads in-process:
//
//   A  fit → checkpoint → crash → resume, via checkpointed fit_task_models
//      over a synthetic three-point series.  A SimulatedCrash is treated as
//      a node restart (faults reinstalled with a derived seed) and the run
//      retried; the moment a fit completes it must account for every
//      element (reused + fitted == total) and extrapolate byte-identically
//      to the clean golden run — whatever torn chunks earlier attempts left.
//
//   B  upload → commit → restart → re-upload, via an in-process
//      UploadManager + CollectionRegistry working the BEGIN/CHUNK/COMMIT
//      protocol.  Restarts run the startup scrubber first (itself under
//      fault injection — it too may crash and re-run).  The sweep asserts
//      the final collection serves exactly the three uploaded files,
//      byte-identical to the originals, no matter which commits tore.
//
//   C  deterministic full disk: enospc_after_bytes trips mid-upload, the
//      manager must flip to read-only (typed rejection, no crash loop),
//      and a faults-cleared restart + scrub must recover completely.
//
// Cross-cutting invariants, every seed: no fault ever escapes as a crash
// (only typed util::Error / SimulatedCrash), published state is never
// served corrupt, and after recovery no spool/temp files remain — leftover
// temps are counted into the io.temp_leaks counter the CI gate pins to 0.
//
//   pmacx_diskchaos --seeds 32 --json DISKCHAOS.json
//       --metrics-json diskchaos.metrics.json
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/extrapolator.hpp"
#include "ingest/collection.hpp"
#include "ingest/scrub.hpp"
#include "ingest/upload.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/cli.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/io.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

namespace {

using namespace pmacx;
namespace fs = std::filesystem;
namespace io = util::io;

constexpr std::size_t kMaxAttempts = 14;   ///< restarts/retries per workload
constexpr std::size_t kStreamBudget = std::size_t{8} << 20;
constexpr std::uint32_t kChunkBytes = 257; ///< forces several chunks per file

/// Same predicate the scrubber applies: atomic-write temps and spool parts.
bool is_temp_name(const std::string& name) {
  if (name.size() > 5 && name.substr(name.size() - 5) == ".part") return true;
  return name.find(".tmp.") != std::string::npos;
}

/// Temp files left anywhere under `root` after recovery — the sweep's
/// "temps never accumulate" invariant (quarantined traces keep their real
/// names, so they never count).
std::size_t count_temps(const std::string& root) {
  std::size_t leaks = 0;
  std::error_code ec;
  if (!fs::exists(root, ec)) return 0;
  fs::recursive_directory_iterator it(root, ec), end;
  for (; !ec && it != end; it.increment(ec))
    if (it->is_regular_file(ec) && is_temp_name(it->path().filename().string()))
      ++leaks;
  return leaks;
}

/// The same synthetic three-point series the checkpoint contract tests use:
/// clean per-block scaling, six blocks — several chunks at chunk_elements=2.
std::vector<trace::TaskTrace> build_series() {
  std::vector<trace::TaskTrace> series;
  for (std::uint32_t p : {8u, 16u, 32u}) {
    trace::TaskTrace task;
    task.app = "diskchaos";
    task.rank = 1;
    task.core_count = p;
    task.target_system = "test target";
    for (std::size_t b = 0; b < 6; ++b) {
      trace::BasicBlockRecord block;
      block.id = 10 + b;
      block.location = {"kernel.f90", static_cast<std::uint32_t>(100 + b), "kernel"};
      block.set(trace::BlockElement::VisitCount, 100.0 + static_cast<double>(b));
      block.set(trace::BlockElement::MemLoads, 8.0e6 / p);
      block.set(trace::BlockElement::MemStores, 4.0e6 / p);
      block.set(trace::BlockElement::BytesPerRef, 8.0);
      block.set(trace::BlockElement::HitRateL1, 0.9);
      block.set(trace::BlockElement::HitRateL2, 0.95);
      block.set(trace::BlockElement::HitRateL3, 0.99);
      trace::InstructionRecord instr;
      instr.index = 1;
      instr.set(trace::InstrElement::ExecCount, 100.0);
      instr.set(trace::InstrElement::MemOps, 75.0);
      instr.set(trace::InstrElement::HitRateL1, 0.5);
      instr.set(trace::InstrElement::HitRateL2, 0.6);
      instr.set(trace::InstrElement::HitRateL3, 0.7);
      block.instructions.push_back(instr);
      task.blocks.push_back(block);
    }
    task.sort_blocks();
    series.push_back(std::move(task));
  }
  return series;
}

/// The byte-identity oracle: whatever the disk did, a completed fit must
/// extrapolate to exactly these bytes.
std::string golden_bytes(const core::TaskModelSet& models) {
  return trace::to_binary(core::extrapolate_from_models(models, 256).trace);
}

/// One seeded fault mix.  Every probability and the crash budget derive
/// from the seed, so a failing report's seed replays the exact schedule.
/// `epoch` advances on every simulated restart ("the node came back").
io::FaultConfig fault_mix(std::uint64_t seed, std::uint64_t epoch) {
  const std::uint64_t derived = util::derive_seed(seed, epoch);
  util::Rng rng(derived);
  io::FaultConfig cfg;
  cfg.seed = derived;
  cfg.p_eio = 0.002 + rng.uniform() * 0.01;
  cfg.p_enospc = rng.uniform() * 0.004;
  cfg.p_short_write = rng.uniform() * 0.06;
  cfg.p_short_read = rng.uniform() * 0.06;
  cfg.p_eintr = rng.uniform() * 0.10;
  cfg.p_torn_rename = rng.uniform() * 0.05;
  cfg.p_fsync_lie = rng.uniform() * 0.02;
  cfg.crash_after_ops = 60 + rng.below(600);
  return cfg;
}

struct SeedResult {
  std::uint64_t seed = 0;
  bool passed = true;
  std::uint64_t restarts = 0;   ///< SimulatedCrash recoveries (all workloads)
  std::uint64_t io_errors = 0;  ///< typed errors absorbed and retried
  std::uint64_t temp_leaks = 0; ///< temps surviving recovery (must be 0)
  bool healed = false;          ///< needed the faults-cleared final pass
  std::string failure;          ///< first violated invariant
};

bool fail(SeedResult& result, const std::string& what) {
  result.passed = false;
  if (result.failure.empty()) result.failure = what;
  return false;
}

// --- Workload A: fit → checkpoint → crash → resume -------------------------

bool run_checkpoint_workload(std::uint64_t seed, const std::string& workdir,
                             const std::vector<trace::TaskTrace>& series,
                             const std::string& golden, SeedResult& result) {
  const std::string dir = workdir + "/ckpt";
  fs::remove_all(dir);
  core::CheckpointConfig config;
  config.dir = dir;
  config.digest = "d15kc4a05d15kc4a";
  config.chunk_elements = 2;

  std::uint64_t epoch = 0;
  io::install_faults(fault_mix(seed, epoch));
  bool fitted = false;
  for (std::size_t attempt = 0; attempt < kMaxAttempts && !fitted; ++attempt) {
    try {
      core::CheckpointStats stats;
      const core::TaskModelSet set =
          core::fit_task_models(series, {}, &config, &stats);
      if (stats.elements_reused + stats.elements_fitted != stats.elements_total)
        return fail(result, "checkpoint accounting lost elements");
      if (golden_bytes(set) != golden)
        return fail(result, "checkpointed fit diverged from the golden bytes");
      fitted = true;
    } catch (const io::SimulatedCrash&) {
      ++result.restarts;
      io::install_faults(fault_mix(seed, ++epoch));
    } catch (const util::Error&) {
      ++result.io_errors;  // typed and survivable: retry on the same node
    }
  }
  if (!fitted) {
    // The fault schedule never let a fit finish: the disk "heals" (faults
    // cleared), the scrubber drops torn state, and the resume must succeed.
    io::clear_faults();
    ingest::scrub_checkpoint_dir(dir);
    result.healed = true;
    core::CheckpointStats stats;
    const core::TaskModelSet set =
        core::fit_task_models(series, {}, &config, &stats);
    if (golden_bytes(set) != golden)
      return fail(result, "post-heal fit diverged from the golden bytes");
  }
  io::clear_faults();
  ingest::scrub_checkpoint_dir(dir);  // failed attempts may have left temps
  result.temp_leaks += count_temps(dir);
  return true;
}

// --- Workload B: upload → commit → restart → re-upload ----------------------

struct UploadFile {
  std::string name;
  std::string bytes;
};

/// Reads the published file directly (no fault points — this is the
/// oracle's view, not the system under test).
bool published_ok(const std::string& root, const UploadFile& file) {
  std::ifstream in(root + "/collections/chaos/" + file.name, std::ios::binary);
  if (!in.good()) return false;
  std::string got((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return got == file.bytes;
}

/// Drives one file through BEGIN/CHUNK*/COMMIT and registers the commit,
/// exactly as IngestService does.  `tag` keeps retry sessions distinct.
void upload_one(ingest::UploadManager& manager, ingest::CollectionRegistry& registry,
                const UploadFile& file, std::uint64_t tag) {
  ingest::UploadRequest begin;
  begin.op = ingest::UploadOp::Begin;
  begin.session = file.name + "." + std::to_string(tag);
  begin.collection = "chaos";
  begin.file_name = file.name;
  begin.total_bytes = file.bytes.size();
  begin.chunk_bytes = kChunkBytes;
  begin.file_crc = util::crc32(file.bytes);
  manager.handle(begin);

  for (std::size_t offset = 0; offset < file.bytes.size(); offset += kChunkBytes) {
    ingest::UploadRequest chunk;
    chunk.op = ingest::UploadOp::Chunk;
    chunk.session = begin.session;
    chunk.chunk_index = offset / kChunkBytes;
    chunk.data = file.bytes.substr(offset, kChunkBytes);
    manager.handle(chunk);
  }

  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = begin.session;
  const ingest::UploadOutcome outcome = manager.handle(commit);
  if (outcome.committed)
    registry.add(outcome.collection, outcome.file_name, outcome.core_count);
}

/// Scrub + fresh manager/registry: the in-process model of a server restart.
void restart_ingest(const std::string& root,
                    std::unique_ptr<ingest::UploadManager>& manager,
                    std::unique_ptr<ingest::CollectionRegistry>& registry) {
  ingest::ScrubOptions scrub;
  scrub.root = root;
  scrub.stream_budget = kStreamBudget;
  ingest::scrub_ingest_root(scrub);
  manager = std::make_unique<ingest::UploadManager>(
      ingest::UploadManager::Options{root, kStreamBudget});
  registry = std::make_unique<ingest::CollectionRegistry>(root);
}

bool verify_collection(const std::string& root, const std::vector<UploadFile>& files,
                       SeedResult& result, const char* when) {
  ingest::CollectionRegistry registry(root);
  std::vector<std::string> paths;
  try {
    paths = registry.resolve("chaos");
  } catch (const util::Error& e) {
    return fail(result, std::string(when) + ": collection unresolvable: " + e.what());
  }
  if (paths.size() != files.size())
    return fail(result, std::string(when) + ": collection serves " +
                            std::to_string(paths.size()) + " files, expected " +
                            std::to_string(files.size()));
  for (std::size_t i = 0; i < files.size(); ++i)
    if (fs::path(paths[i]).filename().string() != files[i].name)
      return fail(result, std::string(when) + ": collection order/content wrong at " +
                              files[i].name);
  for (const UploadFile& file : files)
    if (!published_ok(root, file))
      return fail(result, std::string(when) + ": published " + file.name +
                              " is not byte-identical to the original");
  return true;
}

bool run_upload_workload(std::uint64_t seed, const std::string& workdir,
                         const std::vector<UploadFile>& files, SeedResult& result) {
  const std::string root = workdir + "/ingest";
  fs::remove_all(root);

  std::uint64_t epoch = 1000;  // distinct schedule family from workload A
  io::install_faults(fault_mix(seed, epoch));
  std::unique_ptr<ingest::UploadManager> manager;
  std::unique_ptr<ingest::CollectionRegistry> registry;
  std::uint64_t tag = 0;
  bool done = false;
  for (std::size_t attempt = 0; attempt < kMaxAttempts && !done; ++attempt) {
    try {
      if (!manager) restart_ingest(root, manager, registry);
      // Re-upload whatever is missing or torn (a lying fsync can tear a
      // file the client was told committed — the client-side answer is
      // always re-upload, and rename replaces the torn bytes).
      for (const UploadFile& file : files)
        if (!published_ok(root, file)) upload_one(*manager, *registry, file, ++tag);
      done = true;
      for (const UploadFile& file : files)
        if (!published_ok(root, file)) done = false;
    } catch (const io::SimulatedCrash&) {
      ++result.restarts;
      io::install_faults(fault_mix(seed, ++epoch));
      manager.reset();
      registry.reset();
    } catch (const util::Error&) {
      ++result.io_errors;
      if (manager && manager->read_only()) {
        // ENOSPC hit: the operator frees space and restarts the server.
        ++result.restarts;
        io::install_faults(fault_mix(seed, ++epoch));
        manager.reset();
        registry.reset();
      }
    }
  }
  if (!done) {
    io::clear_faults();
    result.healed = true;
    restart_ingest(root, manager, registry);
    for (const UploadFile& file : files)
      if (!published_ok(root, file)) upload_one(*manager, *registry, file, ++tag);
  }
  io::clear_faults();
  manager.reset();
  registry.reset();

  // Final restart with a healthy disk: scrub, then the registry must serve
  // exactly the committed set, byte-identical, with no temps left behind.
  ingest::ScrubOptions scrub;
  scrub.root = root;
  scrub.stream_budget = kStreamBudget;
  ingest::scrub_ingest_root(scrub);
  if (!verify_collection(root, files, result, "upload workload")) return false;
  result.temp_leaks += count_temps(root);
  return true;
}

// --- Workload C: deterministic ENOSPC → read-only → heal --------------------

bool run_enospc_workload(std::uint64_t seed, const std::string& workdir,
                         const std::vector<UploadFile>& files, SeedResult& result) {
  const std::string root = workdir + "/enospc";
  fs::remove_all(root);

  io::FaultConfig cfg;
  cfg.seed = util::derive_seed(seed, 0xE05);
  cfg.enospc_after_bytes = 1024;  // well under one file: the disk fills mid-upload
  io::install_faults(cfg);

  auto manager = std::make_unique<ingest::UploadManager>(
      ingest::UploadManager::Options{root, kStreamBudget});
  auto registry = std::make_unique<ingest::CollectionRegistry>(root);
  bool threw_typed = false;
  std::uint64_t tag = 100000;
  try {
    for (const UploadFile& file : files) upload_one(*manager, *registry, file, ++tag);
  } catch (const util::Error&) {
    threw_typed = true;  // the full disk surfaced as a typed error, not a crash
  }
  if (!threw_typed) return fail(result, "enospc never surfaced as a typed error");
  if (!manager->read_only())
    return fail(result, "enospc did not flip the upload manager to read-only");

  // Read-only mode rejects new work up front, before touching the disk.
  ingest::UploadRequest begin;
  begin.op = ingest::UploadOp::Begin;
  begin.session = "post-enospc";
  begin.collection = "chaos";
  begin.file_name = files[0].name;
  begin.total_bytes = files[0].bytes.size();
  begin.chunk_bytes = kChunkBytes;
  begin.file_crc = util::crc32(files[0].bytes);
  bool rejected = false;
  try {
    manager->handle(begin);
  } catch (const util::Error& e) {
    rejected = std::string(e.what()).find("read-only") != std::string::npos;
  }
  if (!rejected)
    return fail(result, "read-only mode did not reject BEGIN with a typed error");

  // The operator frees space and restarts: scrub + fresh manager must
  // recover to a fully serving, writable state.
  io::clear_faults();
  manager.reset();
  registry.reset();
  restart_ingest(root, manager, registry);
  if (manager->read_only())
    return fail(result, "read-only survived a restart with a healthy disk");
  for (const UploadFile& file : files)
    if (!published_ok(root, file)) upload_one(*manager, *registry, file, ++tag);
  manager.reset();
  registry.reset();
  if (!verify_collection(root, files, result, "enospc workload")) return false;
  result.temp_leaks += count_temps(root);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pmacx;
  util::Cli cli("pmacx_diskchaos",
                "seeded storage-fault sweep over checkpoint + ingest recovery");
  cli.add_u64("seeds", 8, "fault schedules to sweep");
  cli.add_u64("seed", 1, "root seed; round r uses derive_seed(seed, r)");
  cli.add_string("workdir", "diskchaos_work", "scratch directory for disk state");
  cli.add_string("json", "", "write the per-seed sweep report as JSON");
  cli.add_string("metrics-json", "",
                 "write a pmacx-metrics-v1 snapshot (io.*, ingest.scrub.*, "
                 "io.temp_leaks) to this file on exit");

  try {
    if (!cli.parse(argc, argv)) return 0;
    const std::uint64_t seeds = cli.get_u64("seeds");
    const std::uint64_t root_seed = cli.get_u64("seed");
    const std::string workdir = cli.get_string("workdir");
    PMACX_CHECK(seeds > 0, "--seeds must be positive");
    fs::create_directories(workdir);

    // Golden reference with no faults installed: the byte-identity oracle
    // and the upload payloads every seed must converge back to.
    const std::vector<trace::TaskTrace> series = build_series();
    const std::string golden = golden_bytes(core::fit_task_models(series, {}));
    std::vector<UploadFile> files;
    for (const trace::TaskTrace& task : series)
      files.push_back({"s" + std::to_string(task.core_count) + ".btrace",
                       trace::to_binary(task)});

    util::metrics::Counter& temp_leaks =
        util::metrics::Registry::global().counter("io.temp_leaks");
    const util::metrics::Counter& injected =
        util::metrics::Registry::global().counter("io.faults.injected");

    std::vector<SeedResult> results;
    std::uint64_t failures = 0;
    for (std::uint64_t round = 0; round < seeds; ++round) {
      SeedResult result;
      result.seed = util::derive_seed(root_seed, round);
      const std::string seed_dir = workdir + "/seed_" + std::to_string(round);
      fs::remove_all(seed_dir);
      fs::create_directories(seed_dir);
      try {
        const bool ok =
            run_checkpoint_workload(result.seed, seed_dir, series, golden, result) &&
            run_upload_workload(result.seed, seed_dir, files, result) &&
            run_enospc_workload(result.seed, seed_dir, files, result);
        (void)ok;  // each stage already recorded its own verdict
      } catch (const util::Error& e) {
        // Nothing in the sweep may throw once the disk is healthy; anything
        // that does is a recovery-path bug, attributed to this seed.
        fail(result, std::string("unexpected error after heal: ") + e.what());
      }
      io::clear_faults();
      temp_leaks.add(result.temp_leaks);
      if (!result.passed) ++failures;
      std::printf("pmacx_diskchaos: seed %llu (round %llu): %s — %llu restarts, "
                  "%llu io-errors absorbed, %llu temp leaks%s%s%s\n",
                  static_cast<unsigned long long>(result.seed),
                  static_cast<unsigned long long>(round),
                  result.passed ? "ok" : "FAIL",
                  static_cast<unsigned long long>(result.restarts),
                  static_cast<unsigned long long>(result.io_errors),
                  static_cast<unsigned long long>(result.temp_leaks),
                  result.healed ? ", healed clean" : "",
                  result.failure.empty() ? "" : ": ",
                  result.failure.c_str());
      results.push_back(std::move(result));
      fs::remove_all(seed_dir);  // keep the sweep's disk footprint bounded
    }

    const bool exercised = injected.value() > 0;
    const bool passed = failures == 0 && exercised;
    std::uint64_t restarts = 0, io_errors = 0, leaks = 0;
    for (const SeedResult& r : results) {
      restarts += r.restarts;
      io_errors += r.io_errors;
      leaks += r.temp_leaks;
    }
    std::printf("pmacx_diskchaos: %s — %llu seeds, %llu failures, %llu restarts, "
                "%llu io-errors absorbed, %llu faults injected, %llu temp leaks\n",
                passed ? "PASS" : "FAIL", static_cast<unsigned long long>(seeds),
                static_cast<unsigned long long>(failures),
                static_cast<unsigned long long>(restarts),
                static_cast<unsigned long long>(io_errors),
                static_cast<unsigned long long>(injected.value()),
                static_cast<unsigned long long>(leaks));
    if (!exercised)
      std::fprintf(stderr, "pmacx_diskchaos: no faults were injected — the sweep "
                           "proved nothing (injector wired out?)\n");

    if (!cli.get_string("json").empty()) {
      std::ofstream out(cli.get_string("json"));
      PMACX_CHECK(out.good(), "cannot write " + cli.get_string("json"));
      out << "{\n"
          << "  \"passed\": " << (passed ? "true" : "false") << ",\n"
          << "  \"seeds\": " << seeds << ",\n"
          << "  \"failures\": " << failures << ",\n"
          << "  \"restarts\": " << restarts << ",\n"
          << "  \"io_errors_absorbed\": " << io_errors << ",\n"
          << "  \"faults_injected\": " << injected.value() << ",\n"
          << "  \"temp_leaks\": " << leaks << ",\n"
          << "  \"per_seed\": [\n";
      for (std::size_t i = 0; i < results.size(); ++i) {
        const SeedResult& r = results[i];
        out << "    {\"seed\": " << r.seed << ", \"passed\": "
            << (r.passed ? "true" : "false") << ", \"restarts\": " << r.restarts
            << ", \"io_errors\": " << r.io_errors
            << ", \"temp_leaks\": " << r.temp_leaks << ", \"healed\": "
            << (r.healed ? "true" : "false") << ", \"failure\": \"" << r.failure
            << "\"}" << (i + 1 < results.size() ? "," : "") << "\n";
      }
      out << "  ]\n}\n";
    }
    if (!cli.get_string("metrics-json").empty()) {
      util::metrics::RunManifest manifest =
          util::metrics::RunManifest::for_tool("pmacx_diskchaos");
      manifest.config = cli.values();
      util::metrics::write_json(cli.get_string("metrics-json"), manifest,
                                util::metrics::Registry::global().snapshot());
    }
    return passed ? 0 : 1;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "pmacx_diskchaos: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pmacx_diskchaos: internal error: %s\n", e.what());
    return 1;
  }
}
