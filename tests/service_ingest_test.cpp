// Live-ingestion end-to-end tests: the UPLOAD_TRACE protocol against a real
// in-process server (duplicates, reordering, resume, CRC rejection), the
// "@collection" pseudo-path on the data plane, the atomic model swap under
// concurrent load (zero lost or garbled responses), and the ModelStore
// insert/invalidation byte-accounting audit the swap path stands on, and
// the refit scheduler holding no published set past the cache.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/extrapolator.hpp"
#include "ingest/collection.hpp"
#include "ingest/refit.hpp"
#include "ingest/upload.hpp"
#include "service/client.hpp"
#include "service/model_store.hpp"
#include "service/server.hpp"
#include "trace/binary_io.hpp"
#include "trace/task_trace.hpp"
#include "util/crc32.hpp"
#include "util/metrics.hpp"
#include "util/threadpool.hpp"

namespace pmacx {
namespace {

using trace::BlockElement;
using trace::TaskTrace;

TaskTrace law_trace(double p) {
  TaskTrace task;
  task.app = "specfem3d";
  task.core_count = static_cast<std::uint32_t>(p);
  task.target_system = "bluewaters-p1";

  trace::BasicBlockRecord solve;
  solve.id = 1;
  solve.location = {"solver.c", 10, "solve"};
  solve.set(BlockElement::VisitCount, 42.0);
  solve.set(BlockElement::MemLoads, 1e10 / p);
  solve.set(BlockElement::MemStores, 4e9 / p);
  solve.set(BlockElement::BytesPerRef, 8.0);
  solve.set(BlockElement::HitRateL1, 0.4);
  solve.set(BlockElement::HitRateL2, 0.5 + 0.00004 * p);
  solve.set(BlockElement::HitRateL3, 0.95);
  solve.set(BlockElement::WorkingSetBytes, 4.6e9 / p);
  solve.set(BlockElement::Ilp, 3.5);
  solve.set(BlockElement::DepChainLength, 6.0);
  task.blocks.push_back(solve);

  trace::BasicBlockRecord reduce;
  reduce.id = 2;
  reduce.location = {"reduce.c", 2, "reduce"};
  reduce.set(BlockElement::VisitCount, 10.0);
  reduce.set(BlockElement::MemLoads, 4096.0 * (1.0 + std::log2(p)));
  reduce.set(BlockElement::BytesPerRef, 8.0);
  reduce.set(BlockElement::HitRateL1, 0.99);
  reduce.set(BlockElement::HitRateL2, 0.99);
  reduce.set(BlockElement::HitRateL3, 0.99);
  reduce.set(BlockElement::Ilp, 2.0);
  reduce.set(BlockElement::DepChainLength, 3.0);
  task.blocks.push_back(reduce);
  task.sort_blocks();
  return task;
}

/// Fresh ingest root per process so committed files from an earlier test
/// binary run cannot leak into this one's assertions.
std::string fresh_ingest_dir(const std::string& tag) {
  return testing::TempDir() + "ingest_" + tag + "_" + std::to_string(::getpid());
}

service::ServerOptions ingest_server_options(const std::string& tag) {
  service::ServerOptions options;
  options.port = 0;
  options.threads = 2;
  options.request_timeout_ms = 120'000;
  options.ingest_dir = fresh_ingest_dir(tag);
  return options;
}

service::ClientOptions client_for(const service::Server& server) {
  service::ClientOptions options;
  options.port = server.port();
  options.io_timeout_ms = 120'000;
  return options;
}

service::Response upload_op(service::Client& client, const ingest::UploadRequest& up) {
  service::Request request;
  request.type = service::MsgType::UploadTrace;
  request.upload = up;
  return client.call(request);
}

ingest::UploadRequest begin_request(const std::string& session, const std::string& bytes,
                                    const std::string& collection,
                                    const std::string& file_name,
                                    std::uint32_t chunk_bytes) {
  ingest::UploadRequest begin;
  begin.op = ingest::UploadOp::Begin;
  begin.session = session;
  begin.collection = collection;
  begin.file_name = file_name;
  begin.total_bytes = bytes.size();
  begin.chunk_bytes = chunk_bytes;
  begin.file_crc = util::crc32(bytes);
  return begin;
}

ingest::UploadRequest chunk_request(const std::string& session, const std::string& bytes,
                                    std::uint32_t chunk_bytes, std::uint64_t index) {
  ingest::UploadRequest chunk;
  chunk.op = ingest::UploadOp::Chunk;
  chunk.session = session;
  chunk.chunk_index = index;
  const std::size_t offset = static_cast<std::size_t>(index) * chunk_bytes;
  chunk.data = bytes.substr(offset, chunk_bytes);
  return chunk;
}

std::uint64_t chunk_count(const std::string& bytes, std::uint32_t chunk_bytes) {
  return (bytes.size() + chunk_bytes - 1) / chunk_bytes;
}

/// Uploads `task` start to finish; returns the COMMIT response body.
std::string upload_whole(service::Client& client, const TaskTrace& task,
                         const std::string& collection, const std::string& file_name,
                         const std::string& session, std::uint32_t chunk_bytes = 256) {
  const std::string bytes = trace::to_binary(task);
  service::Response response =
      upload_op(client, begin_request(session, bytes, collection, file_name, chunk_bytes));
  EXPECT_EQ(response.status, service::Status::Ok) << response.body;
  for (std::uint64_t i = 0; i < chunk_count(bytes, chunk_bytes); ++i) {
    response = upload_op(client, chunk_request(session, bytes, chunk_bytes, i));
    EXPECT_EQ(response.status, service::Status::Ok) << response.body;
  }
  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = session;
  response = upload_op(client, commit);
  EXPECT_EQ(response.status, service::Status::Ok) << response.body;
  EXPECT_NE(response.body.find("state committed"), std::string::npos) << response.body;
  return response.body;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// Extracts "path <p>" from a committed upload's response body.
std::string committed_path(const std::string& body) {
  const std::size_t at = body.find("path ");
  if (at == std::string::npos) return {};
  const std::size_t end = body.find('\n', at);
  return body.substr(at + 5, end - (at + 5));
}

std::uint64_t refits_completed() {
  return util::metrics::Registry::global().counter("ingest.refits").value();
}

/// Blocks until a background refit finishes after the counter read `before`.
void wait_for_refit_after(std::uint64_t before) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (refits_completed() <= before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the refit never finished";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

// --------------------------------------------------------------- protocol --

TEST(ServiceIngestTest, UploadThenCollectionRefAnswersLikeDirectPaths) {
  service::Server server(ingest_server_options("refpath"));
  server.start();
  service::Client client(client_for(server));

  const std::vector<double> cores = {16, 32, 64};
  std::vector<TaskTrace> inputs;
  for (const double p : cores) {
    const TaskTrace task = law_trace(p);
    inputs.push_back(task);
    upload_whole(client, task, "laws", "law" + std::to_string(static_cast<int>(p)) + ".btrace",
                 "s-refpath-" + std::to_string(static_cast<int>(p)));
  }

  service::Request request;
  request.type = service::MsgType::Extrapolate;
  request.spec.trace_paths = {"@laws"};
  request.target_cores = 256;
  const service::Response response = client.call(request);
  ASSERT_EQ(response.status, service::Status::Ok) << response.body;

  const core::ExtrapolationResult direct =
      core::extrapolate_task(inputs, 256, request.spec.to_options());
  EXPECT_EQ(response.body, trace::to_binary(direct.trace));

  // Upload order must not matter: a collection filled in descending order,
  // or in a seeded shuffle, answers after every commit exactly like a direct
  // extrapolation of the sorted inputs — with the answer coming from the
  // background refit's published set, not a request-time cold fit.
  std::vector<double> shuffled = {16, 32, 64, 128};
  std::mt19937_64 rng(17);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  const std::vector<std::pair<std::string, std::vector<double>>> orders = {
      {"laws_desc", {128, 64, 32, 16}}, {"laws_shuffled", shuffled}};
  for (const auto& [collection, order] : orders) {
    std::vector<TaskTrace> arrived;
    for (const double p : order) {
      SCOPED_TRACE(collection + " after the " + std::to_string(static_cast<int>(p)) +
                   "-core commit");
      const std::string name = std::to_string(static_cast<int>(p));
      const std::uint64_t refits_before = refits_completed();
      upload_whole(client, law_trace(p), collection, "law" + name + ".btrace",
                   "s-" + collection + "-" + name);
      arrived.push_back(law_trace(p));
      if (arrived.size() < 2) continue;  // one trace cannot anchor a fit
      wait_for_refit_after(refits_before);

      std::vector<TaskTrace> sorted = arrived;
      std::sort(sorted.begin(), sorted.end(), [](const TaskTrace& a, const TaskTrace& b) {
        return a.core_count < b.core_count;
      });
      request.spec.trace_paths = {"@" + collection};
      const service::Response answer = client.call(request);
      ASSERT_EQ(answer.status, service::Status::Ok) << answer.body;
      EXPECT_EQ(answer.body,
                trace::to_binary(
                    core::extrapolate_task(sorted, 256, request.spec.to_options()).trace));
    }
  }
}

TEST(ServiceIngestTest, OutOfOrderAndDuplicateChunksCommitTheExactBytes) {
  service::Server server(ingest_server_options("reorder"));
  server.start();
  service::Client client(client_for(server));

  const std::string bytes = trace::to_binary(law_trace(16));
  constexpr std::uint32_t kChunk = 97;  // deliberately unaligned
  const std::string session = "s-reorder";
  ASSERT_EQ(upload_op(client, begin_request(session, bytes, "reorder", "t.btrace", kChunk))
                .status,
            service::Status::Ok);

  // Chunks arrive backwards; every write is positioned, so order is noise.
  const std::uint64_t n = chunk_count(bytes, kChunk);
  for (std::uint64_t i = n; i-- > 0;) {
    ASSERT_EQ(upload_op(client, chunk_request(session, bytes, kChunk, i)).status,
              service::Status::Ok);
  }
  // A replayed chunk (the RPC retry path resends freely) is a flagged no-op.
  const service::Response dup =
      upload_op(client, chunk_request(session, bytes, kChunk, 0));
  ASSERT_EQ(dup.status, service::Status::Ok);
  EXPECT_NE(dup.body.find("duplicate 1"), std::string::npos) << dup.body;

  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = session;
  const service::Response committed = upload_op(client, commit);
  ASSERT_EQ(committed.status, service::Status::Ok) << committed.body;

  const std::string path = committed_path(committed.body);
  ASSERT_FALSE(path.empty()) << committed.body;
  EXPECT_EQ(read_file(path), bytes);

  // Every post-commit op is idempotent: a re-COMMIT (lost response) and a
  // replayed CHUNK both just re-report success.
  EXPECT_EQ(upload_op(client, commit).status, service::Status::Ok);
  EXPECT_EQ(upload_op(client, chunk_request(session, bytes, kChunk, 1)).status,
            service::Status::Ok);
}

TEST(ServiceIngestTest, StatusDrivenResumeSendsOnlyWhatIsMissing) {
  service::Server server(ingest_server_options("resume"));
  server.start();
  service::Client client(client_for(server));

  const std::string bytes = trace::to_binary(law_trace(32));
  constexpr std::uint32_t kChunk = 64;
  const std::string session = "s-resume";
  ASSERT_EQ(upload_op(client, begin_request(session, bytes, "resume", "t.btrace", kChunk))
                .status,
            service::Status::Ok);

  // First attempt "dies" after the even-indexed chunks.
  const std::uint64_t n = chunk_count(bytes, kChunk);
  for (std::uint64_t i = 0; i < n; i += 2)
    ASSERT_EQ(upload_op(client, chunk_request(session, bytes, kChunk, i)).status,
              service::Status::Ok);

  // A committed-too-early attempt is rejected but leaves the session alive.
  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = session;
  const service::Response premature = upload_op(client, commit);
  EXPECT_EQ(premature.status, service::Status::Error);
  EXPECT_NE(premature.body.find("missing"), std::string::npos) << premature.body;

  // STATUS names exactly the odd-indexed survivors' complements.
  ingest::UploadRequest status;
  status.op = ingest::UploadOp::Status;
  status.session = session;
  const service::Response progress = upload_op(client, status);
  ASSERT_EQ(progress.status, service::Status::Ok);
  std::vector<std::uint64_t> missing;
  const std::size_t at = progress.body.find("missing ");
  ASSERT_NE(at, std::string::npos) << progress.body;
  std::istringstream in(progress.body.substr(at + 8));
  std::uint64_t index = 0;
  while (in >> index) missing.push_back(index);
  for (const std::uint64_t i : missing) {
    EXPECT_EQ(i % 2, 1u) << "chunk " << i << " was already sent";
    ASSERT_EQ(upload_op(client, chunk_request(session, bytes, kChunk, i)).status,
              service::Status::Ok);
  }

  const service::Response committed = upload_op(client, commit);
  ASSERT_EQ(committed.status, service::Status::Ok) << committed.body;
  EXPECT_EQ(read_file(committed_path(committed.body)), bytes);
}

TEST(ServiceIngestTest, CrcMismatchDiscardsTheUploadForAFreshStart) {
  service::Server server(ingest_server_options("badcrc"));
  server.start();
  service::Client client(client_for(server));

  const std::string bytes = trace::to_binary(law_trace(64));
  constexpr std::uint32_t kChunk = 128;
  const std::string session = "s-badcrc";
  ingest::UploadRequest begin = begin_request(session, bytes, "badcrc", "t.btrace", kChunk);
  begin.file_crc ^= 1;  // lies about the content
  ASSERT_EQ(upload_op(client, begin).status, service::Status::Ok);
  for (std::uint64_t i = 0; i < chunk_count(bytes, kChunk); ++i)
    ASSERT_EQ(upload_op(client, chunk_request(session, bytes, kChunk, i)).status,
              service::Status::Ok);

  ingest::UploadRequest commit;
  commit.op = ingest::UploadOp::Commit;
  commit.session = session;
  const service::Response rejected = upload_op(client, commit);
  EXPECT_EQ(rejected.status, service::Status::Error);
  EXPECT_NE(rejected.body.find("CRC mismatch"), std::string::npos) << rejected.body;

  // The session (and its spool) are gone — a commit that can never succeed
  // must not be retried into place.
  ingest::UploadRequest status;
  status.op = ingest::UploadOp::Status;
  status.session = session;
  const service::Response after = upload_op(client, status);
  ASSERT_EQ(after.status, service::Status::Ok);
  EXPECT_NE(after.body.find("state absent"), std::string::npos) << after.body;

  // A truthful re-BEGIN starts clean and succeeds.
  upload_whole(client, law_trace(64), "badcrc", "t.btrace", session, kChunk);
}

TEST(ServiceIngestTest, IngestionDisabledAndUnknownCollectionsAreCleanErrors) {
  service::ServerOptions plain;
  plain.port = 0;
  plain.threads = 2;
  plain.request_timeout_ms = 120'000;
  service::Server server(plain);  // no --ingest-dir
  server.start();
  service::Client client(client_for(server));

  ingest::UploadRequest status;
  status.op = ingest::UploadOp::Status;
  status.session = "nope";
  const service::Response upload = upload_op(client, status);
  EXPECT_EQ(upload.status, service::Status::Error);
  EXPECT_NE(upload.body.find("--ingest-dir"), std::string::npos) << upload.body;

  service::Request request;
  request.type = service::MsgType::Extrapolate;
  request.spec.trace_paths = {"@nosuch"};
  request.target_cores = 256;
  const service::Response expand = client.call(request);
  EXPECT_EQ(expand.status, service::Status::Error);

  // And with ingestion on, an unknown collection still names the problem.
  service::Server ingesting(ingest_server_options("unknowncoll"));
  ingesting.start();
  service::Client client2(client_for(ingesting));
  const service::Response unknown = client2.call(request);
  EXPECT_EQ(unknown.status, service::Status::Error);
  EXPECT_NE(unknown.body.find("nosuch"), std::string::npos) << unknown.body;
}

// -------------------------------------------------------------- live swap --

TEST(ServiceIngestTest, LiveUploadUnderLoadLosesNoRequests) {
  service::Server server(ingest_server_options("swap"));
  server.start();

  const std::vector<double> initial = {16, 32, 64};
  std::vector<TaskTrace> before;
  {
    service::Client client(client_for(server));
    for (const double p : initial) {
      const TaskTrace task = law_trace(p);
      before.push_back(task);
      upload_whole(client, task, "laws", "law" + std::to_string(static_cast<int>(p)) + ".btrace",
                   "s-swap-" + std::to_string(static_cast<int>(p)));
    }
  }
  std::vector<TaskTrace> after = before;
  after.push_back(law_trace(128));

  service::Request query;
  query.type = service::MsgType::Extrapolate;
  query.spec.trace_paths = {"@laws"};
  query.target_cores = 512;
  const std::string bytes_before =
      trace::to_binary(core::extrapolate_task(before, 512, query.spec.to_options()).trace);
  const std::string bytes_after =
      trace::to_binary(core::extrapolate_task(after, 512, query.spec.to_options()).trace);
  ASSERT_NE(bytes_before, bytes_after);

  // Hammer the collection from several clients while the fourth trace lands.
  constexpr int kThreads = 4, kRequestsPerThread = 8;
  std::atomic<int> bad{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      service::Client client(client_for(server));
      for (int i = 0; i < kRequestsPerThread; ++i) {
        const service::Response response = client.call_with_retry(query);
        // Zero lost responses, zero garbled payloads: every answer is OK
        // and byte-identical to the pre-swap or post-swap reference.
        if (response.status != service::Status::Ok ||
            (response.body != bytes_before && response.body != bytes_after)) {
          ++bad;
        }
      }
    });
  }

  {
    service::Client client(client_for(server));
    upload_whole(client, law_trace(128), "laws", "law128.btrace", "s-swap-128",
                 /*chunk_bytes=*/64);  // small chunks: the swap lands mid-load
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(bad.load(), 0);

  // Once the upload committed, new requests see the extended collection.
  service::Client client(client_for(server));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    const service::Response response = client.call(query);
    ASSERT_EQ(response.status, service::Status::Ok) << response.body;
    if (response.body == bytes_after) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "collection never served the post-upload model set";
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
}

// ----------------------------------------------------- refit retention --

TEST(RefitSchedulerTest, PublishedSetsDieWithTheirLastOutsideReference) {
  const std::string root = fresh_ingest_dir("retain");
  ingest::CollectionRegistry registry(root);
  // Distinct core counts per collection give distinct content digests.
  const std::vector<std::pair<std::string, std::vector<double>>> collections = {
      {"alpha", {16, 32, 64}}, {"beta", {32, 64, 128}}};
  for (const auto& [collection, cores] : collections) {
    std::filesystem::create_directories(root + "/collections/" + collection);
    for (const double p : cores) {
      const std::string file = "law" + std::to_string(static_cast<int>(p)) + ".btrace";
      std::ofstream(root + "/collections/" + collection + "/" + file, std::ios::binary)
          << trace::to_binary(law_trace(p));
      registry.add(collection, file, static_cast<std::uint32_t>(p));
    }
  }

  // Stand-in for the serving cache: the hook's owner holds the only strong
  // references, and the test watches each published set through a weak one.
  std::mutex mutex;
  std::map<std::string, std::shared_ptr<const core::TaskModelSet>> cache;
  std::vector<std::weak_ptr<const core::TaskModelSet>> published;
  auto pool = std::make_unique<util::ThreadPool>(2);
  ingest::RefitScheduler scheduler(
      {}, &registry, pool.get(),
      [&](const std::string& digest, std::shared_ptr<const core::TaskModelSet> models) {
        std::scoped_lock lock(mutex);
        published.push_back(models);
        cache[digest] = std::move(models);
      });

  const std::uint64_t before = refits_completed();
  scheduler.schedule("alpha");
  scheduler.schedule("beta");
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (refits_completed() < before + 2) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "the refits never finished";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pool.reset();  // drain: every refit task has returned

  std::scoped_lock lock(mutex);
  ASSERT_EQ(published.size(), 2u);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  for (const std::weak_ptr<const core::TaskModelSet>& set : published)
    EXPECT_TRUE(set.expired()) << "the scheduler still holds a published model set";
}

// -------------------------------------------- ModelStore swap accounting --

std::uint64_t invalidations() {
  return util::metrics::Registry::global().counter("service.cache.invalidations").value();
}

TEST(ServiceIngestTest, LruCacheInsertReplacesWithoutLeakingAccountedBytes) {
  service::LruCache<std::string> cache(
      1024, [](const std::string& value) { return value.size(); });
  cache.get_or_load("k", [] { return std::make_shared<const std::string>(100, 'a'); });
  EXPECT_EQ(cache.bytes(), 100u);

  const std::uint64_t before = invalidations();
  cache.insert("k", std::make_shared<const std::string>(40, 'b'));
  // Replacement must swap the accounted cost, not stack it — a leak here
  // shrinks the effective cache budget a little on every background refit.
  EXPECT_EQ(cache.bytes(), 40u);
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(invalidations(), before + 1);

  // The replacement is immediately served.
  const auto got =
      cache.get_or_load("k", [] { return std::make_shared<const std::string>("wrong"); });
  EXPECT_EQ(*got, std::string(40, 'b'));

  // Inserting a brand-new key is not an invalidation.
  const std::uint64_t mid = invalidations();
  cache.insert("fresh", std::make_shared<const std::string>(10, 'c'));
  EXPECT_EQ(invalidations(), mid);
  EXPECT_EQ(cache.bytes(), 50u);

  // Repeated replacement stays fixed-point: no drift in either direction.
  for (int i = 0; i < 5; ++i)
    cache.insert("k", std::make_shared<const std::string>(40, 'd'));
  EXPECT_EQ(cache.bytes(), 50u);
  EXPECT_EQ(cache.entries(), 2u);
}

TEST(ServiceIngestTest, LruCacheInsertEvictsWhenOverBudget) {
  service::LruCache<std::string> cache(
      100, [](const std::string& value) { return value.size(); });
  cache.get_or_load("old", [] { return std::make_shared<const std::string>(60, 'a'); });
  cache.insert("new", std::make_shared<const std::string>(80, 'b'));
  // The insert itself respects the byte budget: "old" was evicted.
  EXPECT_EQ(cache.entries(), 1u);
  EXPECT_EQ(cache.bytes(), 80u);
}

TEST(ServiceIngestTest, ModelStoreInsertModelsServesTheNewSetAtomically) {
  service::ModelStore store(16u << 20);
  const std::vector<double> cores = {16, 32, 64};
  std::vector<TaskTrace> inputs;
  std::vector<std::string> paths;
  for (const double p : cores) {
    const TaskTrace task = law_trace(p);
    inputs.push_back(task);
    const std::string path = testing::TempDir() + "ingest_store_" +
                             std::to_string(static_cast<int>(p)) + "_" +
                             std::to_string(::getpid()) + ".btrace";
    trace::save_binary(task, path);
    paths.push_back(path);
  }
  core::ExtrapolationOptions options;
  options.threads = 1;

  // A background refit publishes under the workload's content address; a
  // later request for the same (traces, options) must be answered by the
  // published pointer — no second fit.
  auto fitted = std::make_shared<const core::TaskModelSet>(
      core::fit_task_models(inputs, options));
  store.insert_models(store.digest(paths, options), fitted);

  const service::ModelStore::ModelsResult got = store.models_for(paths, options);
  EXPECT_EQ(got.models.get(), fitted.get());
}

}  // namespace
}  // namespace pmacx
