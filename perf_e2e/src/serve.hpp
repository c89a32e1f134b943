// Child processes (a pmacx_serve, the tools that make inputs) and the
// client calls the served workloads make against the server.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2e.hpp"
#include "ingest/upload.hpp"
#include "service/client.hpp"

namespace pmacx::e2e {

/// One spawned pmacx_serve on an ephemeral loopback port.  The destructor
/// kills and reaps a server that was not shut down.
class ServerProcess {
 public:
  /// Spawns the server with `threads` handler threads, writing its
  /// pmacx-metrics-v1 snapshot to `metrics_json` on exit, and waits for its
  /// listening banner.  `ingest_dir` empty disables ingestion.
  ServerProcess(const std::string& work_dir, std::size_t threads,
                const std::string& metrics_json, const std::string& ingest_dir = "");
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  std::uint16_t port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// Sends SHUTDOWN and waits for the process to exit (it writes its
  /// metrics snapshot on the way out).
  void shutdown();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Runs a tool to completion with its output in `log` (removed when the
/// tool succeeds); throws util::Error with the log when it exits non-zero.
void run_tool(const std::vector<std::string>& args, const std::string& log);

/// A client with retries switched off: a failed or refused call is a failed
/// operation, never silently re-sent.
std::unique_ptr<service::Client> connect(std::uint16_t port);

/// PREDICT over the given traces (or "@collection").
service::Request predict_request(const std::vector<std::string>& traces, std::uint32_t target,
                                 const std::string& app, const std::string& machine);
/// PREDICT_INTERVAL over the given traces.
service::Request interval_request(const std::vector<std::string>& traces,
                                  std::uint32_t target, double coverage);

/// Issues one call and counts it in `ops`; returns the response (a
/// transport failure becomes an Error response).
service::Response call_counted(service::Client& client, const service::Request& request,
                               Ops& ops);

/// Value of a "key value" line of a STATUS body (0 when absent).
std::uint64_t status_value(const std::string& body, const std::string& key);

/// Uploads one file through BEGIN, CHUNK… and COMMIT.  Returns the
/// committed path the server reported; fills the time spent in the calls.
struct UploadResult {
  bool ok = false;
  std::string path;
  std::string error;
  double seconds = 0.0;
  std::uint64_t bytes = 0;
};
UploadResult upload_file(service::Client& client, const std::string& file,
                         const std::string& collection, std::uint32_t chunk_bytes, Ops& ops,
                         Spans& spans, std::uint64_t request_id);

}  // namespace pmacx::e2e
