#include "serve.hpp"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <sstream>
#include <thread>

#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

#ifndef PMACX_E2E_SERVE_BINARY
#error "PMACX_E2E_SERVE_BINARY must name the pmacx_serve binary"
#endif

namespace pmacx::e2e {
namespace {

constexpr char kBanner[] = "pmacx_serve listening on ";

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Waits up to `timeout_ms` for `pid` to exit; true when it was reaped.
bool reap(pid_t pid, int timeout_ms) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    int status = 0;
    const pid_t got = ::waitpid(pid, &status, WNOHANG);
    if (got == pid || got < 0) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

}  // namespace

ServerProcess::ServerProcess(const std::string& work_dir, std::size_t threads,
                             const std::string& metrics_json, const std::string& ingest_dir) {
  const std::string log = work_dir + "/serve." + std::to_string(::getpid()) + "." +
                          std::to_string(Clock::now().time_since_epoch().count()) + ".log";
  std::vector<std::string> args = {PMACX_E2E_SERVE_BINARY, "--port",        "0",
                                   "--threads",            std::to_string(threads),
                                   "--metrics-json",       metrics_json};
  if (!ingest_dir.empty()) {
    args.push_back("--ingest-dir");
    args.push_back(ingest_dir);
  }
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  PMACX_CHECK(pid_ >= 0, "fork failed");
  if (pid_ == 0) {
    // The server must not outlive a benchmark that dies without shutting
    // it down.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, STDOUT_FILENO);
      ::dup2(fd, STDERR_FILENO);
      ::close(fd);
    }
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }

  // The banner carries the ephemeral port; poll the log until it appears.
  const Clock::time_point start = Clock::now();
  for (;;) {
    const std::string text = read_file(log);
    const std::size_t at = text.find(kBanner);
    const std::size_t eol = at == std::string::npos ? at : text.find('\n', at);
    if (eol != std::string::npos) {
      const std::string bind = text.substr(at, eol - at);
      port_ = static_cast<std::uint16_t>(std::stoul(bind.substr(bind.rfind(':') + 1)));
      break;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw util::Error("pmacx_serve exited before listening: " + text);
    }
    PMACX_CHECK(seconds_since(start) < 30.0, "pmacx_serve did not print its banner in 30 s");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ::unlink(log.c_str());
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  reap(pid_, 10'000);
}

void ServerProcess::shutdown() {
  if (pid_ <= 0) return;
  try {
    auto client = connect(port_);
    service::Request request;
    request.type = service::MsgType::Shutdown;
    client->call(request);
  } catch (const util::Error&) {
    ::kill(pid_, SIGTERM);
  }
  if (!reap(pid_, 60'000)) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10'000);
    pid_ = -1;
    throw util::Error("pmacx_serve did not exit within 60 s of SHUTDOWN");
  }
  pid_ = -1;
}

void run_tool(const std::vector<std::string>& args, const std::string& log) {
  std::vector<char*> argv;
  for (const std::string& arg : args) argv.push_back(const_cast<char*>(arg.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  ::posix_spawn_file_actions_init(&actions);
  ::posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ::posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
  pid_t pid = -1;
  const int spawned = ::posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(), environ);
  ::posix_spawn_file_actions_destroy(&actions);
  PMACX_CHECK(spawned == 0, "cannot start " + args[0]);
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
    throw util::Error(args[0] + " failed: " + read_file(log));
  ::unlink(log.c_str());
}

std::unique_ptr<service::Client> connect(std::uint16_t port) {
  service::ClientOptions options;
  options.port = port;
  options.io_timeout_ms = 120'000;
  options.retry.max_attempts = 1;
  options.breaker.failure_threshold = 0;
  return std::make_unique<service::Client>(options);
}

service::Request predict_request(const std::vector<std::string>& traces, std::uint32_t target,
                                 const std::string& app, const std::string& machine) {
  service::Request request;
  request.type = service::MsgType::Predict;
  request.spec.trace_paths = traces;
  request.target_cores = target;
  request.app = app;
  request.machine_target = machine;
  return request;
}

service::Request interval_request(const std::vector<std::string>& traces,
                                  std::uint32_t target, double coverage) {
  service::Request request;
  request.type = service::MsgType::PredictInterval;
  request.spec.trace_paths = traces;
  request.target_cores = target;
  request.interval_coverage = coverage;
  return request;
}

service::Response call_counted(service::Client& client, const service::Request& request,
                               Ops& ops) {
  ++ops.attempted;
  service::Response response;
  try {
    response = client.call(request);
  } catch (const util::Error& e) {
    response.status = service::Status::Error;
    response.body = std::string("transport: ") + e.what();
    // The stream is undefined after a failed call; start a fresh one.
    try {
      client.reconnect();
    } catch (const util::Error&) {
    }
  }
  switch (response.status) {
    case service::Status::Ok: ++ops.ok; break;
    case service::Status::Busy: ++ops.busy; break;
    case service::Status::Error: ++ops.error; break;
  }
  return response;
}

std::uint64_t status_value(const std::string& body, const std::string& key) {
  for (const std::string& line : util::split(body, '\n')) {
    std::istringstream in(line);
    std::string name;
    std::uint64_t value = 0;
    if ((in >> name >> value) && name == key) return value;
  }
  return 0;
}

UploadResult upload_file(service::Client& client, const std::string& file,
                         const std::string& collection, std::uint32_t chunk_bytes, Ops& ops,
                         Spans& spans, std::uint64_t request_id) {
  UploadResult result;
  const std::string bytes = read_file(file);
  result.bytes = bytes.size();
  const std::string name = file.substr(file.find_last_of('/') + 1);

  service::Request request;
  request.type = service::MsgType::UploadTrace;
  ingest::UploadRequest& upload = request.upload;
  upload.session = collection + "-" + name;

  auto send = [&](const char* span_name) {
    auto span = spans.span(span_name, name, request_id);
    const service::Response response = call_counted(client, request, ops);
    if (response.status != service::Status::Ok && result.error.empty())
      result.error = std::string(span_name) + ": " + response.body;
    return response;
  };

  const Clock::time_point start = Clock::now();
  upload.op = ingest::UploadOp::Begin;
  upload.collection = collection;
  upload.file_name = name;
  upload.total_bytes = bytes.size();
  upload.chunk_bytes = chunk_bytes;
  upload.file_crc = util::crc32(bytes);
  send("ingest.begin");
  upload.op = ingest::UploadOp::Chunk;
  for (std::uint64_t offset = 0; offset < bytes.size() && result.error.empty();
       offset += chunk_bytes) {
    upload.chunk_index = offset / chunk_bytes;
    upload.data = bytes.substr(offset, chunk_bytes);
    send("ingest.chunk");
  }
  upload.data.clear();
  upload.op = ingest::UploadOp::Commit;
  const service::Response committed = result.error.empty() ? send("ingest.commit")
                                                           : service::Response{};
  result.seconds = seconds_since(start);
  for (const std::string& line : util::split(committed.body, '\n')) {
    if (line.rfind("state ", 0) == 0) result.ok = line == "state committed";
    if (line.rfind("path ", 0) == 0) result.path = line.substr(5);
  }
  if (!result.ok && result.error.empty()) result.error = "commit: " + committed.body;
  return result;
}

}  // namespace pmacx::e2e
