// In-memory span recorder for traced benchmark runs.
//
// A span covers one call the benchmark makes into a layer's public function:
// its name ("synth.collect_signature"), a label (what it was called on),
// start and end, the span that was open on the calling thread when it began
// (or an explicit parent for work handed to another thread), and a request
// id shared by the spans of one request.  Spans stay in memory and are
// written out once, when the run ends.  A disabled recorder records nothing.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pmacx::e2e {

class Spans {
 public:
  static constexpr std::int64_t kNoParent = -1;
  static constexpr std::int64_t kCurrent = -2;

  explicit Spans(bool enabled);

  class Scope {
   public:
    Scope(Spans& spans, std::string name, std::string label, std::uint64_t request,
          std::int64_t parent);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// This span's id (kNoParent when the recorder is disabled).
    std::int64_t id() const { return id_; }

   private:
    Spans& spans_;
    std::int64_t id_ = kNoParent;
    std::int64_t saved_current_ = kNoParent;
  };

  /// Opens a span that closes when the returned scope is destroyed.
  Scope span(std::string name, std::string label = "", std::uint64_t request = 0,
             std::int64_t parent = kCurrent) {
    return Scope(*this, std::move(name), std::move(label), request, parent);
  }

  bool enabled() const { return enabled_; }
  /// Writes every span as JSON (times in seconds from the recorder's start).
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::string label;
    std::int64_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Record> records_;
};

}  // namespace pmacx::e2e
