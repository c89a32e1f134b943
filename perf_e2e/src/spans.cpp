#include "spans.hpp"

#include <cstdio>
#include <fstream>

#include "util/error.hpp"

namespace pmacx::e2e {
namespace {

/// The span open on this thread; children opened with kCurrent hang off it.
thread_local std::int64_t t_current = Spans::kNoParent;

std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out.push_back(c);
  }
  return out;
}

}  // namespace

Spans::Spans(bool enabled) : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

std::int64_t Spans::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

Spans::Scope::Scope(Spans& spans, std::string name, std::string label, std::uint64_t request,
                    std::int64_t parent)
    : spans_(spans) {
  if (!spans.enabled_) return;
  Record record;
  record.name = std::move(name);
  record.label = std::move(label);
  record.parent = parent == kCurrent ? t_current : parent;
  record.request = request;
  record.start_ns = spans.now_ns();
  {
    std::scoped_lock lock(spans.mutex_);
    id_ = static_cast<std::int64_t>(spans.records_.size());
    spans.records_.push_back(std::move(record));
  }
  saved_current_ = t_current;
  t_current = id_;
}

Spans::Scope::~Scope() {
  if (id_ == kNoParent) return;
  const std::int64_t end = spans_.now_ns();
  {
    std::scoped_lock lock(spans_.mutex_);
    spans_.records_[static_cast<std::size_t>(id_)].end_ns = end;
  }
  t_current = saved_current_;
}

void Spans::write(const std::string& path) const {
  std::ofstream out(path);
  PMACX_CHECK(out.good(), "cannot write spans to '" + path + "'");
  std::scoped_lock lock(mutex_);
  out << "[\n";
  char buffer[160];
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "\"id\": %zu, \"parent\": %lld, \"request\": %llu, \"start\": %.9f, "
                  "\"end\": %.9f",
                  i, static_cast<long long>(r.parent),
                  static_cast<unsigned long long>(r.request),
                  static_cast<double>(r.start_ns) * 1e-9, static_cast<double>(r.end_ns) * 1e-9);
    out << "  {\"name\": \"" << json_escape(r.name) << "\", \"label\": \""
        << json_escape(r.label) << "\", " << buffer << "}"
        << (i + 1 < records_.size() ? ",\n" : "\n");
  }
  out << "]\n";
}

}  // namespace pmacx::e2e
