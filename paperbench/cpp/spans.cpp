#include "spans.h"

#include <cstdio>
#include <stdexcept>

namespace paperbench {

namespace {
// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::int64_t> t_open;
}  // namespace

SpanStore::SpanStore(bool enabled)
    : enabled_(enabled), t0_(std::chrono::steady_clock::now()) {}

double SpanStore::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
      .count();
}

std::int64_t SpanStore::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void SpanStore::add(Span span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

void SpanStore::set_root(std::int64_t id) {
  std::lock_guard<std::mutex> lock(mu_);
  root_ = id;
}

std::int64_t SpanStore::root() const {
  std::lock_guard<std::mutex> lock(mu_);
  return root_;
}

std::vector<Span> SpanStore::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

double SpanStore::total_seconds(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::size_t SpanStore::count(const std::string& name) const {
  return durations(name).size();
}

std::vector<double> SpanStore::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(s.seconds());
  }
  return out;
}

void SpanStore::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw std::runtime_error("cannot write spans to " + path);
  for (const Span& s : spans()) {
    std::fprintf(f,
                 "{\"id\":%lld,\"parent\":%lld,\"name\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f}\n",
                 static_cast<long long>(s.id),
                 static_cast<long long>(s.parent), s.name.c_str(),
                 s.start_s * 1e6, s.end_s * 1e6);
  }
  const bool failed = std::ferror(f) != 0;
  if (std::fclose(f) != 0 || failed) {
    throw std::runtime_error("failed writing spans to " + path);
  }
}

ScopedSpan::ScopedSpan(SpanStore& store, std::string name) : store_(store) {
  if (!store_.enabled()) return;
  span_.id = store_.next_id();
  span_.parent = t_open.empty() ? store_.root() : t_open.back();
  span_.name = std::move(name);
  t_open.push_back(span_.id);
  span_.start_s = store_.now();
}

ScopedSpan::~ScopedSpan() {
  if (!store_.enabled()) return;
  span_.end_s = store_.now();
  t_open.pop_back();
  store_.add(std::move(span_));
}

}  // namespace paperbench
