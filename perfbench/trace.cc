#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {
namespace {

thread_local uint64_t tls_current_span = 0;
thread_local uint64_t tls_current_request = 0;

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Record(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kCapacity) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(span);
}

bool Tracer::WriteTo(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& s : spans_) {
    std::fprintf(f, "%llu %llu %llu %s %lld %lld\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

Span::Span(const char* name, bool new_request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  saved_parent_ = tls_current_span;
  saved_request_ = tls_current_request;
  rec_.id = tracer.NextId();
  rec_.parent = saved_parent_;
  rec_.request = new_request ? rec_.id : saved_request_;
  rec_.name = name;
  tls_current_span = rec_.id;
  tls_current_request = rec_.request;
  rec_.start_ns = NowNs();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = NowNs();
  tls_current_span = saved_parent_;
  tls_current_request = saved_request_;
  Tracer::Get().Record(rec_);
}

}  // namespace perfbench
