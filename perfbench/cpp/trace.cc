#include "trace.h"

#include <cstdio>

#include "common.h"

namespace perfbench {

void Tracer::BeginRequest(uint64_t request_id) {
  if (!enabled_) return;
  request_ = request_id;
  request_begin_.push_back(spans_.size());
  stack_.clear();
}

int Tracer::Open(const std::string& name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size() - request_begin_.back());
  spans_.push_back({request_, id, current(), name, NowNs(), 0});
  stack_.push_back(id);
  return id;
}

void Tracer::Close(int span) {
  if (!enabled_ || span < 0) return;
  spans_[request_begin_.back() + static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close in LIFO order (ScopedSpan); tolerate an early Close of
  // an inner span by popping down to `span`.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

int Tracer::AddClosed(const std::string& name, int parent, int64_t start_ns,
                      int64_t end_ns) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size() - request_begin_.back());
  spans_.push_back({request_, id, parent, name, start_ns, end_ns});
  return id;
}

int64_t Tracer::start_of(int span) const {
  if (!enabled_ || span < 0) return 0;
  return spans_[request_begin_.back() + static_cast<size_t>(span)].start_ns;
}

std::map<std::string, std::vector<double>> Tracer::PerRequestUs(
    bool self_time) const {
  std::map<std::string, std::vector<double>> out;
  const size_t requests = request_begin_.size();
  for (size_t r = 0; r < requests; ++r) {
    const size_t begin = request_begin_[r];
    const size_t end =
        r + 1 < requests ? request_begin_[r + 1] : spans_.size();
    std::vector<double> ns(end - begin);
    for (size_t i = begin; i < end; ++i) {
      const double duration =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns);
      ns[i - begin] += duration;
      if (self_time && spans_[i].parent >= 0) {
        ns[static_cast<size_t>(spans_[i].parent)] -= duration;
      }
    }
    for (size_t i = begin; i < end; ++i) {
      std::vector<double>& values = out[spans_[i].name];
      values.resize(r + 1, 0.0);
      values[r] += ns[i - begin] / 1000.0;
    }
  }
  for (auto& [name, values] : out) values.resize(requests, 0.0);
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"request\": %llu, \"span\": %d, \"parent\": %d, "
                 "\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld}\n",
                 static_cast<unsigned long long>(s.request), s.id, s.parent,
                 s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
