#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

thread_local std::vector<Span>* t_buffer = nullptr;
thread_local uint64_t t_heartbeat_span = 0;

/// Times one File call and records it as a span under the current heartbeat.
template <typename Fn>
shareddb::Status Timed(const char* name, uint64_t bytes, Fn&& fn) {
  SpanLog& log = SpanLog::Get();
  if (!log.enabled()) return fn();
  Span s;
  s.name = name;
  s.parent = t_heartbeat_span;
  s.bytes = bytes;
  s.start_ns = NowNs();
  shareddb::Status st = fn();
  s.end_ns = NowNs();
  s.id = log.NextId();
  log.Record(s);
  return st;
}

class TimingFile : public shareddb::storage::File {
 public:
  explicit TimingFile(std::unique_ptr<shareddb::storage::File> base)
      : base_(std::move(base)) {}

  shareddb::Status Append(const void* data, size_t n) override {
    return Timed(kSpanAppend, n, [&] { return base_->Append(data, n); });
  }
  shareddb::Status Flush() override {
    return Timed(kSpanFlush, 0, [&] { return base_->Flush(); });
  }
  shareddb::Status Sync() override {
    return Timed(kSpanSync, 0, [&] { return base_->Sync(); });
  }
  shareddb::Status Close() override { return base_->Close(); }
  uint64_t Size() const override { return base_->Size(); }

 private:
  std::unique_ptr<shareddb::storage::File> base_;
};

}  // namespace

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

std::vector<Span>* SpanLog::ThreadBuffer() {
  if (t_buffer == nullptr) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 14);
    t_buffer = buf.get();
    shareddb::MutexLock lock(&mu_);
    buffers_.push_back(std::move(buf));
  }
  return t_buffer;
}

void SpanLog::Record(const Span& s) { ThreadBuffer()->push_back(s); }

std::vector<Span> SpanLog::Collect() const {
  shareddb::MutexLock lock(&mu_);
  std::vector<Span> all;
  for (const auto& buf : buffers_) all.insert(all.end(), buf->begin(), buf->end());
  return all;
}

bool SpanLog::WriteCsv(const std::string& path, const std::vector<Span>& spans) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id,parent,name,start_ns,end_ns,request_id,bytes\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu,%llu,%s,%lld,%lld,%llu,%llu\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.request_id),
                 static_cast<unsigned long long>(s.bytes));
  }
  return std::fclose(f) == 0;
}

void SetCurrentHeartbeatSpan(uint64_t id) { t_heartbeat_span = id; }

shareddb::Status TimingEnv::NewAppendableFile(
    const std::string& path, bool truncate,
    std::unique_ptr<shareddb::storage::File>* out) {
  std::unique_ptr<shareddb::storage::File> base;
  shareddb::Status s = base_->NewAppendableFile(path, truncate, &base);
  if (!s.ok()) return s;
  *out = std::make_unique<TimingFile>(std::move(base));
  return s;
}

}  // namespace perfbench
