// Tracing for the benchmark's traced run: spans recorded around the
// benchmark's own calls into each layer, kept in memory, written out when
// the run ends. Nothing here reaches inside the engine; the storage layer
// is observed through a timing storage::Env decorator handed to the engine
// as DurabilityOptions.env.

#ifndef SHAREDDB_PERFBENCH_TRACE_H_
#define SHAREDDB_PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "storage/io.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One timed interval. `parent` is the span that caused it (0 = none);
/// `request_id` is the interaction id, statement request id or batch
/// number; `bytes` is set on WAL appends.
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request_id = 0;
  uint64_t bytes = 0;
};

/// Span names (one per recorded boundary).
inline constexpr const char* kSpanInteraction = "interaction";
inline constexpr const char* kSpanStatement = "statement";
inline constexpr const char* kSpanHeartbeat = "heartbeat";
inline constexpr const char* kSpanAppend = "env.append";
inline constexpr const char* kSpanFlush = "env.flush";
inline constexpr const char* kSpanSync = "env.sync";

/// Process-wide span store. Record() appends to a per-thread buffer without
/// locking; Collect() must run after the recording threads are joined or
/// quiesced.
class SpanLog {
 public:
  static SpanLog& Get();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Record(const Span& s);

  /// Every span recorded so far, all threads.
  std::vector<Span> Collect() const;

  /// Writes `spans` as CSV (id,parent,name,start_ns,end_ns,request_id,bytes).
  static bool WriteCsv(const std::string& path, const std::vector<Span>& spans);

 private:
  std::vector<Span>* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable shareddb::Mutex mu_{"perfbench.spans"};
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_
      SDB_GUARDED_BY(mu_);
};

/// The heartbeat span the calling thread is inside (parent of WAL spans).
void SetCurrentHeartbeatSpan(uint64_t id);

/// storage::Env decorator: delegates to `base` and records a span for every
/// Append, Flush and Sync of the files it opens while the SpanLog is on.
class TimingEnv : public shareddb::storage::Env {
 public:
  explicit TimingEnv(shareddb::storage::Env* base) : base_(base) {}

  shareddb::Status NewAppendableFile(
      const std::string& path, bool truncate,
      std::unique_ptr<shareddb::storage::File>* out) override;
  shareddb::Status ReadFileToString(const std::string& path,
                                    std::string* out) override {
    return base_->ReadFileToString(path, out);
  }
  bool FileExists(const std::string& path) const override {
    return base_->FileExists(path);
  }
  shareddb::Status RenameFile(const std::string& from,
                              const std::string& to) override {
    return base_->RenameFile(from, to);
  }
  shareddb::Status TruncateFile(const std::string& path,
                                uint64_t size) override {
    return base_->TruncateFile(path, size);
  }
  shareddb::Status RemoveFile(const std::string& path) override {
    return base_->RemoveFile(path);
  }
  uint64_t FileSize(const std::string& path) const override {
    return base_->FileSize(path);
  }

 private:
  shareddb::storage::Env* base_;
};

}  // namespace perfbench

#endif  // SHAREDDB_PERFBENCH_TRACE_H_
