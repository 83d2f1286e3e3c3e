// tpcw_bench: one workload of the real-time TPC-W benchmark, in one process.
//
// Sets up a live server over freshly generated TPC-W data (group-commit WAL
// in --work-dir), drives open-loop load at a light and a peak rate, then
// bisects a geometric rate ladder for the highest rate that meets the
// latency limit, checks the answers, and prints one JSON object with every
// metric. With --trace 1 it instead runs the fixed rates with the server
// paused and heartbeats driven (and timed) by a benchmark thread, records
// spans, and reports the per-layer metrics. run.py builds and drives this
// binary; NOTES.md explains the workloads and metrics.

#include <sched.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/server.h"
#include "baseline/profiles.h"
#include "core/engine.h"
#include "generator.h"
#include "net/client.h"
#include "net/server.h"
#include "storage/wal.h"
#include "testing/canonical.h"
#include "tpcw/global_plan.h"
#include "tpcw/harness.h"
#include "tpcw/statements.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace shareddb;

// --- configuration -------------------------------------------------------------

struct Config {
  std::string workload;
  uint64_t seed = 1;
  bool trace = false;
  bool tcp = true;
  std::string mix = "browsing";  // browsing | ordering | lookup
  tpcw::TpcwScale scale;
  double light_rate = 200, peak_rate = 2000;
  double light_s = 5, peak_s = 5, ladder_s = 5;
  double ladder_base = 1000;
  double limit_ms = 100;
  int setup_reps = 3;
  bool wal_replay_check = false;
  std::string work_dir = ".";
};

// Fixed benchmark constants (the same for every workload).
constexpr int kClients = 2;            // TCP connections / in-process sessions
constexpr double kWarmupS = 1;         // at the light rate, before measuring
constexpr double kLadderRatio = 1.1;   // the geometric rate ladder base * 1.1^i
constexpr int kLadderPoints = 15;      // i < 15: the bisection makes 4 probes
constexpr int kLadderProbes = 4;
constexpr double kDrainMs = 1000;      // a step's backlog must clear this fast
constexpr double kMaxLagMs = 5;        // generator lag p99 a fixed phase allows
constexpr int kCheckSamples = 200;     // reads compared against the baseline

[[noreturn]] void Die(const std::string& msg) {
  std::fprintf(stderr, "tpcw_bench: %s\n", msg.c_str());
  std::exit(2);
}

Config ParseArgs(int argc, char** argv) {
  Config c;
  std::map<std::string, std::string> kv;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) Die(std::string("bad flag ") + argv[i]);
    kv[argv[i] + 2] = argv[i + 1];
  }
  if (argc % 2 == 0) Die("flags come in --name value pairs");
  std::set<std::string> used;
  auto get = [&](const char* k) -> const std::string* {
    used.insert(k);
    auto it = kv.find(k);
    return it == kv.end() ? nullptr : &it->second;
  };
  auto num = [&](const char* k, double* out) {
    if (const std::string* v = get(k)) *out = std::atof(v->c_str());
  };
  auto integer = [&](const char* k, int* out) {
    if (const std::string* v = get(k)) *out = std::atoi(v->c_str());
  };
  if (const std::string* v = get("workload")) c.workload = *v;
  if (const std::string* v = get("seed")) c.seed = std::strtoull(v->c_str(), nullptr, 10);
  if (const std::string* v = get("trace")) c.trace = *v == "1";
  if (const std::string* v = get("transport")) c.tcp = *v == "tcp";
  if (const std::string* v = get("mix")) c.mix = *v;
  if (const std::string* v = get("work-dir")) c.work_dir = *v;
  if (const std::string* v = get("wal-replay-check")) c.wal_replay_check = *v == "1";
  integer("items", &c.scale.num_items);
  integer("ebs", &c.scale.num_ebs);
  integer("setup-reps", &c.setup_reps);
  num("light-rate", &c.light_rate);
  num("peak-rate", &c.peak_rate);
  num("light-s", &c.light_s);
  num("peak-s", &c.peak_s);
  num("ladder-s", &c.ladder_s);
  num("ladder-base", &c.ladder_base);
  num("limit-ms", &c.limit_ms);
  for (const auto& [k, v] : kv) {
    if (used.count(k) == 0) Die("unknown flag --" + k);
  }
  if (c.workload.empty()) Die("--workload is required");
  if (c.mix != "browsing" && c.mix != "ordering" && c.mix != "lookup") {
    Die("unknown --mix " + c.mix);
  }
  return c;
}

// --- small helpers ---------------------------------------------------------------

/// The core the load generator is pinned to: the last one (-1 on a
/// single-core host, where nothing is pinned).
int GeneratorCore() {
  const int n = static_cast<int>(std::thread::hardware_concurrency());
  return n >= 2 ? n - 1 : -1;
}

double ProcessCpuSeconds() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_utime.tv_sec + ru.ru_utime.tv_usec / 1e6 + ru.ru_stime.tv_sec +
         ru.ru_stime.tv_usec / 1e6;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux
}

/// Nearest-rank percentile (p in [0, 1]); 0 for an empty sample.
double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  k = std::min(std::max<size_t>(k, 1), v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<ptrdiff_t>(k), v.end());
  return v[k];
}

double Median(std::vector<double> v) { return Pct(std::move(v), 0.5); }

double Ratio(double a, double b) { return b > 0 ? a / b : 0; }

uint64_t MixSeed(uint64_t seed, const std::string& tag) {
  uint64_t h = seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL;
  for (char ch : tag) h = (h ^ static_cast<uint8_t>(ch)) * 0x100000001b3ULL;
  return h;
}

std::string FsType(const std::string& dir) {
  struct statfs s;
  if (statfs(dir.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0xEF53: return "ext4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(s.f_type));
      return buf;
    }
  }
}

/// Metric sink: ordered, with units and sample counts; printed as JSON.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           uint64_t n = 0) {
    if (!std::isfinite(value)) value = 1e12;  // a failed call's latency
    metrics_.push_back({name, value, unit, n});
  }
  void Meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, value);
  }
  void Check(const std::string& name, bool ok, const std::string& detail) {
    checks_.push_back({name, ok, detail});
    if (!ok) correct_ = false;
    std::fprintf(stderr, "check %-28s %s %s\n", name.c_str(), ok ? "ok  " : "FAIL",
                 detail.c_str());
  }
  bool correct() const { return correct_; }

  void Print(uint64_t attempted, uint64_t failed) const {
    std::string out = "{\"correct\": ";
    out += correct_ ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const M& m = metrics_[i];
      char num[64];
      std::snprintf(num, sizeof(num), "%.17g", m.value);
      out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + num +
             ", \"unit\": \"" + m.unit + "\", \"n\": " + std::to_string(m.n) + "}";
    }
    out += "}, \"meta\": {";
    for (size_t i = 0; i < meta_.size(); ++i) {
      out += (i ? ", \"" : "\"") + meta_[i].first + "\": \"" + Escape(meta_[i].second) +
             "\"";
    }
    out += "}, \"checks\": [";
    for (size_t i = 0; i < checks_.size(); ++i) {
      out += (i ? ", " : "") + std::string("{\"name\": \"") + checks_[i].name +
             "\", \"ok\": " + (checks_[i].ok ? "true" : "false") +
             ", \"detail\": \"" + Escape(checks_[i].detail) + "\"}";
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    std::fflush(stdout);
  }

 private:
  static std::string Escape(const std::string& s) {
    std::string o;
    for (char ch : s) {
      if (ch == '"' || ch == '\\') o += '\\';
      o += (ch == '\n' || ch == '\t') ? ' ' : ch;
    }
    return o;
  }
  struct M {
    std::string name;
    double value;
    std::string unit;
    uint64_t n;
  };
  struct C {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<M> metrics_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<C> checks_;
  bool correct_ = true;
};

// --- the server under test -------------------------------------------------------

/// Statement names each workload sends (PREPAREd on every connection).
std::vector<std::string> StatementNames(const Catalog& catalog, bool queries,
                                        bool dml) {
  std::vector<std::string> names;
  for (const tpcw::TpcwStatementDef& d : tpcw::BuildTpcwStatements(catalog)) {
    const bool is_query = d.kind == tpcw::TpcwStatementDef::Kind::kQuery;
    if ((is_query && queries) || (!is_query && dml)) names.push_back(d.name);
  }
  return names;
}

struct Sut {
  std::unique_ptr<tpcw::TpcwDatabase> db;
  std::unique_ptr<TimingEnv> env;
  std::unique_ptr<Engine> engine;
  std::unique_ptr<api::Server> api;
  std::unique_ptr<net::Server> net;
  std::vector<std::unique_ptr<WireConn>> conns;
  std::string wal_path;
  double datagen_s = 0, plan_build_s = 0, net_start_s = 0, setup_s = 0;

  /// Closes the load connections and stops the front door and the heartbeat.
  void Stop() {
    conns.clear();
    if (net) net->Shutdown();
    if (api) api->Shutdown();
  }
};

std::unique_ptr<Sut> SetUp(const Config& cfg, int rep) {
  auto sut = std::make_unique<Sut>();
  sut->wal_path = cfg.work_dir + "/" + cfg.workload + "-" + std::to_string(rep) + ".wal";
  const int64_t t0 = NowNs();
  sut->db = tpcw::MakeTpcwDatabase(cfg.scale, cfg.seed);
  const int64_t t1 = NowNs();
  std::unique_ptr<GlobalPlan> plan = tpcw::BuildTpcwGlobalPlan(&sut->db->catalog);
  const int64_t t2 = NowNs();
  EngineOptions eo;
  eo.durability.mode = DurabilityMode::kGroupCommit;
  eo.durability.wal_path = sut->wal_path;
  if (cfg.trace) {
    sut->env = std::make_unique<TimingEnv>(storage::Env::Posix());
    eo.durability.env = sut->env.get();
  }
  sut->engine = std::make_unique<Engine>(std::move(plan), eo);
  if (!sut->engine->wal_status().ok()) {
    Die("WAL open failed: " + sut->engine->wal_status().ToString());
  }
  api::ServerOptions so;
  so.start_paused = cfg.trace;
  sut->api = std::make_unique<api::Server>(sut->engine.get(), so);
  if (cfg.tcp) {
    const int64_t n0 = NowNs();
    sut->net = std::make_unique<net::Server>(sut->api.get());
    const Status s = sut->net->Start();
    if (!s.ok()) Die("net::Server::Start: " + s.ToString());
    sut->net_start_s = (NowNs() - n0) / 1e9;
    const std::vector<std::string> names =
        StatementNames(sut->db->catalog, true, true);
    for (int i = 0; i < kClients; ++i) {
      auto c = std::make_unique<WireConn>();
      const Status cs = c->Connect(sut->net->port(), names);
      if (!cs.ok()) Die("connect: " + cs.ToString());
      sut->conns.push_back(std::move(c));
    }
  }
  const int64_t t3 = NowNs();
  sut->datagen_s = (t1 - t0) / 1e9;
  sut->plan_build_s = (t2 - t1) / 1e9;
  sut->setup_s = (t3 - t0) / 1e9;
  return sut;
}

// --- schedules ---------------------------------------------------------------------

tpcw::Mix MixOf(const std::string& mix) {
  return mix == "ordering" ? tpcw::Mix::kOrdering : tpcw::Mix::kBrowsing;
}

/// One arrival's statements; a lookup also sets the key it must answer.
std::vector<tpcw::StatementCall> DrawCalls(const Config& cfg, tpcw::IdAllocator* ids,
                                           Rng* rng, int64_t* expect_key) {
  if (cfg.mix == "lookup") {
    static const char* kLookups[] = {"item_by_id", "product_detail", "customer_by_id"};
    const int64_t kind = rng->Uniform(0, 2);
    const int64_t hi = kind == 2 ? cfg.scale.NumCustomers() : cfg.scale.num_items;
    *expect_key = rng->Uniform(0, hi - 1);
    return {{kLookups[kind], {Value::Int(*expect_key)}}};
  }
  const tpcw::WebInteraction wi = tpcw::SampleInteraction(MixOf(cfg.mix), rng);
  tpcw::EbState eb;  // fresh browser state per arrival
  eb.customer_id = rng->Uniform(0, cfg.scale.NumCustomers() - 1);
  return tpcw::BuildInteraction(wi, cfg.scale, &eb, ids, rng);
}

/// The arrivals of one phase: Poisson at `rate` for `seconds`, every input
/// drawn from `rng` (same seed and phase -> same inputs).
std::vector<Arrival> MakeSchedule(const Config& cfg, tpcw::IdAllocator* ids,
                                  double rate, double seconds, Rng* rng,
                                  uint64_t* next_id) {
  std::vector<Arrival> out;
  double t = 0;
  for (;;) {
    t += rng->Exponential(1.0 / rate);
    if (t >= seconds) break;
    Arrival a;
    a.due_ns = static_cast<int64_t>(t * 1e9);
    a.id = (*next_id)++;
    a.calls = DrawCalls(cfg, ids, rng, &a.expect_key);
    // Request ids carry the statement index in 6 bits.
    if (a.calls.empty() || a.calls.size() >= 64) continue;
    out.push_back(std::move(a));
  }
  return out;
}

// --- traced heartbeats -------------------------------------------------------------

/// One StepBatch heartbeat as the benchmark thread saw it.
struct HbRecord {
  int64_t start_ns = 0, end_ns = 0;
  double exec_ms = 0;
  uint64_t admitted = 0, rows_touched = 0, rows_delivered = 0, saved = 0,
           missing = 0;
  WorkStats total;
  std::vector<uint64_t> kind_work;  // WorkStats::Total() per operator kind
};

/// Drives the paused server's heartbeats from a benchmark thread and times
/// each one (the traced run's view of the core layer).
class Stepper {
 public:
  explicit Stepper(api::Server* server) : server_(server) {
    const GlobalPlan& plan = server->engine()->plan();
    for (size_t i = 0; i < plan.num_nodes(); ++i) {
      const std::string k = plan.node(i).op->kind_name();
      auto it = std::find(kinds_.begin(), kinds_.end(), k);
      node_kind_.push_back(static_cast<size_t>(it - kinds_.begin()));
      if (it == kinds_.end()) kinds_.push_back(k);
    }
  }
  ~Stepper() { Stop(); }

  const std::vector<std::string>& kinds() const { return kinds_; }

  void Start() {
    stop_ = false;
    thread_ = std::thread([this] { Loop(); });
  }
  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  std::vector<HbRecord> Take(int64_t from, int64_t to) {
    MutexLock lock(&mu_);
    std::vector<HbRecord> out;
    for (const HbRecord& r : records_) {
      if (r.start_ns >= from && r.start_ns <= to) out.push_back(r);
    }
    return out;
  }

 private:
  void Loop() {
    Engine* engine = server_->engine();
    while (!stop_.load(std::memory_order_relaxed)) {
      if (engine->PendingCount() == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(20));
        continue;
      }
      SpanLog& log = SpanLog::Get();
      const uint64_t span_id = log.NextId();
      SetCurrentHeartbeatSpan(span_id);
      HbRecord r;
      r.start_ns = NowNs();
      const BatchReport rep = server_->StepBatch();
      r.end_ns = NowNs();
      SetCurrentHeartbeatSpan(0);
      if (log.enabled()) {
        Span s;
        s.id = span_id;
        s.name = kSpanHeartbeat;
        s.start_ns = r.start_ns;
        s.end_ns = r.end_ns;
        s.request_id = rep.batch_number;
        log.Record(s);
      }
      r.exec_ms = rep.exec_ms;
      r.admitted = rep.num_admitted;
      r.rows_touched = rep.rows_touched;
      r.rows_delivered = rep.rows_delivered;
      r.saved = rep.shared_work_saved;
      r.missing = rep.missing_root_outputs;
      r.kind_work.assign(kinds_.size(), 0);
      for (size_t n = 0; n < rep.node_stats.size() && n < node_kind_.size(); ++n) {
        r.total.Add(rep.node_stats[n]);
        r.kind_work[node_kind_[n]] += rep.node_stats[n].Total();
      }
      MutexLock lock(&mu_);
      records_.push_back(std::move(r));
    }
  }

  api::Server* server_;
  std::vector<std::string> kinds_;
  std::vector<size_t> node_kind_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
  Mutex mu_{"perfbench.heartbeats"};
  std::vector<HbRecord> records_ SDB_GUARDED_BY(mu_);
};

// --- phases --------------------------------------------------------------------------

struct PhaseResult {
  std::string name;
  double rate = 0;
  PhaseStats st;
  int64_t start_ns = 0, end_ns = 0;
  double wall_s = 0, server_cpu_s = 0;
  api::Server::Stats api0, api1;
  net::NetServerStats net0, net1;
  Engine::PredicateCacheStats pc0, pc1;
  uint64_t wal0 = 0, wal1 = 0;
  uint64_t pool_tasks = 0, pool_steals = 0;

  uint64_t admitted() const { return api1.statements_admitted - api0.statements_admitted; }
  uint64_t batches() const { return api1.batches - api0.batches; }
  double CpuUsPerStmt() const {
    return Ratio(server_cpu_s * 1e6, static_cast<double>(st.stmt_us.size()));
  }
};

class Runner {
 public:
  Runner(const Config& cfg, Sut* sut) : cfg_(cfg), sut_(sut) {
    if (cfg.tcp) {
      std::vector<WireConn*> conns;
      for (auto& c : sut->conns) conns.push_back(c.get());
      gen_ = MakeTcpGenerator(conns, StatementNames(sut->db->catalog, false, true));
    } else {
      gen_ = MakeInprocGenerator(sut->api.get(), kClients);
    }
  }

  PhaseResult Run(const std::string& name, double rate, double seconds,
                  bool ladder_step, bool trace) {
    Rng rng(MixSeed(cfg_.seed, name + "@" + std::to_string(rate)));
    std::vector<Arrival> schedule =
        MakeSchedule(cfg_, &sut_->db->ids, rate, seconds, &rng, &next_id_);
    PhaseSpec spec;
    spec.name = name;
    spec.rate = rate;
    spec.limit_ms = cfg_.limit_ms;
    spec.abort_on_backlog = ladder_step;
    spec.drain_ns = static_cast<int64_t>(kDrainMs * 1e6);
    spec.trace = trace;
    spec.track_dups = trace;
    spec.gen_cpu = GeneratorCore();

    PhaseResult r;
    r.name = name;
    r.rate = rate;
    Engine* engine = sut_->engine.get();
    r.api0 = sut_->api->stats();
    if (sut_->net) r.net0 = sut_->net->stats();
    r.pc0 = engine->predicate_cache_stats();
    r.wal0 = engine->wal_bytes_logged();
    const uint64_t tasks0 = engine->task_pool() ? engine->task_pool()->tasks_executed() : 0;
    const uint64_t steals0 = engine->task_pool() ? engine->task_pool()->worker_steals() : 0;
    const double cpu0 = ProcessCpuSeconds();
    r.start_ns = NowNs();
    r.st = gen_->Run(spec, std::move(schedule));
    r.end_ns = NowNs();
    const double cpu1 = ProcessCpuSeconds();
    r.api1 = sut_->api->stats();
    if (sut_->net) r.net1 = sut_->net->stats();
    r.pc1 = engine->predicate_cache_stats();
    r.wal1 = engine->wal_bytes_logged();
    if (engine->task_pool()) {
      r.pool_tasks = engine->task_pool()->tasks_executed() - tasks0;
      r.pool_steals = engine->task_pool()->worker_steals() - steals0;
    }
    r.wall_s = (r.end_ns - r.start_ns) / 1e9;
    r.server_cpu_s = (cpu1 - cpu0) - r.st.gen_cpu_s;
    attempted_ += r.st.stmts_sent;
    failed_ += r.st.stmts_failed;
    std::fprintf(stderr,
                 "phase %-10s rate %9.1f/s  arrivals %7llu  p50 %8.3f ms  p99 %9.3f "
                 "ms  cpu/stmt %8.1f us  lag99 %.3f ms%s%s\n",
                 name.c_str(), rate, static_cast<unsigned long long>(r.st.arrivals),
                 Median(r.st.wirt_ms), Pct(r.st.wirt_ms, 0.99), r.CpuUsPerStmt(),
                 Pct(r.st.lag_ms, 0.99), r.st.aborted ? "  ABORTED" : "",
                 r.st.undrained ? "  UNDRAINED" : "");
    return r;
  }

  /// A ladder step (or fixed phase) meets the limit: p99 WIRT within it,
  /// nothing failed, backlog never ran away and drained in time.
  bool Meets(const PhaseResult& r) const {
    return !r.st.aborted && !r.st.undrained && r.st.stmts_failed == 0 &&
           r.st.not_started == 0 && Pct(r.st.wirt_ms, 0.99) <= cfg_.limit_ms;
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  const Config& cfg_;
  Sut* sut_;
  std::unique_ptr<Generator> gen_;
  uint64_t next_id_ = 1;
  uint64_t attempted_ = 0, failed_ = 0;
};

// --- per-layer metrics from the traced run ---------------------------------------

struct SelfTimes {
  double client_us = 0, net_api_us = 0, core_us = 0, storage_us = 0;
};

/// Self time per layer over [from, to]: a span's duration minus what its
/// children cover. A statement's children are the heartbeats that ran while
/// it was open (the one it waited behind and the one that served it); WAL
/// calls are children of their heartbeat.
SelfTimes ComputeSelfTimes(const std::vector<Span>& spans, int64_t from, int64_t to,
                           uint64_t* statements) {
  std::vector<const Span*> stmts, hbs;
  double inter_ns = 0, stmt_ns = 0, hb_ns = 0, env_ns = 0;
  for (const Span& s : spans) {
    if (s.start_ns < from || s.start_ns > to) continue;
    const double d = static_cast<double>(s.end_ns - s.start_ns);
    if (s.name == kSpanInteraction) {
      inter_ns += d;
    } else if (s.name == kSpanStatement) {
      stmt_ns += d;
      stmts.push_back(&s);
    } else if (s.name == kSpanHeartbeat) {
      hb_ns += d;
      hbs.push_back(&s);
    } else {
      env_ns += d;
    }
  }
  // Heartbeats come from one thread, so they never overlap each other.
  std::sort(hbs.begin(), hbs.end(),
            [](const Span* a, const Span* b) { return a->end_ns < b->end_ns; });
  double covered_ns = 0;
  for (const Span* s : stmts) {
    auto it = std::upper_bound(
        hbs.begin(), hbs.end(), s->start_ns,
        [](int64_t t, const Span* h) { return t < h->end_ns; });
    for (; it != hbs.end() && (*it)->start_ns < s->end_ns; ++it) {
      const int64_t lo = std::max((*it)->start_ns, s->start_ns);
      const int64_t hi = std::min((*it)->end_ns, s->end_ns);
      if (hi > lo) covered_ns += static_cast<double>(hi - lo);
    }
  }
  *statements = stmts.size();
  const double n = std::max<double>(1, static_cast<double>(stmts.size()));
  SelfTimes t;
  t.client_us = (inter_ns - stmt_ns) / n / 1e3;
  t.net_api_us = (stmt_ns - covered_ns) / n / 1e3;
  t.core_us = (hb_ns - env_ns) / n / 1e3;
  t.storage_us = env_ns / n / 1e3;
  return t;
}

void AddLayerMetrics(const std::string& p, const Config& cfg, const PhaseResult& r,
                     const std::vector<HbRecord>& hbs, const std::vector<Span>& spans,
                     const std::vector<std::string>& kinds, Report* rep) {
  const PhaseStats& st = r.st;
  const double stmts = static_cast<double>(st.stmt_us.size());
  const double admitted = static_cast<double>(r.admitted());
  const uint64_t n_stmt = st.stmt_us.size();
  const uint64_t n_hb = hbs.size();

  // net: client-side frame timing and front-door counters (TCP only).
  const bool tcp = cfg.tcp;
  rep->Add(p + "net.stmt_rtt_p50_us", tcp ? Median(st.stmt_us) : 0, "us", n_stmt);
  rep->Add(p + "net.stmt_rtt_p99_us", tcp ? Pct(st.stmt_us, 0.99) : 0, "us", n_stmt);
  rep->Add(p + "net.residual_p50_us", tcp ? Median(st.residual_us) : 0, "us",
           st.residual_us.size());
  rep->Add(p + "net.bytes_out_per_stmt",
           Ratio(static_cast<double>(r.net1.bytes_out - r.net0.bytes_out), stmts), "B");
  rep->Add(p + "net.frames_out_per_stmt",
           Ratio(static_cast<double>(r.net1.frames_out - r.net0.frames_out), stmts),
           "count");
  rep->Add(p + "net.protocol_errors",
           static_cast<double>(r.net1.protocol_errors - r.net0.protocol_errors), "count");

  // api: admission counters and per-result telemetry.
  rep->Add(p + "api.batch_occupancy", Ratio(admitted, static_cast<double>(r.batches())),
           "count", r.batches());
  rep->Add(p + "api.heartbeats_per_s", Ratio(static_cast<double>(r.batches()), r.wall_s),
           "1/s");
  rep->Add(p + "api.queue_wait_p50_us", Median(st.queue_us), "us", st.queue_us.size());
  rep->Add(p + "api.queue_wait_p99_us", Pct(st.queue_us, 0.99), "us", st.queue_us.size());
  rep->Add(p + "api.batches_waited_mean",
           Ratio(static_cast<double>(st.batches_waited),
                 static_cast<double>(st.queue_us.size())),
           "count");
  rep->Add(p + "api.stmt_p50_us", tcp ? 0 : Median(st.stmt_us), "us", n_stmt);
  rep->Add(p + "api.stmt_p99_us", tcp ? 0 : Pct(st.stmt_us, 0.99), "us", n_stmt);
  rep->Add(p + "api.rejected",
           static_cast<double>(r.api1.statements_rejected - r.api0.statements_rejected),
           "count");
  rep->Add(p + "api.shed",
           static_cast<double>(r.api1.statements_shed - r.api0.statements_shed), "count");

  // core: the timed StepBatch heartbeats.
  std::vector<double> hb_us, exec_us, route_us;
  uint64_t touched = 0, delivered = 0, saved = 0, missing = 0;
  WorkStats work;
  std::vector<uint64_t> kind_work(kinds.size(), 0);
  for (const HbRecord& h : hbs) {
    const double us = (h.end_ns - h.start_ns) / 1e3;
    hb_us.push_back(us);
    exec_us.push_back(h.exec_ms * 1e3);
    route_us.push_back(std::max(0.0, us - h.exec_ms * 1e3));
    touched += h.rows_touched;
    delivered += h.rows_delivered;
    saved += h.saved;
    missing += h.missing;
    work.Add(h.total);
    for (size_t k = 0; k < kinds.size() && k < h.kind_work.size(); ++k) {
      kind_work[k] += h.kind_work[k];
    }
  }
  rep->Add(p + "core.heartbeat_p50_us", Median(hb_us), "us", n_hb);
  rep->Add(p + "core.heartbeat_p99_us", Pct(hb_us, 0.99), "us", n_hb);
  rep->Add(p + "core.exec_p50_us", Median(exec_us), "us", n_hb);
  rep->Add(p + "core.route_p50_us", Median(route_us), "us", n_hb);
  rep->Add(p + "core.rows_delivered_per_touched",
           Ratio(static_cast<double>(delivered), static_cast<double>(touched)), "ratio");
  rep->Add(p + "core.shared_work_saved_per_stmt",
           Ratio(static_cast<double>(saved), admitted), "rows");
  rep->Add(p + "core.missing_root_outputs", static_cast<double>(missing), "count");

  // ops: operator work counters per admitted statement.
  const std::pair<const char*, uint64_t> ops[] = {
      {"rows_scanned", work.rows_scanned},   {"predicate_evals", work.predicate_evals},
      {"hash_probes", work.hash_probes},     {"hash_builds", work.hash_builds},
      {"comparisons", work.comparisons},     {"index_lookups", work.index_lookups},
      {"agg_updates", work.agg_updates},     {"qid_elems", work.qid_elems},
      {"tuples_out", work.tuples_out}};
  for (const auto& [name, v] : ops) {
    rep->Add(p + "ops." + name + "_per_stmt", Ratio(static_cast<double>(v), admitted),
             "count");
  }
  for (size_t k = 0; k < kinds.size(); ++k) {
    rep->Add(p + "ops." + kinds[k] + ".work_per_stmt",
             Ratio(static_cast<double>(kind_work[k]), admitted), "count");
  }

  // storage: the timing Env's spans, WAL bytes and predicate-cache counters.
  std::vector<double> sync_us;
  uint64_t appends = 0;
  for (const Span& s : spans) {
    if (s.start_ns < r.start_ns || s.start_ns > r.end_ns) continue;
    if (s.name == kSpanSync) sync_us.push_back((s.end_ns - s.start_ns) / 1e3);
    if (s.name == kSpanAppend) ++appends;
  }
  const double builds = static_cast<double>(r.pc1.index_builds - r.pc0.index_builds);
  const double rebinds = static_cast<double>(r.pc1.index_rebinds - r.pc0.index_rebinds);
  rep->Add(p + "storage.wal_sync_p50_us", Median(sync_us), "us", sync_us.size());
  rep->Add(p + "storage.wal_sync_p99_us", Pct(sync_us, 0.99), "us", sync_us.size());
  rep->Add(p + "storage.wal_syncs_per_batch",
           Ratio(static_cast<double>(sync_us.size()), static_cast<double>(n_hb)), "count");
  rep->Add(p + "storage.wal_appends_per_batch",
           Ratio(static_cast<double>(appends), static_cast<double>(n_hb)), "count");
  rep->Add(p + "storage.wal_bytes_per_update",
           Ratio(static_cast<double>(r.wal1 - r.wal0),
                 static_cast<double>(work.updates_applied)),
           "B");
  rep->Add(p + "storage.updates_applied_per_stmt",
           Ratio(static_cast<double>(work.updates_applied), admitted), "count");
  rep->Add(p + "storage.index_rebind_ratio", Ratio(rebinds, rebinds + builds), "ratio");
  rep->Add(p + "storage.index_builds", builds, "count");

  // runtime: where the server's CPU went.
  rep->Add(p + "runtime.server_cores_busy", Ratio(r.server_cpu_s, r.wall_s), "cores");
  rep->Add(p + "runtime.pool_tasks_per_batch",
           Ratio(static_cast<double>(r.pool_tasks), static_cast<double>(r.batches())),
           "count");
  rep->Add(p + "runtime.pool_steals_per_batch",
           Ratio(static_cast<double>(r.pool_steals), static_cast<double>(r.batches())),
           "count");

  // tpcw inputs and generator health.
  rep->Add(p + "tpcw.dup_inflight_share",
           Ratio(static_cast<double>(st.dup_inflight), static_cast<double>(st.stmts_sent)),
           "ratio", st.stmts_sent);
  rep->Add(p + "gen.lag_p99_ms", Pct(st.lag_ms, 0.99), "ms", st.lag_ms.size());
  rep->Add(p + "gen.cpu_s", st.gen_cpu_s, "s");

  uint64_t traced_stmts = 0;
  const SelfTimes self = ComputeSelfTimes(spans, r.start_ns, r.end_ns, &traced_stmts);
  rep->Add(p + "self.client_us_per_stmt", self.client_us, "us", traced_stmts);
  rep->Add(p + "self.net_api_us_per_stmt", self.net_api_us, "us", traced_stmts);
  rep->Add(p + "self.core_us_per_stmt", self.core_us, "us", traced_stmts);
  rep->Add(p + "self.storage_us_per_stmt", self.storage_us, "us", traced_stmts);
}

// --- correctness checks --------------------------------------------------------------

std::string DumpCatalogState(const Catalog& cat) {
  const Version snap = cat.snapshots().ReadSnapshot();
  std::string out;
  for (size_t ti = 0; ti < cat.NumTables(); ++ti) {
    const Table* t = cat.TableById(ti);
    std::multiset<std::string> rows;
    t->ScanVisible(snap, [&rows](RowId, const Tuple& row) {
      rows.insert(testing::CanonicalRow(row));
      return true;
    });
    out += t->name() + ":\n";
    for (const std::string& r : rows) out += r + "\n";
  }
  return out;
}

/// Runs a seeded sample of the workload's read statements through SharedDB
/// (over the workload's own transport) and through the query-at-a-time
/// reference engine over the same catalog; the answers must agree.
void CheckAgainstBaseline(const Config& cfg, Sut* sut, Report* rep) {
  Rng rng(MixSeed(cfg.seed, "differential"));
  const std::vector<std::string> reads = StatementNames(sut->db->catalog, true, false);
  const std::set<std::string> read_set(reads.begin(), reads.end());
  // Draw from a scratch id allocator so the sample never consumes the live
  // database's ids.
  tpcw::IdAllocator ids;
  ids.next_order.store(sut->db->ids.next_order.load());
  ids.next_order_line.store(sut->db->ids.next_order_line.load());
  ids.next_cart.store(sut->db->ids.next_cart.load());
  ids.next_customer.store(sut->db->ids.next_customer.load());
  std::vector<tpcw::StatementCall> sample;
  while (static_cast<int>(sample.size()) < kCheckSamples) {
    int64_t key = -1;
    for (tpcw::StatementCall& c : DrawCalls(cfg, &ids, &rng, &key)) {
      if (read_set.count(c.statement) != 0 &&
          static_cast<int>(sample.size()) < kCheckSamples) {
        sample.push_back(std::move(c));
      }
    }
  }
  baseline::BaselineEngine oracle(&sut->db->catalog, MySQLLikeProfile());
  tpcw::RegisterTpcwBaseline(&oracle);
  net::Client client;
  std::unique_ptr<api::Session> session;
  if (cfg.tcp) {
    const Status s = client.Connect("127.0.0.1", sut->net->port(), "perfbench-check");
    if (!s.ok()) {
      rep->Check("differential_vs_baseline", false, "connect: " + s.ToString());
      return;
    }
  } else {
    session = sut->api->OpenSession();
  }
  size_t mismatches = 0;
  std::string first;
  for (const tpcw::StatementCall& c : sample) {
    const ResultSet shared =
        cfg.tcp ? client.Execute(c.statement, c.params) : session->Execute(c.statement, c.params);
    const baseline::BaselineResult ref = oracle.ExecuteNamed(c.statement, c.params);
    const bool same = shared.status.ok() && ref.result.status.ok() &&
                      testing::CanonicalRows(shared) == testing::CanonicalRows(ref.result);
    if (!same) {
      ++mismatches;
      if (first.empty()) {
        first = c.statement + ": shared " + shared.status.ToString() + " " +
                testing::CanonicalToString(testing::CanonicalRows(shared), 4) +
                " vs baseline " +
                testing::CanonicalToString(testing::CanonicalRows(ref.result), 4);
      }
    }
  }
  rep->Check("differential_vs_baseline", mismatches == 0,
             std::to_string(sample.size()) + " reads, " + std::to_string(mismatches) +
                 " mismatches" + (first.empty() ? "" : "; first: " + first));
}

void CheckServerStats(Sut* sut, Report* rep) {
  const api::Server::Stats s = sut->api->stats();
  const uint64_t rhs = s.statements_admitted + s.statements_rejected + s.statements_shed +
                       s.statements_cancelled + s.statements_unavailable;
  rep->Check("admission_identity", s.statements_submitted == rhs,
             "submitted " + std::to_string(s.statements_submitted) + " vs " +
                 std::to_string(rhs));
  rep->Check("missing_root_outputs", s.missing_root_outputs == 0,
             std::to_string(s.missing_root_outputs));
  rep->Check("wal_status", sut->engine->wal_status().ok(),
             sut->engine->wal_status().ToString());
  if (sut->net) {
    const uint64_t pe = sut->net->stats().protocol_errors;
    rep->Check("net_protocol_errors", pe == 0, std::to_string(pe));
  }
}

/// Replays the live WAL onto a freshly generated catalog (same seed): the
/// recovered tables must equal the live ones.
void CheckWalReplay(const Config& cfg, Sut* sut, Report* rep) {
  const std::string live = DumpCatalogState(sut->db->catalog);
  std::unique_ptr<tpcw::TpcwDatabase> fresh = tpcw::MakeTpcwDatabase(cfg.scale, cfg.seed);
  RecoverOptions ro;
  ro.wal_path = sut->wal_path;
  ro.truncate_tail = false;
  RecoveryReport rr;
  const Status s = Recover(&fresh->catalog, ro, &rr);
  const bool same = s.ok() && DumpCatalogState(fresh->catalog) == live;
  rep->Check("wal_replay_state", same,
             s.ToString() + ", " + std::to_string(rr.batches_committed) +
                 " batches replayed, stop=" + rr.stop_reason);
}

void CheckFixedPhase(const PhaseResult& r, Report* rep) {
  const PhaseStats& st = r.st;
  std::string detail = std::to_string(st.stmts_failed) + " failed, lag p99 " +
                       std::to_string(Pct(st.lag_ms, 0.99)) + " ms";
  if (!st.first_error.empty()) detail += "; " + st.first_error;
  const bool ok = st.stmts_failed == 0 && st.check_failures == 0 && !st.undrained &&
                  st.not_started == 0 && Pct(st.lag_ms, 0.99) <= kMaxLagMs;
  rep->Check(r.name + "_phase_valid", ok, detail);
}

// --- main ------------------------------------------------------------------------------

/// Keeps the server's threads (created by this thread, so they inherit its
/// mask) off the generator's core.
void ReserveGeneratorCore() {
  const int gen_cpu = GeneratorCore();
  if (gen_cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = 0; c < gen_cpu; ++c) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

int Main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  ReserveGeneratorCore();
  Report rep;

  // Set-up, repeated: the median is setup_s; the last copy serves the run.
  std::vector<double> setups;
  std::unique_ptr<Sut> sut;
  for (int i = 0; i < cfg.setup_reps; ++i) {
    if (sut) {
      sut->Stop();
      std::remove(sut->wal_path.c_str());
      sut.reset();
    }
    sut = SetUp(cfg, i);
    setups.push_back(sut->setup_s);
  }
  std::fprintf(stderr, "setup %.3f s (median of %zu), datagen %.3f s\n",
               Median(setups), setups.size(), sut->datagen_s);

  Runner runner(cfg, sut.get());
  std::vector<PhaseResult> fixed;
  double max_ips = 0;
  // The overload probes of the ladder hold backlogs; the memory metric is
  // the high-water mark through the fixed rates.
  double fixed_rss_mb = 0;
  std::unique_ptr<Stepper> stepper;
  if (!cfg.trace) {
    runner.Run("warmup", cfg.light_rate, kWarmupS, false, false);
    fixed.push_back(runner.Run("light", cfg.light_rate, cfg.light_s, false, false));
    fixed.push_back(runner.Run("peak", cfg.peak_rate, cfg.peak_s, false, false));
    fixed_rss_mb = PeakRssMb();
    // Bisection over the fixed geometric ladder base * ratio^i.
    int lo = -1, hi = kLadderPoints;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = cfg.ladder_base * std::pow(kLadderRatio, mid);
      const PhaseResult step =
          runner.Run("ladder", rate, cfg.ladder_s / kLadderProbes, true, false);
      (runner.Meets(step) ? lo : hi) = mid;
    }
    max_ips = cfg.ladder_base * std::pow(kLadderRatio, lo);
  } else {
    stepper = std::make_unique<Stepper>(sut->api.get());
    stepper->Start();
    runner.Run("warmup", cfg.light_rate, kWarmupS, false, false);
    SpanLog::Get().set_enabled(true);
    fixed.push_back(runner.Run("light", cfg.light_rate, cfg.light_s, false, true));
    fixed.push_back(runner.Run("peak", cfg.peak_rate, cfg.peak_s, false, true));
    fixed_rss_mb = PeakRssMb();
    SpanLog::Get().set_enabled(false);
    stepper->Stop();
    sut->api->Resume();
  }
  for (const PhaseResult& r : fixed) CheckFixedPhase(r, &rep);

  // End-to-end metrics (from the untraced run; the traced run prints its own
  // for the overhead comparison).
  const PhaseResult& light = fixed[0];
  const PhaseResult& peak = fixed[1];
  rep.Add("setup_s", Median(setups), "s", setups.size());
  for (const PhaseResult* r : {&light, &peak}) {
    rep.Add(r->name + ".wirt_p50_ms", Median(r->st.wirt_ms), "ms", r->st.wirt_ms.size());
    rep.Add(r->name + ".wirt_p99_ms", Pct(r->st.wirt_ms, 0.99), "ms", r->st.wirt_ms.size());
    rep.Add(r->name + ".cpu_us_per_stmt", r->CpuUsPerStmt(), "us", r->st.stmt_us.size());
  }
  if (!cfg.trace) rep.Add("max_ips", max_ips, "1/s");
  rep.Add("fail_frac",
          Ratio(static_cast<double>(runner.failed()), static_cast<double>(runner.attempted())),
          "ratio", runner.attempted());

  if (cfg.trace) {
    // The untraced reference for the tracing overhead: the same peak rate
    // with the server's own driver and no spans.
    const PhaseResult ref = runner.Run("peak-ref", cfg.peak_rate, cfg.peak_s, false, false);
    rep.Add("trace.overhead_wirt_p50_ms", Median(peak.st.wirt_ms) - Median(ref.st.wirt_ms),
            "ms");
    rep.Add("trace.overhead_cpu_us_per_stmt", peak.CpuUsPerStmt() - ref.CpuUsPerStmt(), "us");
    const std::vector<Span> spans = SpanLog::Get().Collect();
    for (const PhaseResult* r : {&light, &peak}) {
      AddLayerMetrics(r->name + ".", cfg, *r, stepper->Take(r->start_ns, r->end_ns), spans,
                      stepper->kinds(), &rep);
    }
    rep.Add("core.plan_build_s", sut->plan_build_s, "s");
    rep.Add("tpcw.datagen_s", sut->datagen_s, "s");
    rep.Add("net.start_s", sut->net_start_s, "s");
    const double sent = static_cast<double>(light.st.stmts_sent + peak.st.stmts_sent);
    rep.Add("tpcw.write_share",
            Ratio(static_cast<double>(light.st.writes_sent + peak.st.writes_sent), sent),
            "ratio");
    const std::string path = cfg.work_dir + "/" + cfg.workload + ".spans.csv";
    if (SpanLog::WriteCsv(path, spans)) {
      rep.Meta("spans_file", path);
      rep.Meta("spans", std::to_string(spans.size()));
    }
  }

  CheckAgainstBaseline(cfg, sut.get(), &rep);
  CheckServerStats(sut.get(), &rep);
  sut->Stop();
  if (cfg.wal_replay_check) CheckWalReplay(cfg, sut.get(), &rep);
  rep.Add("peak_rss_mb", fixed_rss_mb, "MB");
  rep.Add("process_peak_rss_mb", PeakRssMb(), "MB");

  rep.Meta("workload", cfg.workload);
  rep.Meta("seed", std::to_string(cfg.seed));
  rep.Meta("transport", cfg.tcp ? "tcp (net::Server, 2 workers)" : "in-process api::Session");
  rep.Meta("scale", std::to_string(cfg.scale.num_items) + " items, " +
                        std::to_string(cfg.scale.num_ebs) + " EBs");
  char rates[160];
  std::snprintf(rates, sizeof(rates), "light %.0f/s, peak %.0f/s, ladder %.0f*%.3f^i i<%d",
                cfg.light_rate, cfg.peak_rate, cfg.ladder_base, kLadderRatio,
                kLadderPoints);
  rep.Meta("rates", rates);
  rep.Meta("wal_policy", "group commit (one fsync per heartbeat)");
  rep.Meta("wal_filesystem", FsType(cfg.work_dir));
  rep.Meta("build_type", PERFBENCH_BUILD_TYPE);
  rep.Meta("compiler", PERFBENCH_COMPILER);
  rep.Meta("nproc", std::to_string(std::thread::hardware_concurrency()));
  rep.Print(runner.attempted(), runner.failed());
  std::remove(sut->wal_path.c_str());
  return rep.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
