#include "generator.h"

#include <poll.h>
#include <sched.h>
#include <time.h>

#include <deque>
#include <limits>
#include <set>
#include <thread>
#include <unordered_map>

#include "common/sync.h"
#include "trace.h"

namespace perfbench {

using shareddb::CondVar;
using shareddb::Mutex;
using shareddb::MutexLock;
using shareddb::ResultSet;
using shareddb::Status;
using shareddb::tpcw::StatementCall;

namespace {

constexpr double kFailedWirt = std::numeric_limits<double>::infinity();
/// A phase whose work is still open this long after its last due time is
/// broken, not slow: the run stops instead of waiting forever.
constexpr int64_t kHardDrainNs = 60'000'000'000;

void SleepUntilNs(int64_t t_ns) {
  timespec ts;
  ts.tv_sec = static_cast<time_t>(t_ns / 1'000'000'000);
  ts.tv_nsec = static_cast<long>(t_ns % 1'000'000'000);
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// Pins the calling generator thread to `cpu` (no-op when negative), so
/// the load generator competes with the server for one core at most.
void PinGeneratorThread(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)sched_setaffinity(0, sizeof(set), &set);
}

/// Counts sends of a (statement, params) pair that is already in flight.
/// Shared by all generator threads; only used by traced phases.
class DupTracker {
 public:
  bool Open(const StatementCall& c) {
    const std::string key = Key(c);
    MutexLock lock(&mu_);
    return open_[key]++ > 0;
  }
  void Close(const StatementCall& c) {
    const std::string key = Key(c);
    MutexLock lock(&mu_);
    auto it = open_.find(key);
    if (it != open_.end() && --it->second == 0) open_.erase(it);
  }

 private:
  static std::string Key(const StatementCall& c) {
    std::string k = c.statement;
    for (const shareddb::Value& v : c.params) {
      k += '|';
      k += v.ToString();
    }
    return k;
  }
  Mutex mu_{"perfbench.dups"};
  std::unordered_map<std::string, int> open_ SDB_GUARDED_BY(mu_);
};

/// State shared by one phase's threads.
struct PhaseShared {
  const PhaseSpec* spec = nullptr;
  int64_t t0_ns = 0;
  int64_t last_due_ns = 0;
  int64_t backlog_limit = 0;
  std::atomic<int64_t> outstanding{0};
  std::atomic<bool> abort{false};
  DupTracker dups;

  void Started(PhaseStats* st) {
    const int64_t open = outstanding.fetch_add(1) + 1;
    if (spec->abort_on_backlog && open > backlog_limit &&
        !abort.exchange(true)) {
      st->aborted = true;
    }
  }
};

void SetupShared(PhaseShared* sh, const PhaseSpec& spec,
                 std::vector<Arrival>* schedule) {
  sh->spec = &spec;
  // A short lead lets every thread reach its loop before the first due time.
  sh->t0_ns = NowNs() + 5'000'000;
  for (Arrival& a : *schedule) a.due_ns += sh->t0_ns;
  sh->last_due_ns = schedule->empty() ? sh->t0_ns : schedule->back().due_ns;
  // Little's law: a backlog this far above rate x limit means the mean
  // response time is several limits long and still rising.
  sh->backlog_limit =
      static_cast<int64_t>(spec.rate * spec.limit_ms / 1000.0 * 4.0) + 64;
}

void FinishInteraction(const Arrival& a, int64_t now, bool failed,
                       uint64_t span_id, const PhaseShared& sh,
                       PhaseStats* st) {
  st->wirt_ms.push_back(failed ? kFailedWirt : (now - a.due_ns) / 1e6);
  if (now > sh.last_due_ns + sh.spec->drain_ns) st->undrained = true;
  if (sh.spec->trace) {
    Span s;
    s.id = span_id;
    s.name = kSpanInteraction;
    s.start_ns = a.due_ns;
    s.end_ns = now;
    s.request_id = a.id;
    SpanLog::Get().Record(s);
  }
}

void NoteError(PhaseStats* st, const std::string& what) {
  if (st->first_error.empty()) st->first_error = what;
}

// --- TCP ---------------------------------------------------------------------

/// One generator thread drives every connection. It busy-polls: a sleeping
/// thread on an idle virtual CPU can wake milliseconds late, and that lag
/// would be charged to the server as response time.
class TcpGenerator : public Generator {
 public:
  TcpGenerator(std::vector<WireConn*> conns, const std::vector<std::string>& dml)
      : conns_(std::move(conns)), dml_(dml.begin(), dml.end()) {}

  PhaseStats Run(const PhaseSpec& spec, std::vector<Arrival> schedule) override {
    PhaseShared sh;
    SetupShared(&sh, spec, &schedule);
    std::vector<Stream> streams(conns_.size());
    for (size_t c = 0; c < conns_.size(); ++c) streams[c].conn = conns_[c];
    for (size_t i = 0; i < schedule.size(); ++i) {
      streams[i % streams.size()].mine.push_back(&schedule[i]);
    }
    PhaseStats out;
    std::thread th([&] { Loop(&streams, &sh, &out); });
    th.join();
    out.arrivals = schedule.size();
    return out;
  }

 private:
  struct Live {
    size_t next = 0;  // statement in flight
    int64_t send_ns = 0;
    uint64_t span_id = 0;
    bool failed = false;
  };
  /// One connection's share of the schedule.
  struct Stream {
    WireConn* conn = nullptr;
    std::vector<Arrival*> mine;
    std::vector<Live> live;
    size_t next = 0;
  };

  // Request ids encode (arrival index on the connection, statement index).
  static uint64_t Rid(size_t li, size_t si) { return (li << 6 | si) + 1; }

  void Loop(std::vector<Stream>* streams, PhaseShared* sh, PhaseStats* st) {
    PinGeneratorThread(sh->spec->gen_cpu);
    const double cpu0 = ThreadCpuSeconds();
    const PhaseSpec& spec = *sh->spec;
    int64_t open = 0;
    bool broken = false;
    for (Stream& s : *streams) s.live.resize(s.mine.size());

    auto send = [&](Stream& s, size_t li) {
      Arrival& a = *s.mine[li];
      Live& l = s.live[li];
      const StatementCall& c = a.calls[l.next];
      if (spec.track_dups && sh->dups.Open(c)) ++st->dup_inflight;
      if (dml_.count(c.statement) != 0) ++st->writes_sent;
      ++st->stmts_sent;
      l.send_ns = NowNs();
      const Status status = s.conn->SendExecute(
          Rid(li, l.next), s.conn->StatementId(c.statement), c.params);
      if (!status.ok()) {
        NoteError(st, status.ToString());
        broken = true;
      }
    };

    auto on_response = [&](Stream& s, uint64_t rid, const WireResponse& r) {
      const size_t li = static_cast<size_t>((rid - 1) >> 6);
      if (li >= s.live.size()) {
        NoteError(st, "response for an unknown request id");
        broken = true;
        return;
      }
      Arrival& a = *s.mine[li];
      Live& l = s.live[li];
      const StatementCall& c = a.calls[l.next];
      const int64_t now = NowNs();
      const double us = (now - l.send_ns) / 1e3;
      if (spec.track_dups) sh->dups.Close(c);
      st->stmt_us.push_back(us);
      if (spec.trace) {
        Span span;
        span.id = SpanLog::Get().NextId();
        span.parent = l.span_id;
        span.name = kSpanStatement;
        span.start_ns = l.send_ns;
        span.end_ns = now;
        span.request_id = rid;
        SpanLog::Get().Record(span);
      }
      if (r.status.ok()) {
        st->residual_us.push_back(us - (r.queue_ms + r.exec_ms) * 1e3);
        st->queue_us.push_back(r.queue_ms * 1e3);
        st->batches_waited += r.batches_waited;
      } else {
        ++st->stmts_failed;
        l.failed = true;
        NoteError(st, c.statement + ": " + r.status.ToString());
      }
      if (!l.failed && ++l.next < a.calls.size()) {
        send(s, li);
        return;
      }
      FinishInteraction(a, now, l.failed, l.span_id, *sh, st);
      --open;
      sh->outstanding.fetch_sub(1);
    };

    std::vector<pollfd> pfds(streams->size());
    while (!broken) {
      bool pending = open > 0;
      for (Stream& s : *streams) {
        const int64_t now = NowNs();
        while (s.next < s.mine.size() && s.mine[s.next]->due_ns <= now && !broken) {
          if (sh->abort.load(std::memory_order_relaxed)) {
            st->not_started += s.mine.size() - s.next;
            s.next = s.mine.size();
            break;
          }
          st->lag_ms.push_back((now - s.mine[s.next]->due_ns) / 1e6);
          if (spec.trace) s.live[s.next].span_id = SpanLog::Get().NextId();
          sh->Started(st);
          ++open;
          send(s, s.next++);
        }
        pending = pending || s.next < s.mine.size() || open > 0;
      }
      if (!pending) break;
      if (NowNs() > sh->last_due_ns + kHardDrainNs) {
        NoteError(st, "phase did not drain within the hard bound");
        broken = true;
        break;
      }
      for (size_t i = 0; i < streams->size(); ++i) {
        WireConn* conn = (*streams)[i].conn;
        pfds[i] = {conn->fd(),
                   static_cast<short>(POLLIN | (conn->want_write() ? POLLOUT : 0)), 0};
      }
      const timespec zero{0, 0};
      if (ppoll(pfds.data(), pfds.size(), &zero, nullptr) <= 0) continue;
      for (size_t i = 0; i < streams->size() && !broken; ++i) {
        Stream& s = (*streams)[i];
        const short ev = pfds[i].revents;
        Status status;
        if (ev & (POLLERR | POLLHUP | POLLNVAL)) {
          status = Status::IoError("connection error");
        } else if (ev & POLLOUT) {
          status = s.conn->Flush();
        }
        if (status.ok() && (ev & POLLIN)) {
          status = s.conn->ReadAvailable(
              [&](uint64_t rid, const WireResponse& r) { on_response(s, rid, r); });
        }
        if (!status.ok()) {
          NoteError(st, status.ToString());
          broken = true;
        }
      }
    }
    if (broken) {
      // Everything still open counts as failed; the run reports the error.
      st->stmts_failed += static_cast<uint64_t>(open);
      for (int64_t i = 0; i < open; ++i) st->wirt_ms.push_back(kFailedWirt);
      for (Stream& s : *streams) st->not_started += s.mine.size() - s.next;
      sh->outstanding.fetch_sub(open);
      sh->abort.store(true);
    }
    st->gen_cpu_s = ThreadCpuSeconds() - cpu0;
  }

  std::vector<WireConn*> conns_;
  std::set<std::string> dml_;
};

// --- in-process ----------------------------------------------------------------

class InprocGenerator : public Generator {
 public:
  InprocGenerator(shareddb::api::Server* server, int pairs) {
    for (int i = 0; i < pairs; ++i) sessions_.push_back(server->OpenSession());
  }

  PhaseStats Run(const PhaseSpec& spec, std::vector<Arrival> schedule) override {
    PhaseShared sh;
    SetupShared(&sh, spec, &schedule);
    const size_t g = sessions_.size();
    std::vector<std::vector<Arrival*>> mine(g);
    for (size_t i = 0; i < schedule.size(); ++i) {
      mine[i % g].push_back(&schedule[i]);
    }
    std::vector<Channel> chans(g);
    std::vector<PhaseStats> send_stats(g), recv_stats(g);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < g; ++t) {
      threads.emplace_back([&, t] {
        Sender(sessions_[t].get(), mine[t], &sh, &chans[t], &send_stats[t]);
      });
      threads.emplace_back(
          [&, t] { Receiver(&sh, &chans[t], &recv_stats[t]); });
    }
    for (std::thread& th : threads) th.join();
    PhaseStats out;
    for (size_t t = 0; t < g; ++t) {
      out.Merge(std::move(send_stats[t]));
      out.Merge(std::move(recv_stats[t]));
    }
    out.arrivals = schedule.size();
    return out;
  }

 private:
  struct InFlight {
    const Arrival* arrival = nullptr;
    int64_t send_ns = 0;
    uint64_t span_id = 0;
    shareddb::api::AsyncResult result;
  };
  struct Channel {
    Mutex mu{"perfbench.channel"};
    CondVar cv;
    std::deque<InFlight> q SDB_GUARDED_BY(mu);
    bool closed SDB_GUARDED_BY(mu) = false;
  };

  const shareddb::api::PreparedStatement& Prepared(shareddb::api::Session* s,
                                                   const std::string& name) {
    MutexLock lock(&prep_mu_);
    auto it = prepared_.find(name);
    if (it == prepared_.end()) {
      shareddb::api::PreparedStatement ps;
      (void)s->Prepare(name, &ps);  // an invalid handle fails the call
      it = prepared_.emplace(name, ps).first;
    }
    return it->second;
  }

  void Sender(shareddb::api::Session* session, const std::vector<Arrival*>& mine,
              PhaseShared* sh, Channel* ch, PhaseStats* st) {
    PinGeneratorThread(sh->spec->gen_cpu);
    const double cpu0 = ThreadCpuSeconds();
    const PhaseSpec& spec = *sh->spec;
    size_t next = 0;
    while (next < mine.size()) {
      const Arrival& a = *mine[next];
      if (NowNs() < a.due_ns) SleepUntilNs(a.due_ns);
      if (sh->abort.load(std::memory_order_relaxed)) {
        st->not_started += mine.size() - next;
        break;
      }
      const int64_t now = NowNs();
      st->lag_ms.push_back((now - a.due_ns) / 1e6);
      sh->Started(st);
      const StatementCall& c = a.calls[0];
      if (spec.track_dups && sh->dups.Open(c)) ++st->dup_inflight;
      ++st->stmts_sent;
      InFlight f;
      f.arrival = &a;
      f.span_id = spec.trace ? SpanLog::Get().NextId() : 0;
      f.send_ns = now;
      f.result = session->ExecuteAsync(Prepared(session, c.statement), c.params);
      {
        MutexLock lock(&ch->mu);
        ch->q.push_back(std::move(f));
      }
      ch->cv.NotifyOne();
      ++next;
    }
    {
      MutexLock lock(&ch->mu);
      ch->closed = true;
    }
    ch->cv.NotifyOne();
    st->gen_cpu_s = ThreadCpuSeconds() - cpu0;
  }

  void Receiver(PhaseShared* sh, Channel* ch, PhaseStats* st) {
    PinGeneratorThread(sh->spec->gen_cpu);
    const double cpu0 = ThreadCpuSeconds();
    const PhaseSpec& spec = *sh->spec;
    for (;;) {
      InFlight f;
      {
        MutexLock lock(&ch->mu);
        while (ch->q.empty() && !ch->closed) ch->cv.Wait(&ch->mu);
        if (ch->q.empty()) break;
        f = std::move(ch->q.front());
        ch->q.pop_front();
      }
      const ResultSet rs = f.result.Get();
      const int64_t now = NowNs();
      const Arrival& a = *f.arrival;
      const StatementCall& c = a.calls[0];
      if (spec.track_dups) sh->dups.Close(c);
      const double us = (now - f.send_ns) / 1e3;
      st->stmt_us.push_back(us);
      if (spec.trace) {
        Span s;
        s.id = SpanLog::Get().NextId();
        s.parent = f.span_id;
        s.name = kSpanStatement;
        s.start_ns = f.send_ns;
        s.end_ns = now;
        s.request_id = a.id;
        SpanLog::Get().Record(s);
      }
      bool failed = !rs.status.ok();
      if (failed) {
        ++st->stmts_failed;
        NoteError(st, c.statement + ": " + rs.status.ToString());
      } else {
        st->residual_us.push_back(us - (rs.queue_ms + rs.exec_ms) * 1e3);
        st->queue_us.push_back(rs.queue_ms * 1e3);
        st->batches_waited += rs.batches_waited;
        if (a.expect_key >= 0 && !KeyMatches(rs, a.expect_key)) {
          ++st->check_failures;
          NoteError(st, c.statement + ": wrong answer for key " +
                            std::to_string(a.expect_key));
        }
      }
      FinishInteraction(a, now, failed, f.span_id, *sh, st);
      sh->outstanding.fetch_sub(1);
    }
    st->gen_cpu_s = ThreadCpuSeconds() - cpu0;
  }

  /// A point lookup must answer exactly one row carrying the requested key.
  static bool KeyMatches(const ResultSet& rs, int64_t key) {
    if (rs.rows.size() != 1 || rs.schema == nullptr) return false;
    const char* cols[] = {"i_id", "i.i_id", "c_id"};
    for (const char* col : cols) {
      const int idx = rs.schema->FindColumn(col);
      if (idx >= 0) {
        const shareddb::Value& v = rs.rows[0][static_cast<size_t>(idx)];
        return !v.is_null() && v.AsInt() == key;
      }
    }
    return false;
  }

  std::vector<std::unique_ptr<shareddb::api::Session>> sessions_;
  Mutex prep_mu_{"perfbench.prepared"};
  std::unordered_map<std::string, shareddb::api::PreparedStatement> prepared_
      SDB_GUARDED_BY(prep_mu_);
};

}  // namespace

void PhaseStats::Merge(PhaseStats&& o) {
  auto cat = [](std::vector<double>* a, std::vector<double>* b) {
    a->insert(a->end(), b->begin(), b->end());
  };
  cat(&wirt_ms, &o.wirt_ms);
  cat(&stmt_us, &o.stmt_us);
  cat(&residual_us, &o.residual_us);
  cat(&queue_us, &o.queue_us);
  cat(&lag_ms, &o.lag_ms);
  arrivals += o.arrivals;
  not_started += o.not_started;
  stmts_sent += o.stmts_sent;
  stmts_failed += o.stmts_failed;
  writes_sent += o.writes_sent;
  dup_inflight += o.dup_inflight;
  batches_waited += o.batches_waited;
  check_failures += o.check_failures;
  gen_cpu_s += o.gen_cpu_s;
  aborted = aborted || o.aborted;
  undrained = undrained || o.undrained;
  if (first_error.empty()) first_error = std::move(o.first_error);
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

std::unique_ptr<Generator> MakeTcpGenerator(std::vector<WireConn*> conns,
                                            const std::vector<std::string>& dml) {
  return std::make_unique<TcpGenerator>(std::move(conns), dml);
}

std::unique_ptr<Generator> MakeInprocGenerator(shareddb::api::Server* server,
                                               int pairs) {
  return std::make_unique<InprocGenerator>(server, pairs);
}

}  // namespace perfbench
