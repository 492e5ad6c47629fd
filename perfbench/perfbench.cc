// Session-level benchmark: runs one workload through StreamSession
// and prints every metric by name with its unit, then one JSON line
//
//   {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// tracing; with --trace 1 a separate traced run times the benchmark's own
// calls into each module's public functions (the per-layer ledger) and
// writes its spans to --out-dir when it ends. Every pass's delivered
// results are checked against a reference computed outside the timed
// region; any mismatch makes the program exit 1. README.md lists the
// metrics, their units, and which end-to-end metric each layer moves.
//
// usage: perfbench --workload NAME --seed N --seconds S
//                  --trace 0|1 --work-dir DIR --out-dir DIR

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "durability/framed_io.h"
#include "durability/manager.h"
#include "exec/engine.h"
#include "exec/reorderer.h"
#include "exec/sink.h"
#include "harness.h"
#include "multi/multi_query.h"
#include "runtime/sharded_executor.h"
#include "session/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using fw::EventColumns;
using fw::QueryId;
using fw::Status;
using fw::StreamQuery;
using fw::StreamSession;
using fw::WindowResult;

// ---------------------------------------------------------------------------
// Arguments.

struct Args {
  std::string workload;
  uint64_t seed = 0;
  int seconds = 0;
  int trace = -1;
  std::string work_dir;
  std::string out_dir;
};

bool ParseUnsigned(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  *out = value;
  return true;
}

// Returns an error message, or "" when the arguments are complete and valid.
std::string ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return "missing value for " + flag;
    const char* value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return "bad --seed";
      args->seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number < 1 || number > 600) {
        return "bad --seconds (1..600)";
      }
      args->seconds = static_cast<int>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return "bad --trace (0 or 1)";
      }
      args->trace = static_cast<int>(number);
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--out-dir") {
      args->out_dir = value;
    } else {
      return "unknown flag " + flag;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    return "unknown --workload '" + args->workload + "'";
  }
  if (args->seconds == 0 || args->trace < 0 || args->work_dir.empty() ||
      args->out_dir.empty()) {
    return "--seconds, --trace, --work-dir and --out-dir are required";
  }
  return "";
}

// ---------------------------------------------------------------------------
// Operation tally: every push, churn call, recovery, per-pass correctness
// comparison and closing-event attribution counts as attempted.

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  int reported = 0;

  bool Check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (reported++ < 10) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
    return ok;
  }
  void CheckStatus(const fw::Status& status, const char* what) {
    if (status.ok()) {
      ++attempted;  // The hot path: no message is built.
    } else {
      Check(false, std::string(what) + ": " + status.ToString());
    }
  }
};

Tally g_tally;

// ---------------------------------------------------------------------------
// Changelog directories.

void RemoveTree(const std::string& dir) {
  fw::Result<std::vector<std::string>> names = fw::durability::ListDir(dir);
  if (names.ok()) {
    for (const std::string& name : *names) {
      (void)fw::durability::RemoveFile(dir + "/" + name);
    }
  }
  ::rmdir(dir.c_str());
}

std::string FreshWalDir(const Args& args) {
  static int counter = 0;
  const std::string dir = args.work_dir + "/wal-" + std::to_string(counter++);
  RemoveTree(dir);
  return dir;
}

// Copies the regular files of `from` into a new directory `to`.
bool CopyTree(const std::string& from, const std::string& to) {
  fw::Result<std::vector<std::string>> names = fw::durability::ListDir(from);
  if (!names.ok() || ::mkdir(to.c_str(), 0755) != 0) return false;
  std::string bytes;
  for (const std::string& name : *names) {
    if (!fw::durability::ReadFileBytes(from + "/" + name, &bytes).ok()) {
      return false;
    }
    std::FILE* f = std::fopen((to + "/" + name).c_str(), "wb");
    if (f == nullptr) return false;
    const bool written = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                         bytes.size();
    if (std::fclose(f) != 0 || !written) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// One pass: a StreamSession lifetime over the workload's stream.

// Recoveries per crash: the crashed changelog, then copies of it made
// before the first Recover changes it, so that each crash state is
// recovered several times across the run.
constexpr size_t kCrashRecoveries = 4;

struct PassConfig {
  const QuerySet* queries = nullptr;
  size_t set = 0;  // Index of `queries` among the workload's sets.
  uint32_t num_shards = 1;
  bool factor_windows = true;
  /// Changelog directory; empty runs without durability.
  std::string wal_dir;
  /// Offered load in events/s; 0 is the closed loop.
  double open_rate_eps = 0.0;
  /// Churn steps every this many events (0: none).
  uint64_t churn_every = 0;
  /// Re-add the last initial query instead of drawing from the pool
  /// (ReplanProbe of workloads without churn).
  bool churn_readd = false;
  /// Stream prefix to push (0: all).
  size_t max_events = 0;
  /// Finish at the end; otherwise drop the session (a crash).
  bool finish = true;
  /// After a crash, time kCrashRecoveries recoveries of it and Finish the
  /// first recovered session.
  bool recover = false;
  /// Deliver results (fingerprint + attribution); off for probes, whose
  /// results are not compared with a reference.
  bool deliver = true;
  Tracer* tracer = nullptr;
  uint32_t parent_span = 0;
};

struct PassResult {
  size_t set = 0;
  bool ok = true;
  uint64_t events = 0;
  double seconds = 0.0;  // First push through Finish (or the last push).
  Fingerprint fingerprint;
  uint64_t results = 0;
  uint64_t attribution_violations = 0;
  LogHistogram latency_ns;
  LogHistogram lag_ns;
  LogHistogram push_ns;  // Traced only.
  std::vector<double> replan_ms;  // By churn step.
  std::vector<double> add_query_ms;  // Initial set, traced only.
  std::vector<double> snapshot_push_ms;  // Traced only.
  double finish_ms = 0.0;  // Traced only.
  std::vector<double> recover_s;  // One per recovery.
  uint64_t replayed_events = 0;
  int64_t heap_baseline = 0;
  int64_t heap_peak = 0;
  StreamSession::SessionStats stats;  // After Finish, or at the crash.
  std::vector<uint64_t> shard_events;  // Per shard, before Finish.
  double handoff_ns_p99 = 0.0;
  double predicted_cost = 0.0;  // Shared-plan model cost at set-up.
};

StreamSession::Options SessionOptions(const WorkloadSpec& spec,
                                      const PassConfig& config) {
  StreamSession::Options options;
  options.num_keys = spec.num_keys;
  options.num_shards = config.num_shards;
  options.max_delay = spec.max_delay;
  options.optimizer.enable_factor_windows = config.factor_windows;
  if (!config.wal_dir.empty()) {
    options.durability.enabled = true;
    options.durability.dir = config.wal_dir;
    options.durability.fsync_policy = fw::FsyncPolicy::kNone;
  }
  return options;
}

class PassRunner {
 public:
  PassRunner(const WorkloadSpec& spec, const Inputs& inputs,
             const ClosingIndex& closing)
      : spec_(spec), inputs_(inputs), closing_(closing) {}

  PassResult Run(const PassConfig& config);

 private:
  struct Delivery {
    PassResult* result = nullptr;
    const ClosingIndex* closing = nullptr;
    uint64_t pushed_through = 0;  // Events handed to the session so far.
    uint64_t t0_ns = 0;
    double ns_per_event = 0.0;
    bool open_loop = false;

    void OnResult(uint32_t slot, const WindowResult& r) {
      result->fingerprint.Fold(slot, r);
      ++result->results;
      const uint32_t c = closing->Of(r.end);
      if (c == kNoClosingEvent) return;  // Closed by Finish: not timed.
      // The closing event must already have been pushed.
      if (c >= pushed_through) ++result->attribution_violations;
      if (open_loop) {
        const uint64_t due =
            t0_ns + static_cast<uint64_t>(static_cast<double>(c) *
                                          ns_per_event);
        const uint64_t now = NowNs();
        result->latency_ns.Add(now > due ? now - due : 0);
      }
    }
  };

  const WorkloadSpec& spec_;
  const Inputs& inputs_;
  const ClosingIndex& closing_;
};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// Spins until `due_ns`; returns the time it stopped waiting.
uint64_t WaitUntil(uint64_t due_ns) {
  uint64_t now = NowNs();
  while (now < due_ns) {
    CpuRelax();
    now = NowNs();
  }
  return now;
}

double Ms(uint64_t ns) { return static_cast<double>(ns) / 1e6; }

PassResult PassRunner::Run(const PassConfig& config) {
  PassResult result;
  result.set = config.set;
  Delivery delivery;
  delivery.result = &result;
  delivery.closing = &closing_;
  delivery.open_loop = config.open_rate_eps > 0.0;
  if (delivery.open_loop) delivery.ns_per_event = 1e9 / config.open_rate_eps;

  Tracer* tracer = config.tracer;
  ScopedSpan pass_span(tracer, "pass", config.parent_span);
  const uint32_t parent = pass_span.id();

  const bool batched = spec_.batch > 0;
  const size_t stream_events =
      batched ? inputs_.arrival_ts.size() : inputs_.events.size();
  const size_t total = config.max_events == 0
                           ? stream_events
                           : std::min(config.max_events, stream_events);

  std::vector<std::pair<QueryId, uint32_t>> live;  // (id, slot), oldest first.
  uint32_t next_slot = 0;
  size_t next_pool = 0;

  result.heap_baseline = HeapLiveBytes();
  ResetHeapPeak();
  const uint64_t ctor_ns = NowNs();
  auto session = std::make_unique<StreamSession>(SessionOptions(spec_, config));
  if (tracer != nullptr) tracer->Add("session.ctor", parent, ctor_ns, NowNs());
  auto callback_for = [&](uint32_t slot) -> StreamSession::ResultCallback {
    if (!config.deliver) return nullptr;
    return [&delivery, slot](const WindowResult& r) {
      delivery.OnResult(slot, r);
    };
  };
  auto add = [&](const StreamQuery& query, const char* span,
                 std::vector<double>* ms) {
    const uint32_t slot = next_slot++;
    const uint64_t t0 = NowNs();
    fw::Result<QueryId> id = session->AddQuery(query, callback_for(slot));
    const uint64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Add(span, parent, t0, t1);
    if (ms != nullptr) ms->push_back(Ms(t1 - t0));
    g_tally.CheckStatus(id.status(), "AddQuery");
    if (!id.ok()) {
      result.ok = false;
      return;
    }
    live.emplace_back(*id, slot);
  };
  for (const StreamQuery& query : config.queries->initial) {
    add(query, "session.AddQuery",
        tracer != nullptr ? &result.add_query_ms : nullptr);
  }
  result.predicted_cost = session->Stats().shared_cost;
  if (!result.ok) return result;

  auto churn_step = [&]() {
    // One RemoveQuery plus one AddQuery, timed together as one replan
    // sample: apart, their two cost modes put the median in the gap.
    const size_t victim = config.churn_readd ? live.size() - 1 : 0;
    const StreamQuery& next =
        config.churn_readd
            ? config.queries->initial.back()
            : config.queries->pool[next_pool++ % config.queries->pool.size()];
    const uint64_t t0 = NowNs();
    Status status = session->RemoveQuery(live[victim].first);
    const uint64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Add("session.RemoveQuery", parent, t0, t1);
    g_tally.CheckStatus(status, "RemoveQuery");
    if (!status.ok()) {
      result.ok = false;
      return;
    }
    live.erase(live.begin() + static_cast<long>(victim));
    add(next, "session.AddQuery", nullptr);
    result.replan_ms.push_back(Ms(NowNs() - t0));
  };

  uint64_t snapshots_seen = 0;
  uint64_t since_churn = 0;
  const uint64_t start_ns = NowNs();
  delivery.t0_ns = start_ns;
  auto before_push = [&](size_t last_index) {
    // Open loop: a call is sent when its last event is due.
    if (!delivery.open_loop) return;
    const uint64_t due =
        start_ns + static_cast<uint64_t>(static_cast<double>(last_index) *
                                         delivery.ns_per_event);
    const uint64_t sent = WaitUntil(due);
    result.lag_ns.Add(sent - due);
  };
  uint64_t calls = 0;
  auto after_push = [&](const Status& status, uint64_t t0, uint64_t t1,
                        const char* span) {
    if (tracer != nullptr) {
      // Per-event pushes keep one span in 64 (all feed the histogram), so
      // the span cap still reaches the later phases of the run.
      if (batched || calls++ % 64 == 0) tracer->Add(span, parent, t0, t1);
      result.push_ns.Add(t1 - t0);
      // Snapshots are rare and slow; only a slow push can hold one.
      if (!config.wal_dir.empty() && t1 - t0 > 20'000) {
        const uint64_t written = session->Stats().snapshots_written;
        if (written > snapshots_seen) {
          result.snapshot_push_ms.push_back(Ms(t1 - t0));
          snapshots_seen = written;
        }
      }
    }
    g_tally.CheckStatus(status, span);
    if (!status.ok()) result.ok = false;
  };

  const bool timed_calls = tracer != nullptr;
  if (batched) {
    size_t done = 0;
    for (const EventColumns& chunk : inputs_.chunks) {
      if (done >= total || !result.ok) break;
      const size_t end = done + chunk.size();
      before_push(end - 1);
      delivery.pushed_through = end;
      const uint64_t t0 = timed_calls ? NowNs() : 0;
      Status status = session->PushColumns(chunk);
      const uint64_t t1 = timed_calls ? NowNs() : 0;
      after_push(status, t0, t1, "session.PushColumns");
      done = end;
      since_churn += chunk.size();
      if (config.churn_every > 0 && since_churn >= config.churn_every) {
        since_churn = 0;
        churn_step();
      }
    }
    result.events = done;
  } else {
    size_t i = 0;
    for (; i < total && result.ok; ++i) {
      before_push(i);
      delivery.pushed_through = i + 1;
      const uint64_t t0 = timed_calls ? NowNs() : 0;
      Status status = session->Push(inputs_.events[i]);
      const uint64_t t1 = timed_calls ? NowNs() : 0;
      after_push(status, t0, t1, "session.Push");
      if (config.churn_every > 0 && ++since_churn >= config.churn_every) {
        since_churn = 0;
        churn_step();
      }
    }
    result.events = i;
  }

  result.stats = session->Stats();
  result.shard_events = result.stats.events_per_shard;
  if (config.finish) {
    const uint64_t t0 = NowNs();
    Status status = session->Finish();
    const uint64_t t1 = NowNs();
    if (tracer != nullptr) tracer->Add("session.Finish", parent, t0, t1);
    result.finish_ms = Ms(t1 - t0);
    g_tally.CheckStatus(status, "Finish");
    if (!status.ok()) result.ok = false;
    result.seconds = static_cast<double>(t1 - start_ns) / 1e9;
    result.stats = session->Stats();  // Finish closes windows: more ops.
  } else {
    result.seconds = static_cast<double>(NowNs() - start_ns) / 1e9;
  }
  {
    const fw::telemetry::MetricsSnapshot telemetry =
        session->Metrics().telemetry;
    auto it = telemetry.histograms.find("executor.batch_handoff_ns");
    if (it != telemetry.histograms.end() && it->second.count > 0) {
      result.handoff_ns_p99 = it->second.Percentile(
          SupportedQuantile(0.99, it->second.count));
    }
  }
  if (!config.finish) session.reset();  // The crash: no Finish.

  if (config.recover) {
    const StreamSession::Options options = SessionOptions(spec_, config);
    std::vector<std::string> dirs = {config.wal_dir};
    for (size_t i = 1; i < kCrashRecoveries; ++i) {
      dirs.push_back(config.wal_dir + "-copy" + std::to_string(i));
      g_tally.Check(CopyTree(config.wal_dir, dirs.back()),
                    "copying the crashed changelog to " + dirs.back());
    }
    for (size_t i = 0; i < dirs.size() && result.ok; ++i) {
      const uint64_t t0 = NowNs();
      fw::Result<StreamSession::RecoveryInfo> recovered =
          StreamSession::Recover(dirs[i], options);
      const uint64_t t1 = NowNs();
      if (tracer != nullptr) tracer->Add("session.Recover", parent, t0, t1);
      g_tally.CheckStatus(recovered.status(), "Recover");
      if (!recovered.ok()) {
        result.ok = false;
        break;
      }
      result.recover_s.push_back(static_cast<double>(t1 - t0) / 1e9);
      result.replayed_events =
          recovered->durable_events - recovered->snapshot_events;
      g_tally.Check(recovered->durable_events == result.events,
                    "Recover: durable_events " +
                        std::to_string(recovered->durable_events) +
                        " != events pushed " + std::to_string(result.events));
      if (i > 0) continue;  // Copies only time Recover.
      const uint64_t f0 = NowNs();
      Status status = recovered->session->Finish();
      const uint64_t f1 = NowNs();
      if (tracer != nullptr) tracer->Add("session.Finish", parent, f0, f1);
      result.finish_ms = Ms(f1 - f0);
      g_tally.CheckStatus(status, "Finish after Recover");
    }
    for (size_t i = 1; i < dirs.size(); ++i) RemoveTree(dirs[i]);
  }
  result.heap_peak = HeapPeakBytes();
  session.reset();
  if (config.deliver) {
    g_tally.Check(result.attribution_violations == 0,
                  std::to_string(result.attribution_violations) +
                      " results delivered before their closing event");
  }
  return result;
}

// ---------------------------------------------------------------------------
// References, computed outside every timed region.

class CollectSink : public fw::ResultSink {
 public:
  CollectSink(Fingerprint* fp, uint32_t slot) : fp_(fp), slot_(slot) {}
  void OnResult(const WindowResult& r) override { fp_->Fold(slot_, r); }

 private:
  Fingerprint* fp_;
  uint32_t slot_;
};

// paper_dense: each query's unshared original plan on a PlanExecutor.
// MIN regroups exactly, so the shared plan must match bit for bit.
Fingerprint OriginalPlansReference(const WorkloadSpec& spec,
                                   const Inputs& inputs, const QuerySet& qs) {
  Fingerprint fp;
  for (size_t q = 0; q < qs.initial.size(); ++q) {
    const StreamQuery& query = qs.initial[q];
    fw::QueryPlan plan = fw::QueryPlan::Original(query.windows, query.agg);
    CollectSink sink(&fp, static_cast<uint32_t>(q));
    fw::PlanExecutor executor(plan, {.num_keys = spec.num_keys}, &sink);
    for (const EventColumns& chunk : inputs.SortedChunks()) {
      executor.PushColumns(chunk);
    }
    executor.Finish();
  }
  return fp;
}

// ---------------------------------------------------------------------------
// Metric output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  // Sample count / reported quantile, for the table.
};

std::string SamplesNote(uint64_t n, double q) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "n=%llu, reported p%.4g",
                static_cast<unsigned long long>(n),
                100.0 * SupportedQuantile(q, n));
  return buf;
}

void PrintReport(const Args& args, const std::vector<Metric>& metrics,
                 bool correct) {
  std::printf("perfbench  workload=%s seed=%llu seconds=%d trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-12s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
  const double error_rate =
      g_tally.attempted == 0
          ? 1.0
          : static_cast<double>(g_tally.failed) /
                static_cast<double>(g_tally.attempted);
  std::printf("  %-28s %16.6g %-12s failed=%llu attempted=%llu\n",
              "error_rate", error_rate, "ratio",
              static_cast<unsigned long long>(g_tally.failed),
              static_cast<unsigned long long>(g_tally.attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(g_tally.attempted),
              static_cast<unsigned long long>(g_tally.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

// ---------------------------------------------------------------------------
// The benchmark.

struct Timing {
  size_t set = 0;  // Query set the run used.
  uint64_t events = 0;
  double seconds = 0.0;
};

/// Events over time, each query set's time its fastest run. Noise on a
/// shared host only ever slows a run, and it comes in spells of a second
/// or more that a median over one benchmark run cannot outlast; the
/// fastest run is what the code itself costs. Summing over the sets
/// averages the seed's window-set draws.
double FastestThroughput(const std::vector<Timing>& timings) {
  std::map<size_t, Timing> fastest;
  for (const Timing& t : timings) {
    auto it = fastest.find(t.set);
    if (it == fastest.end() || t.seconds < it->second.seconds) {
      fastest[t.set] = t;
    }
  }
  double events = 0.0, seconds = 0.0;
  for (const auto& [set, t] : fastest) {
    events += static_cast<double>(t.events);
    seconds += t.seconds;
  }
  return events / seconds;
}

// Distinct probe churn steps a run needs: their fastest repetitions feed
// replan_p90_ms, which needs 100 samples.
constexpr size_t kProbeSteps = 128;

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        inputs_(MakeInputs(spec, args.seed)),
        closing_(inputs_.arrival_ts, spec.max_delay),
        runner_(spec, inputs_, closing_),
        budget_s_(static_cast<double>(args.seconds)) {}

  int Run();

 private:
  /// Cycles giving at least `passes` passes (one set: that many passes;
  /// many sets: one cycle).
  size_t MinCycles(size_t passes) const {
    const size_t sets = inputs_.query_sets.size();
    return (passes + sets - 1) / sets;
  }

  const QuerySet& SetFor(size_t pass) const {
    return inputs_.query_sets[pass % inputs_.query_sets.size()];
  }

  PassConfig BaseConfig(size_t pass) const {
    PassConfig config;
    config.set = pass % inputs_.query_sets.size();
    config.queries = &inputs_.query_sets[config.set];
    config.num_shards = spec_.num_shards;
    config.churn_every = spec_.churn_every;
    if (spec_.durable) {
      config.finish = false;
      config.recover = true;
    }
    return config;
  }

  /// Runs `config`, allocating a changelog dir when the workload is
  /// durable, and checks the pass against its reference.
  PassResult RunChecked(PassConfig config, size_t pass);

  /// Passes of `make(pass)` in whole cycles over the query sets, until
  /// `seconds` have elapsed and at least `min_cycles` cycles ran.
  std::vector<PassResult> RunPasses(double seconds, size_t min_cycles,
                                    const std::function<PassConfig(size_t)>&
                                        make);

  const Fingerprint& Reference(size_t pass);

  /// One timed set-up of query set n % sets.
  void SetUp(size_t n, std::vector<double>* seconds);
  void EndToEnd(std::vector<Metric>* out);
  void Ledger(std::vector<Metric>* out);
  /// Replan and recovery of workloads that neither churn nor log, on the
  /// same session shape and the workload's probe sets in turn.
  /// ReplanProbe re-adds the last initial query every 4096 events, at
  /// least 16 times and enough for kProbeSteps distinct steps over the
  /// sets (results then differ from the reference: re-added windows start
  /// cold, so nothing is delivered). RecoverProbe runs a durable variant
  /// over one and a half snapshot intervals, crashes it and recovers (half
  /// an interval to replay).
  size_t ProbeSets() const { return inputs_.probe_sets.size(); }
  PassConfig ProbeConfig(size_t n) const {
    PassConfig config = BaseConfig(n);
    config.set = n % ProbeSets();
    config.queries = &inputs_.probe_sets[config.set];
    return config;
  }
  PassResult ReplanProbe(size_t n, Tracer* tracer);
  PassResult RecoverProbe(size_t n, Tracer* tracer);

  double Throughput(const std::vector<PassResult>& passes) const {
    std::vector<Timing> timings;
    for (const PassResult& p : passes) {
      timings.push_back({p.set, p.events, p.seconds});
    }
    return FastestThroughput(timings);
  }

  const Args& args_;
  const WorkloadSpec& spec_;
  Inputs inputs_;
  ClosingIndex closing_;
  PassRunner runner_;
  double budget_s_;
  std::map<size_t, Fingerprint> references_;  // By query-set index.
};

const Fingerprint& Bench::Reference(size_t pass) {
  const size_t set = pass % inputs_.query_sets.size();
  auto it = references_.find(set);
  if (it != references_.end()) return it->second;
  const QuerySet& qs = inputs_.query_sets[set];
  Fingerprint fp;
  if (spec_.name == "paper_dense") {
    fp = OriginalPlansReference(spec_, inputs_, qs);
  } else if (spec_.name == "fleet_sharded") {
    // A 1-shard strict session over the sorted stream.
    StreamSession::Options options;
    options.num_keys = spec_.num_keys;
    StreamSession session(options);
    for (size_t q = 0; q < qs.initial.size(); ++q) {
      const uint32_t slot = static_cast<uint32_t>(q);
      g_tally.CheckStatus(session
                         .AddQuery(qs.initial[q],
                                   [&fp, slot](const WindowResult& r) {
                                     fp.Fold(slot, r);
                                   })
                         .status(),
                     "reference AddQuery");
    }
    for (const EventColumns& chunk : inputs_.SortedChunks()) {
      g_tally.CheckStatus(session.PushColumns(chunk), "reference PushColumns");
    }
    g_tally.CheckStatus(session.Finish(), "reference Finish");
  } else {
    // A non-durable session with the same churn schedule, dropped at the
    // same point without Finish.
    PassConfig config = BaseConfig(pass);
    config.recover = false;
    PassResult ref = runner_.Run(config);
    fp = ref.fingerprint;
  }
  return references_.emplace(set, fp).first->second;
}

PassResult Bench::RunChecked(PassConfig config, size_t pass) {
  const Fingerprint& expected = Reference(pass);
  const bool durable = spec_.durable && config.wal_dir.empty();
  if (durable) config.wal_dir = FreshWalDir(args_);
  PassResult result = runner_.Run(config);
  if (durable) RemoveTree(config.wal_dir);
  // Without factor windows a churn replan migrates different operators,
  // so windows straddling it legitimately differ; elsewhere the plan
  // never changes what is delivered.
  if (config.deliver && (config.factor_windows || config.churn_every == 0)) {
    g_tally.Check(result.fingerprint == expected,
                  "pass " + std::to_string(pass) + ": " +
                      std::to_string(result.fingerprint.results) +
                      " results differ from the reference's " +
                      std::to_string(expected.results));
  }
  if (spec_.max_delay > 0) {
    g_tally.Check(result.stats.late_events == 0,
                  std::to_string(result.stats.late_events) + " late events");
  }
  return result;
}

std::vector<PassResult> Bench::RunPasses(
    double seconds, size_t min_cycles,
    const std::function<PassConfig(size_t)>& make) {
  // Whole cycles over the query sets, so each set runs equally often.
  const size_t sets = inputs_.query_sets.size();
  std::vector<PassResult> passes;
  const uint64_t start = NowNs();
  for (size_t pass = 0;; ++pass) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (pass % sets == 0 && pass >= min_cycles * sets &&
        (elapsed >= seconds || pass >= 10000)) {
      break;
    }
    passes.push_back(RunChecked(make(pass), pass));
  }
  return passes;
}

void Bench::SetUp(size_t n, std::vector<double>* seconds) {
  // StreamSession construction plus AddQuery of the initial set (the
  // durable constructor creates the changelog directory).
  PassConfig config = BaseConfig(n);
  if (spec_.durable) config.wal_dir = FreshWalDir(args_);
  {
    const uint64_t t0 = NowNs();
    StreamSession session(SessionOptions(spec_, config));
    bool ok = true;
    for (const StreamQuery& query : config.queries->initial) {
      ok = session.AddQuery(query).ok() && ok;
    }
    const uint64_t t1 = NowNs();
    g_tally.Check(ok, "set-up AddQuery");
    seconds->push_back(static_cast<double>(t1 - t0) / 1e9);
  }
  if (!config.wal_dir.empty()) RemoveTree(config.wal_dir);
}

PassResult Bench::ReplanProbe(size_t n, Tracer* tracer) {
  PassConfig config = ProbeConfig(n);
  const size_t steps = std::max<size_t>(
      16, (kProbeSteps + ProbeSets() - 1) / ProbeSets());
  config.churn_every = 4096;
  config.max_events = std::min(spec_.pass_events, config.churn_every * steps);
  config.churn_readd = true;
  config.deliver = false;
  config.tracer = tracer;
  return runner_.Run(config);
}

PassResult Bench::RecoverProbe(size_t n, Tracer* tracer) {
  PassConfig config = ProbeConfig(n);
  config.wal_dir = FreshWalDir(args_);
  config.max_events = 65536 + 32768;
  config.finish = false;
  config.recover = true;
  config.deliver = false;
  config.tracer = tracer;
  PassResult result = runner_.Run(config);
  RemoveTree(config.wal_dir);
  return result;
}

void Bench::EndToEnd(std::vector<Metric>* out) {
  // The phases take turns, each pass going to the phase furthest behind
  // its share of the time. Host noise comes in spells of seconds, so
  // spreading every phase over the whole run evens out what each sees.
  std::vector<PassResult> closed, open;
  std::vector<double> setup_s, replan_ms, recover_s;
  std::vector<PassResult> probes;
  struct Phase {
    double share;
    size_t min_passes;
    std::function<void(size_t)> run;
    double spent = 0.0;
    size_t passes = 0;
  };
  std::vector<Phase> phases;
  const size_t sets = inputs_.query_sets.size();
  // Set-up takes about a millisecond: 16 per turn, the median reported.
  phases.push_back({0.04, 4, [&](size_t n) {
                      for (size_t i = 0; i < 16; ++i) {
                        SetUp(n * 16 + i, &setup_s);
                      }
                    }});
  phases.push_back({0.42, MinCycles(5) * sets, [&](size_t n) {
                      closed.push_back(RunChecked(BaseConfig(n), n));
                    }});
  phases.push_back({0.38, std::min<size_t>(sets, 4), [&](size_t n) {
                      PassConfig config = BaseConfig(n);
                      config.open_rate_eps = spec_.open_rate_eps;
                      open.push_back(RunChecked(config, n));
                    }});
  if (!spec_.durable) {
    phases.push_back({0.08, ProbeSets(), [&](size_t n) {
                        probes.push_back(ReplanProbe(n, nullptr));
                      }});
    phases.push_back({0.08, ProbeSets(), [&](size_t n) {
                        probes.push_back(RecoverProbe(n, nullptr));
                      }});
  }
  const uint64_t start = NowNs();
  for (;;) {
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    bool done = elapsed >= budget_s_;
    Phase* next = nullptr;
    for (Phase& phase : phases) {
      if (phase.passes < phase.min_passes) done = false;
      if (next == nullptr ||
          phase.spent / phase.share < next->spent / next->share) {
        next = &phase;
      }
    }
    if (done) break;
    const uint64_t t0 = NowNs();
    next->run(next->passes++);
    next->spent += static_cast<double>(NowNs() - t0) / 1e9;
  }

  out->push_back({"throughput_eps", Throughput(closed), "events/s",
                  "closed loop, fastest of n=" +
                      std::to_string(closed.size()) +
                      " passes per query set"});
  out->push_back({"setup_s", Median(setup_s), "s",
                  "median of n=" + std::to_string(setup_s.size())});

  LogHistogram latency;
  for (const PassResult& p : open) latency.Merge(p.latency_ns);
  char rate[64];
  std::snprintf(rate, sizeof(rate), "open loop at %.3g events/s, ",
                spec_.open_rate_eps);
  out->push_back({"latency_p50_ms", latency.Percentile(0.5) / 1e6, "ms",
                  rate + SamplesNote(latency.count(), 0.5)});
  out->push_back({"latency_p99_ms", latency.Percentile(0.99) / 1e6, "ms",
                  rate + SamplesNote(latency.count(), 0.99)});
  g_tally.Check(latency.count() > 0, "open loop delivered no timed result");

  // Every crash of a query set leaves the same state, recovered
  // kCrashRecoveries times, so each set's recovery is timed by its fastest
  // repetition and recover_s is the median over the sets. Every pass or
  // probe of a set also repeats the same churn steps, so each step is
  // timed by its fastest repetition and the replan percentiles are over
  // the steps. Host slow spells last seconds; the fastest repetition
  // falls outside them.
  std::map<size_t, double> set_recover_s;
  std::map<std::pair<size_t, size_t>, double> step_ms;  // (set, step).
  size_t recoveries = 0;
  for (const std::vector<PassResult>* passes : {&closed, &open, &probes}) {
    for (const PassResult& p : *passes) {
      for (double s : p.recover_s) {
        auto [it, fresh] = set_recover_s.emplace(p.set, s);
        if (!fresh) it->second = std::min(it->second, s);
        ++recoveries;
      }
      for (size_t step = 0; step < p.replan_ms.size(); ++step) {
        auto [it, fresh] =
            step_ms.emplace(std::make_pair(p.set, step), p.replan_ms[step]);
        if (!fresh) it->second = std::min(it->second, p.replan_ms[step]);
      }
    }
  }
  for (const auto& [set, s] : set_recover_s) recover_s.push_back(s);
  for (const auto& [key, ms] : step_ms) replan_ms.push_back(ms);
  const std::string recover_note =
      "fastest per query set, median of " + std::to_string(recover_s.size()) +
      " sets, n=" + std::to_string(recoveries);
  const std::string replan_note = "each churn step's fastest, ";
  out->push_back({"recover_s", Median(recover_s), "s", recover_note});
  out->push_back({"replan_p50_ms", Percentile(replan_ms, 0.5), "ms",
                  replan_note + SamplesNote(replan_ms.size(), 0.5)});
  out->push_back({"replan_p90_ms", Percentile(replan_ms, 0.9), "ms",
                  replan_note + SamplesNote(replan_ms.size(), 0.9)});

  std::vector<double> mem;
  for (const PassResult& p : closed) {
    mem.push_back(PeakMiBAbove(p.heap_peak, p.heap_baseline));
  }
  out->push_back({"mem_peak_mb", Median(mem), "MiB",
                  "peak heap above pre-set-up heap, median of n=" +
                      std::to_string(mem.size())});
}

// Per-layer ledger: a separate run whose calls into each module are
// timed from the outside, plus standalone runs of single modules on the
// workload's own inputs.
void Bench::Ledger(std::vector<Metric>* out) {
  Tracer tracer(1 << 16);
  const double s = budget_s_;
  auto ratio = [](double a, double b) { return b != 0.0 ? a / b : 0.0; };

  // Untraced, then traced passes of the same configuration;
  // trace.overhead is the ratio of their throughputs.
  std::vector<PassResult> untraced =
      RunPasses(0.15 * s, MinCycles(3) + 1, [&](size_t pass) {
        return BaseConfig(pass);
      });
  const uint32_t root = tracer.Open("ledger.session", 0);
  std::vector<PassResult> traced =
      RunPasses(0.15 * s, MinCycles(3) + 1, [&](size_t pass) {
        PassConfig config = BaseConfig(pass);
        config.tracer = &tracer;
        config.parent_span = root;
        return config;
      });
  tracer.Close(root);
  const double thr = Throughput(untraced);
  const double thr_traced = Throughput(traced);

  LogHistogram push;
  std::vector<double> finish_ms, add_ms, snapshot_ms, replay_eps;
  uint64_t events = 0, results = 0, ops = 0, wal_records = 0, wal_bytes = 0;
  uint64_t reorder_peak = 0;
  std::vector<double> skew, handoff;
  for (const PassResult& p : traced) {
    push.Merge(p.push_ns);
    finish_ms.push_back(p.finish_ms);
    add_ms.insert(add_ms.end(), p.add_query_ms.begin(), p.add_query_ms.end());
    snapshot_ms.insert(snapshot_ms.end(), p.snapshot_push_ms.begin(),
                       p.snapshot_push_ms.end());
    events += p.events;
    results += p.results;
    ops += p.stats.lifetime_ops;
    wal_records += p.stats.wal_records;
    wal_bytes += p.stats.wal_bytes;
    reorder_peak = std::max(reorder_peak, p.stats.reorder_buffer_peak);
    const std::vector<uint64_t>& per = p.shard_events;
    if (!per.empty()) {
      uint64_t max = 0, sum = 0;
      for (uint64_t n : per) {
        max = std::max(max, n);
        sum += n;
      }
      skew.push_back(sum == 0 ? 1.0
                              : static_cast<double>(max) * per.size() /
                                    static_cast<double>(sum));
    }
    handoff.push_back(p.handoff_ns_p99);
    for (double s : p.recover_s) {
      replay_eps.push_back(static_cast<double>(p.replayed_events) / s);
    }
  }
  const double ev = static_cast<double>(events);

  // Durability counts of non-durable workloads come from a durable
  // variant of the same session shape.
  double wal_events = ev;
  const char* wal_note = "traced passes";
  if (!spec_.durable) {
    const uint32_t side = tracer.Open("ledger.durable_variant", 0);
    snapshot_ms.clear();
    replay_eps.clear();
    wal_records = wal_bytes = 0;
    wal_events = 0.0;
    wal_note = "durable variant of this workload";
    for (size_t i = 0; i < 5; ++i) {
      PassResult r = RecoverProbe(i, &tracer);
      snapshot_ms.insert(snapshot_ms.end(), r.snapshot_push_ms.begin(),
                         r.snapshot_push_ms.end());
      for (double s : r.recover_s) {
        replay_eps.push_back(static_cast<double>(r.replayed_events) / s);
      }
      wal_records += r.stats.wal_records;
      wal_bytes += r.stats.wal_bytes;
      wal_events += static_cast<double>(r.events);
    }
    tracer.Close(side);
  }
  out->push_back({"durability.records_per_event",
                  static_cast<double>(wal_records) / wal_events,
                  "records/event", wal_note});
  out->push_back({"durability.bytes_per_event",
                  static_cast<double>(wal_bytes) / wal_events, "bytes/event",
                  wal_note});
  out->push_back({"durability.snapshot_push_ms", Median(snapshot_ms), "ms",
                  "median of n=" + std::to_string(snapshot_ms.size())});
  out->push_back({"durability.replay_eps", Median(replay_eps), "events/s",
                  "median of n=" + std::to_string(replay_eps.size())});

  out->push_back({"session.push_us_p50", push.Percentile(0.5) / 1e3, "us",
                  SamplesNote(push.count(), 0.5)});
  out->push_back({"session.push_us_p99", push.Percentile(0.99) / 1e3, "us",
                  SamplesNote(push.count(), 0.99)});
  out->push_back({"session.finish_ms", Median(finish_ms), "ms",
                  "median of n=" + std::to_string(finish_ms.size())});
  out->push_back({"session.add_query_ms", Median(add_ms), "ms",
                  "median of n=" + std::to_string(add_ms.size())});
  out->push_back({"session.results_per_event",
                  static_cast<double>(results) / ev, "results/event",
                  "traced passes"});
  out->push_back({"exec.ops_per_event", static_cast<double>(ops) / ev,
                  "ops/event", "exact, traced passes"});
  out->push_back({"runtime.shard_skew", skew.empty() ? 1.0 : Median(skew),
                  "ratio", "max/mean events per shard"});
  out->push_back({"runtime.reorder_peak", static_cast<double>(reorder_peak),
                  "events", "max over traced passes"});
  out->push_back({"trace.overhead", ratio(thr_traced, thr), "ratio",
                  "traced / untraced throughput"});

  // Factor windows off: exact ops on every query set, and throughput.
  {
    const uint32_t span = tracer.Open("ledger.factor", 0);
    uint64_t ops_on = 0, ops_off = 0;
    double cost_on = 0.0, cost_off = 0.0;
    for (size_t set = 0; set < inputs_.query_sets.size(); ++set) {
      for (bool on : {true, false}) {
        PassConfig config = BaseConfig(set);
        config.factor_windows = on;
        config.tracer = &tracer;
        config.parent_span = span;
        PassResult r = RunChecked(config, set);
        (on ? ops_on : ops_off) += r.stats.lifetime_ops;
        (on ? cost_on : cost_off) += r.predicted_cost;
      }
    }
    std::vector<PassResult> off =
        RunPasses(0.1 * s, MinCycles(3), [&](size_t pass) {
      PassConfig config = BaseConfig(pass);
      config.factor_windows = false;
      return config;
    });
    tracer.Close(span);
    const double ops_ratio = ratio(static_cast<double>(ops_off),
                                   static_cast<double>(ops_on));
    out->push_back({"factor.ops_ratio", ops_ratio, "ratio",
                    "ops without / with factor windows, exact"});
    out->push_back({"factor.session_boost", ratio(thr, Throughput(off)),
                    "ratio", "throughput with / without factor windows"});
    out->push_back({"cost.model_error",
                    ratio(ratio(cost_off, cost_on), ops_ratio), "ratio",
                    "predicted cost ratio / measured ops ratio"});
  }

  // The same job on the inline single-threaded engine.
  if (spec_.num_shards > 1) {
    std::vector<PassResult> inline_passes =
        RunPasses(0.1 * s, MinCycles(3), [&](size_t pass) {
          PassConfig config = BaseConfig(pass);
          config.num_shards = 1;
          return config;
        });
    out->push_back({"runtime.scaling", ratio(thr, Throughput(inline_passes)),
                    "ratio", "sharded / inline throughput"});
  } else {
    out->push_back({"runtime.scaling", 1.0, "ratio",
                    "inline workload: the job is its own baseline"});
  }

  // Standalone modules on the workload's inputs. The shared plan comes
  // from a session holding the initial query set.
  const size_t batch = spec_.batch > 0 ? spec_.batch : 1024;
  const std::vector<EventColumns> sorted = SortedColumns(inputs_, batch);
  std::vector<fw::QueryPlan> plans;
  for (const QuerySet& qs : inputs_.query_sets) {
    StreamSession::Options options;
    options.num_keys = spec_.num_keys;
    StreamSession session(options);
    for (const StreamQuery& query : qs.initial) {
      g_tally.CheckStatus(session.AddQuery(query).status(), "plan AddQuery");
    }
    plans.push_back(*session.shared_plan());
  }
  auto timed_loop = [&](double seconds, size_t min_reps,
                        const std::function<uint64_t(size_t)>& rep) {
    // Events/s over repetitions of `rep` (repetition i runs query set
    // i % sets), aggregated like throughput_eps: each set's fastest
    // repetition, events over the summed times.
    std::vector<Timing> reps;
    const uint64_t start = NowNs();
    for (size_t i = 0;; ++i) {
      if (reps.size() >= min_reps && i % plans.size() == 0 &&
          static_cast<double>(NowNs() - start) / 1e9 >= seconds) {
        break;
      }
      const uint64_t t0 = NowNs();
      const uint64_t events = rep(i);
      reps.push_back({i % plans.size(), events,
                      static_cast<double>(NowNs() - t0) / 1e9});
    }
    return FastestThroughput(reps);
  };

  {
    const uint32_t span = tracer.Open("ledger.exec.PlanExecutor", 0);
    const bool per_event = spec_.batch == 0;
    const double engine_eps = timed_loop(0.1 * s, 3, [&](size_t i) {
      fw::CountingSink sink;
      const uint32_t rep = tracer.Open("exec.PlanExecutor.run", span);
      fw::PlanExecutor executor(plans[i % plans.size()],
                                {.num_keys = spec_.num_keys}, &sink);
      uint64_t n = 0;
      for (const EventColumns& chunk : sorted) {
        const uint64_t t0 = NowNs();
        if (per_event) {
          for (size_t j = 0; j < chunk.size(); ++j) executor.Push(chunk[j]);
        } else {
          executor.PushColumns(chunk);
        }
        tracer.Add(per_event ? "exec.PlanExecutor.Push x1024"
                             : "exec.PlanExecutor.PushColumns",
                   rep, t0, NowNs());
        n += chunk.size();
      }
      const uint64_t t0 = NowNs();
      executor.Finish();
      tracer.Add("exec.PlanExecutor.Finish", rep, t0, NowNs());
      tracer.Close(rep);
      return n;
    });
    tracer.Close(span);
    out->push_back({"exec.engine_eps", engine_eps, "events/s",
                    "standalone PlanExecutor on the shared plan"});
    out->push_back({"session.overhead_share", 1.0 - ratio(thr, engine_eps),
                    "ratio", "1 - session / engine throughput"});
  }

  {
    // Reorderer on the arrival stream at the workload's max_delay.
    std::vector<fw::Event> arrival = inputs_.events;
    for (const EventColumns& chunk : inputs_.chunks) {
      for (size_t j = 0; j < chunk.size(); ++j) arrival.push_back(chunk[j]);
    }
    const uint32_t span = tracer.Open("ledger.exec.Reorderer", 0);
    const double reorder_eps = timed_loop(0.05 * s, 3, [&](size_t) {
      fw::Reorderer reorderer;
      fw::TimeT newest = arrival.empty() ? 0 : arrival.front().timestamp;
      uint64_t released = 0;
      uint64_t t0 = NowNs();
      for (size_t i = 0; i < arrival.size(); ++i) {
        newest = std::max(newest, arrival[i].timestamp);
        reorderer.Buffer(arrival[i], i);
        released += reorderer.ReleaseThrough(
            newest - spec_.max_delay, [](const fw::Event&) {});
        if ((i + 1) % 4096 == 0) {
          const uint64_t t1 = NowNs();
          tracer.Add("exec.Reorderer.Buffer+ReleaseThrough x4096", span, t0,
                     t1);
          t0 = t1;
        }
      }
      released += reorderer.ReleaseAll([](const fw::Event&) {});
      g_tally.Check(released == arrival.size(), "Reorderer lost events");
      return static_cast<uint64_t>(arrival.size());
    });
    tracer.Close(span);
    out->push_back({"exec.reorder_eps", reorder_eps, "events/s",
                    "standalone Reorderer at the workload's max_delay"});
  }

  {
    // ShardedExecutor at fleet_sharded's width and max_delay.
    const WorkloadSpec& fleet = *FindWorkload("fleet_sharded");
    LogHistogram call_ns;
    std::vector<double> probe_handoff;
    const uint32_t span = tracer.Open("ledger.runtime.ShardedExecutor", 0);
    const double push_eps = timed_loop(0.1 * s, 3, [&](size_t i) {
      fw::telemetry::MetricsRegistry registry;
      fw::ShardedExecutor::Options options;
      options.num_keys = spec_.num_keys;
      options.num_shards = fleet.num_shards;
      options.max_delay = fleet.max_delay;
      options.metrics = &registry;
      fw::CountingSink sink;
      fw::ShardedExecutor executor(plans[i % plans.size()], options, &sink);
      uint64_t n = 0;
      const bool per_event = spec_.batch == 0;
      const std::vector<EventColumns>& chunks =
          per_event ? sorted : inputs_.chunks;
      for (const EventColumns& chunk : chunks) {
        if (per_event) {
          uint64_t t0 = NowNs();
          for (size_t j = 0; j < chunk.size(); ++j) {
            executor.Push(chunk[j]);
            const uint64_t t1 = NowNs();
            call_ns.Add(t1 - t0);
            t0 = t1;
          }
        } else {
          const uint64_t t0 = NowNs();
          executor.PushColumns(chunk);
          const uint64_t t1 = NowNs();
          call_ns.Add(t1 - t0);
          tracer.Add("runtime.ShardedExecutor.PushColumns", span, t0, t1);
        }
        n += chunk.size();
      }
      const uint64_t t0 = NowNs();
      executor.Finish();
      tracer.Add("runtime.ShardedExecutor.Finish", span, t0, NowNs());
      const fw::telemetry::MetricsSnapshot snap = registry.Snapshot();
      auto it = snap.histograms.find("executor.batch_handoff_ns");
      if (it != snap.histograms.end() && it->second.count > 0) {
        probe_handoff.push_back(it->second.Percentile(
            SupportedQuantile(0.99, it->second.count)));
      }
      return n;
    });
    tracer.Close(span);
    out->push_back({"runtime.push_eps", push_eps, "events/s",
                    "standalone ShardedExecutor, 2 shards, max_delay 256"});
    out->push_back({"runtime.push_us_p99", call_ns.Percentile(0.99) / 1e3,
                    "us", SamplesNote(call_ns.count(), 0.99)});
    // The session's own hand-off telemetry when it runs shards; inline
    // workloads take the standalone executor's.
    const bool sharded = Median(handoff) > 0.0;
    out->push_back({"runtime.handoff_ns_p99",
                    sharded ? Median(handoff) : Median(probe_handoff), "ns",
                    sharded ? "session telemetry executor.batch_handoff_ns"
                            : "standalone ShardedExecutor telemetry"});
  }

  {
    // DurabilityManager appends of one-row batches.
    const uint32_t span = tracer.Open("ledger.durability.AppendEvents", 0);
    const double append_eps = timed_loop(0.05 * s, 3, [&](size_t) {
      fw::DurabilityOptions options;
      options.enabled = true;
      options.dir = FreshWalDir(args_);
      options.fsync_policy = fw::FsyncPolicy::kNone;
      options.snapshot_interval_events = 0;
      fw::telemetry::MetricsRegistry registry;
      uint64_t n = 0;
      {
        auto manager =
            fw::durability::DurabilityManager::CreateFresh(options, &registry);
        g_tally.CheckStatus(manager.status(), "DurabilityManager::CreateFresh");
        if (manager.ok()) {
          EventColumns row;
          uint64_t t0 = NowNs();
          const size_t limit = std::min<size_t>(sorted.size(), 64);
          for (size_t c = 0; c < limit; ++c) {
            for (size_t j = 0; j < sorted[c].size(); ++j) {
              row.clear();
              row.Append(sorted[c][j]);
              Status status = (*manager)->AppendEvents(row);
              if (!status.ok()) {
                g_tally.CheckStatus(status, "AppendEvents");
                break;
              }
              ++n;
            }
            const uint64_t t1 = NowNs();
            tracer.Add("durability.AppendEvents x1024", span, t0, t1);
            t0 = t1;
          }
        }
      }
      RemoveTree(options.dir);
      return n;
    });
    tracer.Close(span);
    out->push_back({"durability.append_eps", append_eps, "events/s",
                    "standalone DurabilityManager, one-row batches"});
  }

  {
    std::vector<double> optimize_ms;
    const uint32_t span = tracer.Open("ledger.multi.Optimize", 0);
    const uint64_t start = NowNs();
    for (size_t i = 0;; ++i) {
      if (i >= 21 && static_cast<double>(NowNs() - start) / 1e9 >= 0.03 * s) {
        break;
      }
      const uint64_t t0 = NowNs();
      auto shared = fw::MultiQueryOptimizer::Optimize(SetFor(i).initial);
      const uint64_t t1 = NowNs();
      tracer.Add("multi.MultiQueryOptimizer::Optimize", span, t0, t1);
      g_tally.CheckStatus(shared.status(), "MultiQueryOptimizer::Optimize");
      optimize_ms.push_back(Ms(t1 - t0));
    }
    tracer.Close(span);
    out->push_back({"multi.optimize_ms", Median(optimize_ms), "ms",
                    "median of n=" + std::to_string(optimize_ms.size())});
  }

  {
    // How late the open-loop generator ran (untraced).
    std::vector<PassResult> open = RunPasses(0.1 * s, 1, [&](size_t pass) {
      PassConfig config = BaseConfig(pass);
      config.open_rate_eps = spec_.open_rate_eps;
      return config;
    });
    LogHistogram lag;
    for (const PassResult& p : open) lag.Merge(p.lag_ns);
    out->push_back({"gen.lag_p99_ms", lag.Percentile(0.99) / 1e6, "ms",
                    SamplesNote(lag.count(), 0.99)});
  }

  const std::string path = args_.out_dir + "/spans-" + spec_.name + "-seed" +
                           std::to_string(args_.seed) + ".csv";
  g_tally.Check(tracer.WriteCsv(path), "writing spans to " + path);
  std::fprintf(stderr, "perfbench: wrote %zu spans (%llu dropped) to %s\n",
               tracer.size(), static_cast<unsigned long long>(tracer.dropped()),
               path.c_str());
}

int Bench::Run() {
  std::vector<Metric> metrics;
  if (args_.trace == 0) {
    EndToEnd(&metrics);
  } else {
    Ledger(&metrics);
  }
  for (Metric& m : metrics) {
    // JSON has no NaN or infinity; a metric without samples is a failure.
    if (!g_tally.Check(std::isfinite(m.value), m.name + " is not finite")) {
      m.value = 0.0;
    }
  }
  const bool correct = g_tally.failed == 0;
  PrintReport(args_, metrics, correct);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  const std::string error = perfbench::ParseArgs(argc, argv, &args);
  if (!error.empty()) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: %s --workload NAME --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR --out-dir DIR\n",
                 error.c_str(), argv[0]);
    return 2;
  }
  ::mkdir(args.work_dir.c_str(), 0755);
  ::mkdir(args.out_dir.c_str(), 0755);
  const perfbench::WorkloadSpec& spec = *perfbench::FindWorkload(args.workload);
  perfbench::Bench bench(args, spec);
  return bench.Run();
}
