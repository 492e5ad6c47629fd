#include "workloads.h"

#include <algorithm>

#include "common/rng.h"
#include "workload/datagen.h"
#include "workload/generator.h"

namespace perfbench {
namespace {

using fw::EventColumns;
using fw::StreamQuery;
using fw::Window;
using fw::WindowSet;

// Open-loop rates sit near half of the closed-loop throughput measured
// on a 4-core x86-64 host when the benchmark was defined, taken from the
// slow end so that a slow spell of the host does not saturate the
// session: paper_dense at half of its slowest query sets' rate (about
// 4.5M events/s), durable_churn at about a third of its typical 500k.
// They are fixed so that later changes are timed against the same
// offered load.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = {
      {.name = "paper_dense",
       .num_keys = 1,
       .num_shards = 1,
       .max_delay = 0,
       .batch = 4096,
       .durable = false,
       .pass_events = 1 << 17,
       .open_rate_eps = 2.0e6,
       .churn_every = 0},
      {.name = "fleet_sharded",
       .num_keys = 256,
       .num_shards = 2,
       .max_delay = 256,
       .batch = 1024,
       .durable = false,
       .pass_events = 1 << 19,
       .open_rate_eps = 3.5e5,
       .churn_every = 0},
      {.name = "durable_churn",
       .num_keys = 64,
       .num_shards = 1,
       .max_delay = 0,
       .batch = 0,
       .durable = true,
       // Four snapshot intervals and a half: every crash leaves half an
       // interval of changelog for Recover to replay.
       .pass_events = 4 * 65536 + 32768,
       .open_rate_eps = 1.5e5,
       .churn_every = 4096},
  };
  return specs;
}

StreamQuery MakeQuery(const char* agg, bool per_key, const WindowSet& w) {
  StreamQuery query;
  query.source = "stream";
  query.agg = fw::Agg(agg);
  query.value_column = "v";
  query.per_key = per_key;
  if (per_key) query.key_column = "k";
  query.windows = w;
  return query;
}

WindowSet Windows(std::initializer_list<Window> windows) {
  WindowSet set;
  for (const Window& w : windows) (void)set.Add(w);
  return set;
}

// Table I's generators: dashboards alternate RandomGen and SequentialGen
// tumbling sets of five windows, each from its own stream of the seed.
// One set's cost depends heavily on its draw (a sequential set starting
// at T(4) delivers five times the results of one starting at T(20)), so
// a seed draws many sets and passes cycle through them.
constexpr int kPaperQuerySets = 64;
constexpr int kPaperDashboards = 3;
// The probes' sets are drawn the same way from a fixed seed.
constexpr int kPaperProbeSets = 8;
constexpr uint64_t kPaperProbeSeed = 42;

QuerySet PaperDenseSet(uint64_t seed, int set_index) {
  QuerySet set;
  for (int d = 0; d < kPaperDashboards; ++d) {
    const uint64_t stream =
        static_cast<uint64_t>(set_index * kPaperDashboards + d);
    fw::Rng rng(seed * 1000003ull + stream);
    const bool sequential = (set_index + d) % 2 == 1;
    WindowSet windows = sequential ? fw::SequentialGenWindowSet(5, true, &rng)
                                   : fw::RandomGenWindowSet(5, true, &rng);
    set.initial.push_back(MakeQuery("MIN", false, windows));
  }
  return set;
}

// ROADMAP fleet dashboards, as in bench/bench_shard_scaling.cc.
QuerySet FleetSet() {
  QuerySet set;
  set.initial.push_back(
      MakeQuery("MAX", true, Windows({Window(20, 20), Window(60, 20)})));
  set.initial.push_back(MakeQuery("MAX", true, Windows({Window(40, 40)})));
  set.initial.push_back(MakeQuery("MAX", true, Windows({Window(120, 120)})));
  return set;
}

// Four live per-device MIN queries. The pool of sixteen (two or three
// tumbling windows each) and the cycle churn walks through it (four
// shuffles, 64 additions) are fixed, and so are the two query sets,
// which start 32 additions apart so that crashes land in two different
// states; the seed generates the stream. A pass takes 72 churn steps and
// covers the whole cycle. Drawing the schedule from the seed made replan
// and recovery times depend on the draw more than on the code. Two sets,
// not more, so that each churn step and crash state repeats often enough
// in a run for its fastest repetition to be steady.
constexpr int kChurnLive = 4;
constexpr int kChurnPool = 16;
constexpr int kChurnCycle = 64;
constexpr int kChurnSets = 2;
constexpr uint64_t kChurnPoolSeed = 42;

std::vector<QuerySet> DurableChurnSets() {
  fw::Rng rng(kChurnPoolSeed);
  std::vector<StreamQuery> pool;
  for (int i = 0; i < kChurnPool; ++i) {
    const int size = 2 + static_cast<int>(rng.Uniform(0, 1));
    pool.push_back(
        MakeQuery("MIN", true, fw::RandomGenWindowSet(size, true, &rng)));
  }
  std::vector<int> cycle;
  std::vector<int> order(kChurnPool);
  while (cycle.size() < kChurnCycle) {
    for (int i = 0; i < kChurnPool; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng.engine());
    cycle.insert(cycle.end(), order.begin(), order.end());
  }
  std::vector<QuerySet> sets(kChurnSets);
  for (int k = 0; k < kChurnSets; ++k) {
    const int start = k * (kChurnCycle / kChurnSets);
    for (int i = 0; i < kChurnLive + kChurnCycle; ++i) {
      const StreamQuery& query = pool[cycle[(start + i) % kChurnCycle]];
      (i < kChurnLive ? sets[k].initial : sets[k].pool).push_back(query);
    }
  }
  return sets;
}

std::vector<EventColumns> Chunk(const std::vector<fw::Event>& events,
                                size_t batch) {
  return fw::SplitIntoColumns(events, batch);
}

}  // namespace

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed) {
  Inputs inputs;
  if (spec.name == "paper_dense") {
    for (int i = 0; i < kPaperQuerySets; ++i) {
      inputs.query_sets.push_back(PaperDenseSet(seed, i));
    }
    for (int i = 0; i < kPaperProbeSets; ++i) {
      inputs.probe_sets.push_back(PaperDenseSet(kPaperProbeSeed, i));
    }
  } else if (spec.name == "fleet_sharded") {
    inputs.query_sets.push_back(FleetSet());
    inputs.probe_sets = inputs.query_sets;
  } else {
    inputs.query_sets = DurableChurnSets();
  }

  std::vector<fw::Event> events =
      fw::GenerateSyntheticStream(spec.pass_events, spec.num_keys, seed);
  if (spec.max_delay > 0) {
    // Displace each event by up to max_delay positions; at one event per
    // time unit no event falls behind the watermark, so none is late.
    std::vector<fw::Event> arrival = fw::ApplyBoundedDisorder(
        events, static_cast<size_t>(spec.max_delay), seed ^ 0xD150D3E5ull);
    inputs.sorted_chunks = Chunk(events, spec.batch == 0 ? 1024 : spec.batch);
    events.swap(arrival);
  }
  inputs.arrival_ts.reserve(events.size());
  for (const fw::Event& e : events) inputs.arrival_ts.push_back(e.timestamp);
  if (spec.batch > 0) {
    inputs.chunks = Chunk(events, spec.batch);
  } else {
    inputs.events = std::move(events);
  }
  return inputs;
}

std::vector<EventColumns> SortedColumns(const Inputs& inputs, size_t batch) {
  std::vector<fw::Event> events;
  for (const EventColumns& c : inputs.SortedChunks()) {
    for (size_t i = 0; i < c.size(); ++i) events.push_back(c[i]);
  }
  if (events.empty()) events = inputs.events;  // Per-event, sorted already.
  return Chunk(events, batch);
}

}  // namespace perfbench
