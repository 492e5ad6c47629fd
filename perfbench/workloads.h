#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

// The benchmark's three workloads. Each stresses a different layer of
// StreamSession (README.md says why each was chosen); the seed given on
// the command line generates every input, and the session receives only
// those inputs.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exec/columns.h"
#include "exec/event.h"
#include "query/query.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  uint32_t num_keys = 1;
  uint32_t num_shards = 1;
  fw::TimeT max_delay = 0;
  /// PushColumns batch size; 0 ingests per event through Push.
  size_t batch = 0;
  /// Durable ingest (changelog under FsyncPolicy::kNone, default
  /// snapshot interval); the pass ends in a crash and a timed Recover.
  bool durable = false;
  /// Events of one pass (one session lifetime).
  size_t pass_events = 0;
  /// Fixed absolute rate of the open-loop phase, events per second.
  double open_rate_eps = 0.0;
  /// Accepted events between churn steps (one RemoveQuery plus one
  /// AddQuery); 0 runs the initial query set unchanged.
  uint64_t churn_every = 0;
};

/// The named workload, or null.
const WorkloadSpec* FindWorkload(std::string_view name);

/// One query set and the stream it runs over. paper_dense draws several
/// of these per seed and cycles through them pass by pass (see
/// MakeInputs), so a run's median covers many window sets rather than
/// one lucky or unlucky draw.
struct QuerySet {
  /// Registered at set-up, in order.
  std::vector<fw::StreamQuery> initial;
  /// Churn pool: step k removes the oldest live query and adds
  /// pool[k % pool.size()].
  std::vector<fw::StreamQuery> pool;
};

struct Inputs {
  std::vector<QuerySet> query_sets;
  /// Query sets of the replan and recovery probes. They do not depend on
  /// the seed: with only a few sets, each repeating often, probe times
  /// depended on the draw more than on the code.
  std::vector<QuerySet> probe_sets;
  /// The stream in arrival order, as events (per-event workloads) or as
  /// batch-sized column chunks (batched workloads); the other is empty.
  std::vector<fw::Event> events;
  std::vector<fw::EventColumns> chunks;
  /// The same stream sorted by timestamp (disordered workloads only;
  /// empty when arrival order is already sorted).
  std::vector<fw::EventColumns> sorted_chunks;
  /// Arrival-order timestamps, for closing-event attribution.
  std::vector<fw::TimeT> arrival_ts;

  const std::vector<fw::EventColumns>& SortedChunks() const {
    return sorted_chunks.empty() ? chunks : sorted_chunks;
  }
};

Inputs MakeInputs(const WorkloadSpec& spec, uint64_t seed);

/// All events of `inputs` in timestamp order as column chunks of
/// `batch` events (reference and standalone-module runs).
std::vector<fw::EventColumns> SortedColumns(const Inputs& inputs,
                                            size_t batch);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
