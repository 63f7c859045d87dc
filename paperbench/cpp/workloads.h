// The benchmark's three paper-shaped workloads and one seeded session of
// each. Only the population spec, the model and the simulation config are
// built from the seed; everything else is fixed per workload, so two runs
// with one seed do the same work.
//
//   hs-cold        sync HeteroSwitch over a 100k-client VirtualPopulation;
//                  nearly every sampled client misses the dataset LRU, so
//                  scene + sensor + ISP capture runs inside every round,
//                  and the loop checkpoints every round.
//   hs-warm-async  buffered-async HeteroSwitch with injected faults over 48
//                  clients prefetched into the LRU during setup: capture
//                  does no work, training, probes, eval and the event
//                  scheduler do.
//   fedavg-wire    FedAvg on mlp-tiny over the in-process loopback wire
//                  (4 workers, 2 edges): large state, little compute, so
//                  frame encode / CRC / parse / decode dominate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fl/population.h"
#include "fl/simulation.h"
#include "net/wire.h"
#include "nn/model.h"
#include "scene/scene_gen.h"
#include "spans.h"

namespace paperbench {

/// Side of every captured image and model input (the paper's 32 px).
inline constexpr std::size_t kImageSize = 32;

struct WorkloadParams {
  std::string name;
  std::string algorithm;  ///< "heteroswitch" or "fedavg"
  std::string arch;       ///< model zoo architecture
  float lr = 0.1f;        ///< client SGD learning rate (B=10, E=1)
  std::size_t num_clients = 0;
  std::size_t samples_per_client = 0;
  std::size_t test_per_class = 0;
  std::size_t clients_per_round = 0;  ///< K
  std::size_t rounds = 0;             ///< server rounds per episode
  std::size_t threads = 1;
  std::string sched;   ///< parse_sched_spec format; empty = sync
  std::string faults;  ///< parse_fault_spec format; empty = none
  std::size_t eval_every = 0;
  bool checkpoint_every_round = false;
  bool prefetch = false;  ///< fill the dataset LRU with every client
  std::size_t net_workers = 0;  ///< > 0 runs over the loopback wire
  std::size_t net_edges = 0;
};

/// Every workload, in the order BENCHMARK.json lists them.
const std::vector<WorkloadParams>& all_workloads();
/// Throws std::invalid_argument for an unknown name.
const WorkloadParams& find_workload(const std::string& name);

/// Cumulative provider counters, differenced around one episode.
hetero::PopulationCounters counters_delta(const hetero::PopulationCounters& a,
                                          const hetero::PopulationCounters& b);

/// One episode: a full run_simulation / loopback run of `rounds` server
/// rounds from the session's initial model, ending in per-device eval.
struct Episode {
  hetero::SimulationResult result;
  hetero::net::NetCounters net;     ///< zero unless on the loopback wire
  hetero::PopulationCounters pop;   ///< this episode's counter delta
  double wall_seconds = 0.0;
  std::size_t updates_seen = 0;     ///< decorated runs only
  std::size_t switch1 = 0;
  std::size_t switch2 = 0;
};

/// How an episode runs: the workload's own engine, or (for loopback
/// workloads) the in-process run_simulation with edge_groups equal to the
/// loopback edge count, which DESIGN.md §14 says must match bit for bit.
enum class Engine { kWorkload, kInProcess };

class Session {
 public:
  /// Builds the population (device test sets), prefetches it when the
  /// workload asks, initialises the model and runs a two-round warm-up
  /// episode: everything before the first timed round. `work_dir` holds
  /// checkpoint directories; it must exist.
  Session(const WorkloadParams& params, std::uint64_t seed,
          std::string work_dir);

  const WorkloadParams& params() const { return params_; }
  std::uint64_t seed() const { return seed_; }
  const hetero::VirtualPopulation& population() const { return *pop_; }
  hetero::Model& model() { return *model_; }
  const hetero::Tensor& initial_state() const { return init_state_; }

  /// Simulation seed of episode e (a pure function of the workload seed).
  std::uint64_t episode_seed(std::size_t e) const;

  /// Runs episode e. With `spans` the provider and algorithm are wrapped in
  /// the timing decorators; without, they are called directly.
  Episode run_episode(std::size_t e, SpanStore* spans,
                      Engine engine = Engine::kWorkload);

  /// A fresh instance of the workload's algorithm.
  std::unique_ptr<hetero::SplitFederatedAlgorithm> make_algorithm() const;

 private:
  hetero::SimulationConfig make_config(std::size_t e) const;

  WorkloadParams params_;
  std::uint64_t seed_;
  std::string work_dir_;
  hetero::SceneGenerator scenes_;
  std::unique_ptr<hetero::VirtualPopulation> pop_;
  std::unique_ptr<hetero::Model> model_;
  hetero::Tensor init_state_;
};

}  // namespace paperbench
