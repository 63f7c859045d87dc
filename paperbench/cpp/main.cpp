// paperbench: the paper-workload benchmark.
//
//   paperbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// One run sets the workload up three times (setup_s is the median), then
// runs episodes back to back for at least S seconds and at least
// kQualityEpisodes episodes. Episode e is a complete federated run with its
// own simulation seed, derived from N and e. Result checks run after the
// timed region. With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 the timed episodes go through the timing decorators, the
// timed replays follow, the spans are written to DIR, and the run reports
// the per-layer metrics. The last stdout line is the result object; the
// line before it describes the run (workload parameters, seed, threads and
// the program's active HS_* modes).
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "decorators.h"
#include "image/fastpath.h"
#include "kernels/kernels.h"
#include "metrics.h"
#include "replays.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

extern char** environ;

namespace paperbench {
namespace {

constexpr std::size_t kSetupReps = 3;
// Episodes whose results define the deterministic metrics (accuracy,
// delivered share, switch rates, scheduler and wire counts). Always run,
// even when they take longer than --seconds.
constexpr std::size_t kQualityEpisodes = 3;
constexpr double kChanceAccuracy =
    1.0 / static_cast<double>(hetero::SceneGenerator::kNumClasses);

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out = ".bench_build/out";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string value = argv[++i];
    if (key == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::stoull(value);
      have_seed = true;
    } else if (key == "--seconds") {
      a.seconds = std::stod(value);
      have_seconds = a.seconds > 0.0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") {
        throw std::invalid_argument("--trace takes 0 or 1");
      }
      a.trace = value == "1";
      have_trace = true;
    } else if (key == "--out") {
      a.out = value;
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    throw std::invalid_argument(
        "usage: paperbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--out DIR]");
  }
  return a;
}

/// Names of inherited HS_* variables: each would silently change what the
/// program does (kernel tier, ISP path, eval mode, LRU size, ...).
std::vector<std::string> inherited_hs_vars() {
  std::vector<std::string> out;
  for (char** e = environ; e && *e; ++e) {
    if (std::strncmp(*e, "HS_", 3) == 0) {
      const char* eq = std::strchr(*e, '=');
      out.emplace_back(*e, eq ? static_cast<std::size_t>(eq - *e)
                              : std::strlen(*e));
    }
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Peak resident set size (VmHWM) in MB.
double peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

bool same_metrics(const hetero::DeviceMetrics& a,
                  const hetero::DeviceMetrics& b) {
  return a.per_device == b.per_device && a.average == b.average &&
         a.variance == b.variance && a.worst_case == b.worst_case;
}

/// Bit-for-bit equality of everything deterministic in two episodes.
bool same_result(const hetero::SimulationResult& a,
                 const hetero::SimulationResult& b, bool compare_runtime) {
  if (a.train_loss_history != b.train_loss_history) return false;
  if (!same_metrics(a.final_metrics, b.final_metrics)) return false;
  if (a.checkpoints.size() != b.checkpoints.size()) return false;
  for (std::size_t i = 0; i < a.checkpoints.size(); ++i) {
    if (a.checkpoints[i].first != b.checkpoints[i].first ||
        !same_metrics(a.checkpoints[i].second, b.checkpoints[i].second)) {
      return false;
    }
  }
  if (!compare_runtime) return true;
  const hetero::RuntimeStats& x = a.runtime;
  const hetero::RuntimeStats& y = b.runtime;
  return x.clients_dropped == y.clients_dropped &&
         x.clients_quarantined == y.clients_quarantined &&
         x.clients_straggled == y.clients_straggled &&
         x.rounds_aborted == y.rounds_aborted &&
         x.clients_dispatched == y.clients_dispatched &&
         x.updates_committed == y.updates_committed &&
         x.staleness_mean == y.staleness_mean &&
         x.virtual_seconds == y.virtual_seconds &&
         x.round_virtual_seconds == y.round_virtual_seconds;
}

/// Structural sanity of one episode's outputs.
bool well_formed(const Episode& ep, const Session& s) {
  const hetero::SimulationResult& r = ep.result;
  if (r.train_loss_history.size() != s.params().rounds) return false;
  for (double l : r.train_loss_history) {
    if (!std::isfinite(l)) return false;
  }
  const hetero::DeviceMetrics& m = r.final_metrics;
  if (m.per_device.size() != s.population().device_names().size()) {
    return false;
  }
  for (double v : m.per_device) {
    if (!(v >= 0.0 && v <= 1.0)) return false;
  }
  return std::isfinite(m.variance) && m.worst_case <= m.average;
}

/// Client outcomes dispatched in an episode: the scheduler counts them; the
/// sync loop and the wire dispatch K per round.
double dispatched(const Episode& ep, const WorkloadParams& p) {
  const hetero::RuntimeStats& rt = ep.result.runtime;
  if (rt.clients_dispatched > 0) {
    return static_cast<double>(rt.clients_dispatched);
  }
  return static_cast<double>(ep.result.train_loss_history.size() *
                             p.clients_per_round);
}

/// Dropped, timed-out, failed and quarantined clients. With the default
/// min_clients of 1 a round aborts only when every client already failed,
/// so aborted rounds add no further clients.
double failed_clients(const Episode& ep) {
  const hetero::RuntimeStats& rt = ep.result.runtime;
  return static_cast<double>(rt.clients_dropped + rt.clients_quarantined);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_row(const Args& args, const Session& s, std::size_t episodes,
               std::size_t rounds, double failed_share) {
  const WorkloadParams& p = s.params();
  std::ostringstream o;
  o << "{\"row\":{\"workload\":\"" << p.name << "\",\"seed\":" << args.seed
    << ",\"seconds\":" << json_number(args.seconds)
    << ",\"trace\":" << (args.trace ? 1 : 0) << ",\"threads\":" << p.threads
    << ",\"algorithm\":\"" << p.algorithm << "\",\"arch\":\"" << p.arch
    << "\",\"lr\":" << p.lr << ",\"image_size\":" << kImageSize
    << ",\"num_clients\":" << p.num_clients
    << ",\"samples_per_client\":" << p.samples_per_client
    << ",\"test_per_class\":" << p.test_per_class
    << ",\"clients_per_round\":" << p.clients_per_round
    << ",\"rounds_per_episode\":" << p.rounds << ",\"sched\":\"" << p.sched
    << "\",\"faults\":\"" << p.faults << "\",\"eval_every\":" << p.eval_every
    << ",\"checkpoint_every_round\":" << (p.checkpoint_every_round ? 1 : 0)
    << ",\"prefetch\":" << (p.prefetch ? 1 : 0)
    << ",\"net_workers\":" << p.net_workers << ",\"net_edges\":" << p.net_edges
    << ",\"episodes\":" << episodes << ",\"rounds\":" << rounds
    << ",\"failed_share\":" << json_number(failed_share)
    << ",\"modes\":{\"HS_KERNEL\":\""
    << hetero::kernels::kernel_name(hetero::kernels::active_kernel())
    << "\",\"HS_ISP\":\"" << hetero::img::path_name(hetero::img::active_path())
    << "\",\"HS_EVAL\":\""
    << hetero::kernels::eval_mode_name(hetero::kernels::eval_mode())
    << "\",\"HS_POP_CACHE\":" << s.population().cache_capacity() << "}}}";
  std::printf("%s\n", o.str().c_str());
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  std::ostringstream o;
  o << "{\"correct\":" << (correct ? "true" : "false")
    << ",\"attempted\":" << attempted << ",\"failed\":" << failed
    << ",\"metrics\":{";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const auto it = values.find(defs[i].name);
    const double v = it == values.end() ? 0.0 : it->second;
    o << (i ? "," : "") << "\"" << defs[i].name << "\":{\"value\":"
      << json_number(v) << ",\"unit\":\"" << defs[i].unit << "\"}";
  }
  o << "}}";
  std::printf("%s\n", o.str().c_str());
}

int run(const Args& args) {
  namespace fs = std::filesystem;
  const WorkloadParams& params = find_workload(args.workload);
  const std::string work_dir =
      args.out + "/work-" + std::to_string(static_cast<long>(getpid()));
  fs::create_directories(work_dir);

  // Setup, kSetupReps times; the last session is the one measured.
  std::vector<double> setup_times;
  std::unique_ptr<Session> session;
  for (std::size_t r = 0; r < kSetupReps; ++r) {
    session.reset();
    const auto t0 = std::chrono::steady_clock::now();
    session = std::make_unique<Session>(params, args.seed, work_dir);
    setup_times.push_back(seconds_since(t0));
  }
  Session& s = *session;

  // Timed region.
  SpanStore spans(args.trace);
  std::vector<Episode> eps;
  const auto t0 = std::chrono::steady_clock::now();
  while (eps.size() < kQualityEpisodes || seconds_since(t0) < args.seconds) {
    eps.push_back(s.run_episode(eps.size(), args.trace ? &spans : nullptr));
    const Episode& ep = eps.back();
    std::fprintf(stderr, "paperbench: episode %zu: %zu rounds in %.3f s\n",
                 eps.size() - 1, ep.result.train_loss_history.size(),
                 ep.wall_seconds);
  }

  // Result checks, outside the timed region.
  std::vector<std::string> failures;
  std::vector<bool> episode_ok(eps.size(), true);
  for (std::size_t e = 0; e < eps.size(); ++e) {
    if (!well_formed(eps[e], s)) {
      episode_ok[e] = false;
      failures.push_back("episode " + std::to_string(e) + " malformed");
    }
  }
  for (std::size_t e = 0; e < kQualityEpisodes; ++e) {
    if (!(eps[e].result.final_metrics.average > kChanceAccuracy)) {
      episode_ok[e] = false;
      failures.push_back("episode " + std::to_string(e) +
                         " avg_acc at or below chance");
    }
  }
  // Episode 0 again through the other side of the decorators: the timing
  // layer must not change a single bit.
  SpanStore check_spans(true);
  const Episode other =
      s.run_episode(0, args.trace ? nullptr : &check_spans);
  std::size_t check_rounds = other.result.train_loss_history.size();
  if (!same_result(eps[0].result, other.result, true)) {
    episode_ok[0] = false;
    failures.push_back("decorated and undecorated episode 0 differ");
  }
  if (params.net_workers > 0) {
    const Episode inproc = s.run_episode(0, nullptr, Engine::kInProcess);
    check_rounds += inproc.result.train_loss_history.size();
    if (!same_result(eps[0].result, inproc.result, false)) {
      episode_ok[0] = false;
      failures.push_back("loopback and in-process edge_groups differ");
    }
  }

  // Deterministic metrics over the quality episodes.
  double acc_avg = 0.0, acc_worst = 0.0, acc_var = 0.0;
  double sent = 0.0, lost = 0.0;
  hetero::PopulationCounters pop_q;
  std::size_t q_rounds = 0, updates_seen = 0, sw1 = 0, sw2 = 0;
  std::size_t committed = 0;
  double staleness = 0.0, virtual_s = 0.0, net_bytes = 0.0, net_frames = 0.0;
  for (std::size_t e = 0; e < kQualityEpisodes; ++e) {
    const Episode& ep = eps[e];
    acc_avg += ep.result.final_metrics.average / kQualityEpisodes;
    acc_worst += ep.result.final_metrics.worst_case / kQualityEpisodes;
    acc_var += ep.result.final_metrics.variance / kQualityEpisodes;
    sent += dispatched(ep, params);
    lost += failed_clients(ep);
    pop_q.materializations += ep.pop.materializations;
    pop_q.cache_hits += ep.pop.cache_hits;
    pop_q.cache_misses += ep.pop.cache_misses;
    q_rounds += ep.result.train_loss_history.size();
    updates_seen += ep.updates_seen;
    sw1 += ep.switch1;
    sw2 += ep.switch2;
    committed += ep.result.runtime.updates_committed;
    staleness += ep.result.runtime.staleness_mean / kQualityEpisodes;
    virtual_s += ep.result.runtime.virtual_seconds;
    net_bytes += static_cast<double>(ep.net.bytes_tx);
    net_frames += static_cast<double>(ep.net.frames_tx);
  }
  const double failed_share = sent > 0.0 ? lost / sent : 0.0;
  if (params.faults.empty() && failed_share != 0.0) {
    failures.push_back("clients failed without injected faults");
  }

  // Timed-region aggregates.
  std::size_t rounds = 0;
  double wall = 0.0;
  std::vector<double> round_seconds;
  for (const Episode& ep : eps) {
    rounds += ep.result.train_loss_history.size();
    wall += ep.wall_seconds;
    round_seconds.insert(round_seconds.end(),
                         ep.result.runtime.round_seconds.begin(),
                         ep.result.runtime.round_seconds.end());
  }

  std::map<std::string, double> values;
  const std::vector<MetricDef>* defs = &end_to_end_metrics();
  if (!args.trace) {
    values["rounds_per_s"] = static_cast<double>(rounds) / wall;
    values["setup_s"] = median(setup_times);
    values["peak_rss_mb"] = peak_rss_mb();
    values["delivered_share"] = 1.0 - failed_share;
  } else {
    defs = &per_layer_metrics();
    ReplayResult replay = run_replays(s, spans, work_dir);
    for (const std::string& f : replay.failed_checks) failures.push_back(f);
    values = replay.metrics;

    const double cd = spans.total_seconds(kSpanClientDataset);
    const double lu = spans.total_seconds(kSpanLocalUpdate);
    const std::size_t calls = spans.count(kSpanClientDataset);
    values["pop.materialize_ms"] =
        calls ? cd / static_cast<double>(calls) * 1e3 : 0.0;
    values["pop.gen_share"] = cd + lu > 0.0 ? cd / (cd + lu) : 0.0;
    values["pop.hit_ratio"] = hit_ratio(pop_q);
    values["pop.materializations"] =
        static_cast<double>(pop_q.materializations);

    const std::size_t updates = spans.count(kSpanLocalUpdate);
    values["fl.local_update_ms"] =
        updates ? lu / static_cast<double>(updates) * 1e3 : 0.0;
    if (params.algorithm == "heteroswitch") {
      values["hetero.switch1_rate"] =
          updates_seen ? static_cast<double>(sw1) / updates_seen : 0.0;
      values["hetero.switch2_rate"] =
          updates_seen ? static_cast<double>(sw2) / updates_seen : 0.0;
    }
    // Server-side aggregation per round, edge digests included.
    values["fl.aggregate_ms"] = (spans.total_seconds(kSpanAggregate) +
                                 spans.total_seconds(kSpanPartialAggregate)) /
                                static_cast<double>(rounds) * 1e3;

    values["runtime.idle_share"] = idle_share(cd + lu, params.threads, wall);
    values["runtime.round_ms_p50"] = median(round_seconds) * 1e3;
    values["runtime.round_ms_tail"] = tail_value(round_seconds) * 1e3;

    values["fl.worst_acc"] = acc_worst;
    values["fl.avg_acc"] = acc_avg;
    values["fl.acc_variance"] = acc_var;
    values["sched.updates_committed"] = static_cast<double>(committed);
    values["sched.staleness_mean"] = staleness;
    values["sched.virtual_s"] = virtual_s;

    if (params.net_workers > 0) {
      const double bytes_per_round = net_bytes / static_cast<double>(q_rounds);
      values["net.bytes_per_round"] = bytes_per_round;
      values["net.frames_per_round"] =
          net_frames / static_cast<double>(q_rounds);
      // Codec time per byte, from the replayed model-state frame, times the
      // bytes a round moves, over the mean round wall time.
      const double codec_s_per_byte =
          (values["net.encode_us"] + values["net.decode_us"]) * 1e-6 /
          replay.frame_bytes;
      values["net.codec_share"] =
          codec_s_per_byte * bytes_per_round / (wall / rounds);
    }
    const double untraced_rps =
        static_cast<double>(other.result.train_loss_history.size()) /
        other.wall_seconds;
    const double traced_rps =
        static_cast<double>(eps[0].result.train_loss_history.size()) /
        eps[0].wall_seconds;
    values["obs.trace_overhead"] = untraced_rps / traced_rps - 1.0;

    fs::create_directories(args.out);
    spans.write_jsonl(args.out + "/spans-" + params.name + "-" +
                      std::to_string(args.seed) + ".jsonl");
  }
  fs::remove_all(work_dir);

  std::size_t failed = 0;
  for (std::size_t e = 0; e < eps.size(); ++e) {
    if (!episode_ok[e]) failed += eps[e].result.train_loss_history.size();
  }
  for (const std::string& f : failures) {
    std::fprintf(stderr, "paperbench: check failed: %s\n", f.c_str());
  }
  print_row(args, s, eps.size(), rounds, failed_share);
  print_result(failures.empty(), rounds + check_rounds, failed, *defs, values);
  return 0;
}

}  // namespace
}  // namespace paperbench

int main(int argc, char** argv) {
  const std::vector<std::string> inherited = paperbench::inherited_hs_vars();
  if (!inherited.empty()) {
    std::fprintf(stderr,
                 "paperbench: refusing to run with inherited HS_* variables "
                 "(they change what is measured):");
    for (const std::string& v : inherited) {
      std::fprintf(stderr, " %s", v.c_str());
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  try {
    return paperbench::run(paperbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "paperbench: %s\n", e.what());
    return 1;
  }
}
