#include "metrics.h"

#include <set>

#include "replays.h"
#include "workloads.h"

namespace paperbench {

namespace {

std::vector<MetricDef> build_per_layer() {
  std::vector<MetricDef> out;
  auto add = [&out](std::string name, std::string unit, bool higher) {
    out.push_back({std::move(name), std::move(unit), higher});
  };
  for (const char* stage :
       {"scene.generate_us", "isp.sensor_us", "isp.denoise_us",
        "isp.demosaic_us", "isp.white_balance_us", "isp.gamut_us",
        "isp.tone_us", "isp.jpeg_us", "isp.resize_us"}) {
    add(stage, "us", false);
  }
  add("pop.materialize_ms", "ms", false);
  add("pop.gen_share", "ratio", false);
  add("pop.hit_ratio", "ratio", true);
  add("pop.materializations", "count", false);

  std::set<std::string> named;
  for (const WorkloadParams& p : all_workloads()) {
    for (const std::string& l : top_level_layers(p.arch)) {
      if (!named.insert(l).second) continue;
      add("nn.fwd_us." + l, "us", false);
      add("nn.bwd_us." + l, "us", false);
    }
  }
  add("nn.sgd_step_us", "us", false);

  add("hetero.probe_ms", "ms", false);
  add("hetero.transform_us", "us", false);
  add("hetero.switch1_rate", "ratio", true);
  add("hetero.switch2_rate", "ratio", true);

  add("fl.local_update_ms", "ms", false);
  add("fl.aggregate_ms", "ms", false);
  add("fl.eval_ms", "ms", false);
  add("fl.ckpt_write_ms", "ms", false);
  // The paper's DG and fairness numbers on the final models. Reported
  // here, not end to end: at this training scale they move by 15-40% from
  // one workload seed to the next, more than any bound the benchmark may
  // set. The result checks guard them instead (bit identity across the
  // decorators and the wire, and avg_acc above chance).
  add("fl.worst_acc", "ratio", true);
  add("fl.avg_acc", "ratio", true);
  add("fl.acc_variance", "ratio2", false);

  add("runtime.idle_share", "ratio", false);
  add("runtime.round_ms_p50", "ms", false);
  add("runtime.round_ms_tail", "ms", false);

  add("sched.updates_committed", "count", true);
  add("sched.staleness_mean", "versions", false);
  // Simulated time of the virtual clock, not wall time: exactly 0 on a
  // sync workload without injected faults.
  add("sched.virtual_s", "virtual-s", false);

  add("net.bytes_per_round", "B", false);
  add("net.frames_per_round", "count", false);
  add("net.encode_us", "us", false);
  add("net.decode_us", "us", false);
  add("net.codec_share", "ratio", false);

  add("obs.trace_overhead", "ratio", false);
  return out;
}

}  // namespace

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> metrics = {
      {"rounds_per_s", "1/s", true},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MB", false},
      {"delivered_share", "ratio", true},
  };
  return metrics;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> metrics = build_per_layer();
  return metrics;
}

}  // namespace paperbench
