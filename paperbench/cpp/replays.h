// Timed replays: after the timed episodes of a traced run, the benchmark
// calls the program's public layer functions directly, one at a time, on the
// workload's own inputs, and records a span around each call. This is how
// layers that the decorators cannot reach are measured from outside:
// scene generation, sensor capture and each ISP stage, every top-level
// network layer forward and backward, the optimizer step, HeteroSwitch's
// probe and transform, per-device eval, the checkpoint writer, and the wire
// codec. Each replay also checks that its composed calls reproduce the
// program's own result bit for bit, so it measures the same work the
// workload does.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "spans.h"
#include "workloads.h"

namespace paperbench {

/// Per-layer values (microseconds / milliseconds as the metric names say)
/// plus the names of any fidelity checks that failed.
struct ReplayResult {
  std::map<std::string, double> metrics;
  std::vector<std::string> failed_checks;
  double frame_bytes = 0.0;  ///< size of the replayed model-state frame
};

/// Runs every replay on the session's workload and records its spans in
/// `spans`. Replays also run where the workload never calls the layer (the
/// probe on FedAvg, the checkpoint writer off hs-cold, the wire codec off
/// the wire), so each per-layer metric is measured on every workload. `work_dir` receives the replayed checkpoint file.
ReplayResult run_replays(Session& session, SpanStore& spans,
                         const std::string& work_dir);

/// "<i>-<LayerName>" for each top-level layer of `arch`, in order. Throws
/// when the model is not a Sequential.
std::vector<std::string> top_level_layers(const std::string& arch);

}  // namespace paperbench
