// The benchmark's metric catalog: every end-to-end and per-layer metric it
// can report, with unit and direction. BENCHMARK.json lists the same names
// (the self-tests compare the two). A traced run reports every per-layer
// metric; a layer that does not run on a workload reports 0.
#pragma once

#include <string>
#include <vector>

namespace paperbench {

struct MetricDef {
  std::string name;
  std::string unit;
  bool higher_better = false;
};

const std::vector<MetricDef>& end_to_end_metrics();
/// Includes nn.fwd_us.<i>-<Layer> / nn.bwd_us.<i>-<Layer> for the top-level
/// layers of every workload's model.
const std::vector<MetricDef>& per_layer_metrics();

}  // namespace paperbench
