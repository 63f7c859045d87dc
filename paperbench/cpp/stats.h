// Arithmetic shared by the benchmark's metrics, kept apart so the
// self-tests can check it: order statistics, the runtime idle share and the
// population hit ratio.
#pragma once

#include <cstddef>
#include <vector>

#include "fl/client_provider.h"

namespace paperbench {

/// Linear-interpolated quantile, q in [0, 1]. Throws on an empty input.
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The highest order statistic with at least `beyond` samples above it
/// (the largest value when there are too few samples for that).
double tail_value(std::vector<double> values, std::size_t beyond = 10);

/// 1 - client time / (threads * wall): the share of worker capacity the
/// round engine left idle. Clamped to [0, 1].
double idle_share(double client_seconds, std::size_t threads,
                  double wall_seconds);

/// Cache hits over client_dataset calls (0 when there were no calls).
double hit_ratio(const hetero::PopulationCounters& delta);

}  // namespace paperbench
