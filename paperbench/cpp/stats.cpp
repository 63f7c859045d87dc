#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace paperbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no values");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double tail_value(std::vector<double> values, std::size_t beyond) {
  if (values.empty()) throw std::invalid_argument("tail of no values");
  std::sort(values.begin(), values.end());
  if (values.size() <= beyond) return values.back();
  return values[values.size() - 1 - beyond];
}

double idle_share(double client_seconds, std::size_t threads,
                  double wall_seconds) {
  if (threads == 0 || wall_seconds <= 0.0) return 0.0;
  const double busy = client_seconds / (static_cast<double>(threads) *
                                        wall_seconds);
  return std::clamp(1.0 - busy, 0.0, 1.0);
}

double hit_ratio(const hetero::PopulationCounters& delta) {
  if (delta.materializations == 0) return 0.0;
  return static_cast<double>(delta.cache_hits) /
         static_cast<double>(delta.materializations);
}

}  // namespace paperbench
