// Forwarding decorators that time the program's layer boundaries from
// outside: every virtual forwards to the wrapped object unchanged, and the
// four boundaries the benchmark reports (client_dataset, local_update,
// aggregate, partial_aggregate) each record one span. A decorated run must
// reproduce the undecorated run bit for bit; the benchmark checks that on
// every run.
#pragma once

#include <string>
#include <vector>

#include "fl/algorithm.h"
#include "fl/client_provider.h"
#include "spans.h"

namespace paperbench {

/// Span names recorded by the decorators.
inline constexpr const char* kSpanClientDataset = "pop.client_dataset";
inline constexpr const char* kSpanLocalUpdate = "fl.local_update";
inline constexpr const char* kSpanAggregate = "fl.aggregate";
inline constexpr const char* kSpanPartialAggregate = "fl.partial_aggregate";

class TimedProvider final : public hetero::ClientProvider {
 public:
  TimedProvider(const hetero::ClientProvider& inner, SpanStore& spans)
      : inner_(inner), spans_(spans) {}

  std::size_t num_clients() const override { return inner_.num_clients(); }
  std::size_t device_of(std::size_t client) const override {
    return inner_.device_of(client);
  }
  double work_of(std::size_t client) const override {
    return inner_.work_of(client);
  }
  const hetero::Dataset& client_dataset(
      std::size_t client, hetero::ClientSlot& slot) const override {
    ScopedSpan span(spans_, kSpanClientDataset);
    return inner_.client_dataset(client, slot);
  }
  const std::vector<hetero::Dataset>& device_test() const override {
    return inner_.device_test();
  }
  const std::vector<std::string>& device_names() const override {
    return inner_.device_names();
  }
  const std::vector<double>& device_speed_scale() const override {
    return inner_.device_speed_scale();
  }
  bool population_counters(hetero::PopulationCounters& out) const override {
    return inner_.population_counters(out);
  }
  const std::vector<hetero::Dataset>* dataset_vector() const override {
    return inner_.dataset_vector();
  }

 private:
  const hetero::ClientProvider& inner_;
  SpanStore& spans_;
};

/// Decorates a split algorithm. aggregate() also tallies the Switch_1 /
/// Switch_2 bits (ClientUpdate::flags bits 0 and 1, HeteroSwitch's
/// encoding) of the updates it forwards; other algorithms leave them 0.
class TimedAlgorithm final : public hetero::SplitFederatedAlgorithm {
 public:
  TimedAlgorithm(hetero::SplitFederatedAlgorithm& inner, SpanStore& spans)
      : inner_(inner), spans_(spans) {}

  void init(hetero::Model& model, std::size_t num_clients) override {
    inner_.init(model, num_clients);
  }
  hetero::ClientUpdate local_update(hetero::Model& model,
                                    const hetero::Tensor& global,
                                    std::size_t client_id,
                                    const hetero::Dataset& data,
                                    hetero::Rng& client_rng) const override {
    ScopedSpan span(spans_, kSpanLocalUpdate);
    return inner_.local_update(model, global, client_id, data, client_rng);
  }
  hetero::RoundStats aggregate(
      hetero::Model& model, const hetero::Tensor& global,
      std::vector<hetero::ClientUpdate>& updates) override {
    for (const hetero::ClientUpdate& u : updates) {
      ++updates_seen_;
      switch1_ += (u.flags & 1u) ? 1 : 0;
      switch2_ += (u.flags & 2u) ? 1 : 0;
    }
    ScopedSpan span(spans_, kSpanAggregate);
    return inner_.aggregate(model, global, updates);
  }
  hetero::ClientUpdate partial_aggregate(
      const hetero::Tensor& global,
      std::vector<hetero::ClientUpdate>& group) const override {
    ScopedSpan span(spans_, kSpanPartialAggregate);
    return inner_.partial_aggregate(global, group);
  }
  bool supports_partial_aggregation() const override {
    return inner_.supports_partial_aggregation();
  }
  bool stateless_client_phase() const override {
    return inner_.stateless_client_phase();
  }
  double staleness_weight(std::size_t staleness,
                          double exponent) const override {
    return inner_.staleness_weight(staleness, exponent);
  }
  void save_state(hetero::AlgorithmCheckpoint& out) const override {
    inner_.save_state(out);
  }
  void load_state(const hetero::AlgorithmCheckpoint& in) override {
    inner_.load_state(in);
  }
  std::string name() const override { return inner_.name(); }

  std::size_t updates_seen() const { return updates_seen_; }
  std::size_t switch1_count() const { return switch1_; }
  std::size_t switch2_count() const { return switch2_; }

 private:
  hetero::SplitFederatedAlgorithm& inner_;
  SpanStore& spans_;
  std::size_t updates_seen_ = 0;
  std::size_t switch1_ = 0;
  std::size_t switch2_ = 0;
};

}  // namespace paperbench
