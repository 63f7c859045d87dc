// Self-tests of the benchmark's own pieces: the decorators forward every
// virtual, the loopback wire accepts a decorated algorithm and reproduces
// the undecorated run, metric names follow the grammar and match
// BENCHMARK.json, and the ratio arithmetic is right.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "decorators.h"
#include "device/device_profile.h"
#include "fl/population.h"
#include "metrics.h"
#include "net/loopback.h"
#include "nn/model_zoo.h"
#include "spans.h"
#include "stats.h"
#include "util/rng.h"
#include "workloads.h"

namespace paperbench {
namespace {

using hetero::AlgorithmCheckpoint;
using hetero::ClientUpdate;
using hetero::Dataset;
using hetero::Model;
using hetero::RoundStats;
using hetero::Tensor;

std::unique_ptr<Model> tiny_model(std::size_t image_size = 8) {
  hetero::ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = image_size;
  hetero::Rng rng(1);
  return hetero::make_model(spec, rng);
}

// Every override returns something the base class default would not, so a
// decorator that failed to forward a call would be caught.
class MockSplit final : public hetero::SplitFederatedAlgorithm {
 public:
  void init(Model&, std::size_t n) override { init_n = n; }
  ClientUpdate local_update(Model&, const Tensor&, std::size_t client_id,
                            const Dataset&, hetero::Rng&) const override {
    ClientUpdate u;
    u.client_id = client_id;
    u.flags = 3;
    return u;
  }
  RoundStats aggregate(Model&, const Tensor&,
                       std::vector<ClientUpdate>& updates) override {
    RoundStats r;
    r.num_clients = updates.size() + 100;
    return r;
  }
  ClientUpdate partial_aggregate(const Tensor&,
                                 std::vector<ClientUpdate>&) const override {
    ClientUpdate u;
    u.weight = 7.0;
    return u;
  }
  bool supports_partial_aggregation() const override { return true; }
  bool stateless_client_phase() const override { return true; }
  double staleness_weight(std::size_t s, double e) const override {
    return static_cast<double>(s) * 10.0 + e;
  }
  void save_state(AlgorithmCheckpoint& out) const override {
    out.scalars["mock"] = 1.5;
  }
  void load_state(const AlgorithmCheckpoint& in) override {
    loaded = in.scalars.at("mock");
  }
  std::string name() const override { return "mock"; }

  std::size_t init_n = 0;
  double loaded = 0.0;
};

TEST(Decorators, AlgorithmForwardsEveryVirtual) {
  MockSplit inner;
  SpanStore spans(true);
  TimedAlgorithm timed(inner, spans);
  auto model = tiny_model();
  const Tensor global = model->state();
  Dataset data;
  hetero::Rng rng(2);

  EXPECT_EQ(timed.as_split(), &timed);
  timed.init(*model, 42);
  EXPECT_EQ(inner.init_n, 42u);
  EXPECT_EQ(timed.local_update(*model, global, 9, data, rng).client_id, 9u);
  std::vector<ClientUpdate> ups(2);
  ups[0].flags = 1;
  ups[1].flags = 3;
  EXPECT_EQ(timed.aggregate(*model, global, ups).num_clients, 102u);
  EXPECT_EQ(timed.updates_seen(), 2u);
  EXPECT_EQ(timed.switch1_count(), 2u);
  EXPECT_EQ(timed.switch2_count(), 1u);
  EXPECT_EQ(timed.partial_aggregate(global, ups).weight, 7.0);
  EXPECT_TRUE(timed.supports_partial_aggregation());
  EXPECT_TRUE(timed.stateless_client_phase());
  EXPECT_EQ(timed.staleness_weight(3, 0.5), 30.5);
  AlgorithmCheckpoint ck;
  timed.save_state(ck);
  EXPECT_EQ(ck.scalars.at("mock"), 1.5);
  timed.load_state(ck);
  EXPECT_EQ(inner.loaded, 1.5);
  EXPECT_EQ(timed.name(), "mock");
  EXPECT_EQ(spans.count(kSpanLocalUpdate), 1u);
  EXPECT_EQ(spans.count(kSpanAggregate), 1u);
  EXPECT_EQ(spans.count(kSpanPartialAggregate), 1u);
}

class MockProvider final : public hetero::ClientProvider {
 public:
  MockProvider() : test_(2), names_{"a", "b"}, scale_{1.5, 2.5} {}
  std::size_t num_clients() const override { return 5; }
  std::size_t device_of(std::size_t c) const override { return c + 1; }
  double work_of(std::size_t c) const override { return 2.5 * c; }
  const Dataset& client_dataset(std::size_t,
                                hetero::ClientSlot&) const override {
    return test_[1];
  }
  const std::vector<Dataset>& device_test() const override { return test_; }
  const std::vector<std::string>& device_names() const override {
    return names_;
  }
  const std::vector<double>& device_speed_scale() const override {
    return scale_;
  }
  bool population_counters(hetero::PopulationCounters& out) const override {
    out.cache_hits = 3;
    return true;
  }
  const std::vector<Dataset>* dataset_vector() const override {
    return &test_;
  }

 private:
  std::vector<Dataset> test_;
  std::vector<std::string> names_;
  std::vector<double> scale_;
};

TEST(Decorators, ProviderForwardsEveryVirtual) {
  MockProvider inner;
  SpanStore spans(true);
  TimedProvider timed(inner, spans);
  hetero::ClientSlot slot;
  EXPECT_EQ(timed.num_clients(), 5u);
  EXPECT_EQ(timed.device_of(3), 4u);
  EXPECT_EQ(timed.work_of(2), 5.0);
  EXPECT_EQ(&timed.client_dataset(0, slot), &inner.device_test()[1]);
  EXPECT_EQ(&timed.device_test(), &inner.device_test());
  EXPECT_EQ(&timed.device_names(), &inner.device_names());
  EXPECT_EQ(&timed.device_speed_scale(), &inner.device_speed_scale());
  EXPECT_EQ(timed.speed_scale_of(0), 2.5);
  hetero::PopulationCounters c;
  EXPECT_TRUE(timed.population_counters(c));
  EXPECT_EQ(c.cache_hits, 3u);
  EXPECT_EQ(timed.dataset_vector(), &inner.device_test());
  EXPECT_EQ(spans.count(kSpanClientDataset), 1u);
}

// The loopback wire refuses algorithms without a stateless client phase or
// partial aggregation; the decorated FedAvg must pass and match bit for bit.
TEST(Decorators, LoopbackAcceptsDecoratedFedAvg) {
  hetero::SceneGenerator scenes(16);
  hetero::PopulationConfig pcfg;
  pcfg.num_clients = 8;
  pcfg.samples_per_client = 4;
  pcfg.test_per_class = 1;
  pcfg.capture.tensor_size = 8;
  const hetero::VirtualPopulation pop(
      hetero::PopulationSpec::single_label(hetero::paper_devices(), pcfg,
                                           scenes),
      hetero::Rng(3));
  hetero::LocalTrainConfig local;
  local.lr = 0.01f;
  hetero::SimulationConfig cfg;
  cfg.rounds = 2;
  cfg.clients_per_round = 4;
  cfg.seed = 5;

  auto plain_model = tiny_model();
  hetero::FedAvg plain(local);
  const auto expect = hetero::net::run_distributed_loopback(
      *plain_model, plain, pop, cfg, 2, 2);

  auto model = tiny_model();
  hetero::FedAvg inner(local);
  SpanStore spans(true);
  TimedAlgorithm timed(inner, spans);
  TimedProvider timed_pop(pop, spans);
  const auto got = hetero::net::run_distributed_loopback(*model, timed,
                                                         timed_pop, cfg, 2, 2);

  EXPECT_EQ(got.result.train_loss_history, expect.result.train_loss_history);
  EXPECT_EQ(got.result.final_metrics.per_device,
            expect.result.final_metrics.per_device);
  EXPECT_EQ(spans.count(kSpanLocalUpdate), 8u);
  EXPECT_EQ(spans.count(kSpanClientDataset), 8u);
  EXPECT_EQ(spans.count(kSpanPartialAggregate), 4u);
  EXPECT_EQ(spans.count(kSpanAggregate), 2u);
}

// A metric name starts with a letter or digit and has at most 64 letters,
// digits, '_', '.' and '-'; a unit has 1 to 16 letters, digits, '_', '/',
// '%', '.' and '-'.
bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(name[0]))) return false;
  return std::all_of(name.begin(), name.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.' || c == '-';
  });
}

bool valid_unit(const std::string& unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '/' || c == '%' || c == '.' || c == '-';
  });
}

TEST(Metrics, NamesAndUnitsFollowTheGrammar) {
  std::set<std::string> names;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *list) {
      EXPECT_TRUE(valid_metric_name(m.name)) << m.name;
      EXPECT_TRUE(valid_unit(m.unit)) << m.name << " " << m.unit;
      EXPECT_TRUE(names.insert(m.name).second) << "duplicate " << m.name;
    }
  }
  EXPECT_TRUE(names.count("setup_s"));
  EXPECT_TRUE(names.count("nn.fwd_us.0-Flatten"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name("_x"));
  EXPECT_FALSE(valid_metric_name("a b"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  EXPECT_TRUE(valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(valid_unit("microseconds^2"));
  EXPECT_TRUE(valid_unit("1/s"));
}

// BENCHMARK.json lists exactly the catalog, with the same units and
// directions, and names exactly the workloads the benchmark knows.
TEST(Metrics, CatalogMatchesBenchmarkJson) {
  std::ifstream f(PAPERBENCH_JSON);
  ASSERT_TRUE(f) << PAPERBENCH_JSON;
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string json = buf.str();
  const std::size_t e2e = json.find("\"end_to_end\"");
  const std::size_t layer = json.find("\"per_layer\"");
  ASSERT_NE(e2e, std::string::npos);
  ASSERT_NE(layer, std::string::npos);
  ASSERT_LT(e2e, layer);

  const std::regex metric(
      R"re(\{\s*"name":\s*"([^"]+)",\s*"unit":\s*"([^"]+)",)re"
      R"re(\s*"better":\s*"(higher|lower)")re");
  auto listed = [&](std::size_t begin, std::size_t end) {
    std::vector<MetricDef> out;
    const std::string part = json.substr(begin, end - begin);
    for (std::sregex_iterator it(part.begin(), part.end(), metric), stop;
         it != stop; ++it) {
      out.push_back({(*it)[1], (*it)[2], (*it)[3] == "higher"});
    }
    return out;
  };
  auto same = [](const std::vector<MetricDef>& a,
                 const std::vector<MetricDef>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (a[i].name != b[i].name || a[i].unit != b[i].unit ||
          a[i].higher_better != b[i].higher_better) {
        return false;
      }
    }
    return true;
  };
  EXPECT_TRUE(same(listed(e2e, layer), end_to_end_metrics()));
  EXPECT_TRUE(same(listed(layer, json.size()), per_layer_metrics()));

  for (const WorkloadParams& p : all_workloads()) {
    EXPECT_NE(json.find("\"name\": \"" + p.name + "\""), std::string::npos)
        << p.name;
  }
}

TEST(Stats, IdleShare) {
  EXPECT_DOUBLE_EQ(idle_share(2.0, 4, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(idle_share(0.0, 4, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(idle_share(3.0, 1, 4.0), 0.25);
  EXPECT_DOUBLE_EQ(idle_share(9.0, 4, 2.0), 0.0);  // clamped
  EXPECT_DOUBLE_EQ(idle_share(1.0, 0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(idle_share(1.0, 4, 0.0), 0.0);
}

TEST(Stats, HitRatioAndCounterDeltas) {
  hetero::PopulationCounters a, b;
  a.materializations = 5;
  a.cache_hits = 1;
  a.cache_misses = 4;
  b.materializations = 15;
  b.cache_hits = 8;
  b.cache_misses = 7;
  const hetero::PopulationCounters d = counters_delta(a, b);
  EXPECT_EQ(d.materializations, 10u);
  EXPECT_EQ(d.cache_hits, 7u);
  EXPECT_EQ(d.cache_misses, 3u);
  EXPECT_DOUBLE_EQ(hit_ratio(d), 0.7);
  EXPECT_DOUBLE_EQ(hit_ratio(hetero::PopulationCounters{}), 0.0);
}

TEST(Stats, OrderStatistics) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_DOUBLE_EQ(quantile({0.0, 10.0}, 0.25), 2.5);
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  EXPECT_DOUBLE_EQ(tail_value(v), 90.0);  // ten samples above it
  EXPECT_DOUBLE_EQ(tail_value({1.0, 5.0, 2.0}), 5.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(Spans, NestingAndWorkerFallback) {
  SpanStore spans(true);
  std::int64_t outer_id = 0;
  {
    ScopedSpan outer(spans, "outer");
    outer_id = outer.id();
    spans.set_root(outer_id);
    { ScopedSpan inner(spans, "inner"); }
    std::thread worker([&spans] { ScopedSpan w(spans, "worker"); });
    worker.join();
  }
  std::map<std::string, Span> by_name;
  for (const Span& s : spans.spans()) by_name[s.name] = s;
  ASSERT_EQ(by_name.size(), 3u);
  EXPECT_EQ(by_name["outer"].parent, 0);
  EXPECT_EQ(by_name["inner"].parent, outer_id);
  EXPECT_EQ(by_name["worker"].parent, outer_id);
  EXPECT_LE(by_name["outer"].start_s, by_name["inner"].start_s);
  EXPECT_GE(by_name["outer"].end_s, by_name["inner"].end_s);

  SpanStore off(false);
  { ScopedSpan s(off, "x"); }
  EXPECT_TRUE(off.spans().empty());
}

}  // namespace
}  // namespace paperbench
