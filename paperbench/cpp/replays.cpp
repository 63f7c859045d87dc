#include "replays.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>

#include "data/builder.h"
#include "fl/checkpoint.h"
#include "fl/eval.h"
#include "hetero/heteroswitch.h"
#include "hetero/transforms.h"
#include "isp/pipeline.h"
#include "isp/sensor.h"
#include "net/protocol.h"
#include "nn/loss.h"
#include "nn/model_zoo.h"
#include "nn/optimizer.h"
#include "nn/sequential.h"
#include "stats.h"
#include "util/rng.h"

namespace paperbench {

namespace {

using hetero::Tensor;

// Replay sizes: enough calls that per-call medians are stable, few enough
// that the replays stay a small part of a traced run.
constexpr std::size_t kCaptureImages = 48;
constexpr std::size_t kNnReps = 20;
constexpr std::size_t kProbeReps = 10;
constexpr std::size_t kEvalReps = 3;
constexpr std::size_t kCkptReps = 5;
constexpr std::size_t kNetReps = 20;
constexpr std::size_t kBatch = 10;  // the paper's B
constexpr std::uint64_t kReplayTag = 99;

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

double mean_us(const SpanStore& spans, const std::string& name) {
  const std::vector<double> d = spans.durations(name);
  if (d.empty()) return 0.0;
  double sum = 0.0;
  for (double v : d) sum += v;
  return sum / static_cast<double>(d.size()) * 1e6;
}

double median_us(const SpanStore& spans, const std::string& name) {
  const std::vector<double> d = spans.durations(name);
  return d.empty() ? 0.0 : median(d) * 1e6;
}

// Scene generation, sensor capture and each ISP stage, in run_isp's order,
// over images whose devices follow the population's own assignment. The
// composed stages must reproduce capture_to_tensor exactly.
void replay_capture(Session& s, SpanStore& spans, ReplayResult& out) {
  const hetero::VirtualPopulation& pop = s.population();
  const hetero::PopulationSpec& spec = pop.spec();
  const hetero::CaptureConfig& cap = spec.capture;
  hetero::Rng rng = hetero::Rng(s.seed()).fork(kReplayTag, 1);
  bool exact = true;
  for (std::size_t i = 0; i < kCaptureImages; ++i) {
    const hetero::DeviceProfile& device =
        spec.devices[pop.device_of(i % pop.num_clients())];
    const hetero::IspConfig& isp = device.isp;
    const std::size_t cls =
        rng.uniform_int(hetero::SceneGenerator::kNumClasses);
    hetero::Rng img_rng = rng.fork(i);

    hetero::Image scene;
    {
      ScopedSpan span(spans, "scene.generate");
      scene = spec.scenes->generate(cls, img_rng);
    }
    hetero::Rng check_rng = img_rng;
    const Tensor expected =
        hetero::capture_to_tensor(scene, device, cap, check_rng);

    hetero::RawImage raw;
    {
      ScopedSpan span(spans, "isp.sensor");
      hetero::SensorConfig sensor_cfg = device.sensor;
      if (cap.illuminant_sigma_override >= 0.0f) {
        sensor_cfg.illuminant_variation = cap.illuminant_sigma_override;
      }
      raw = hetero::SensorModel(sensor_cfg).capture(scene, img_rng);
    }
    hetero::RawImage clean;
    {
      // The black-level pass that opens run_isp is timed with denoise.
      ScopedSpan span(spans, "isp.denoise");
      if (isp.black_level > 0.0f && isp.black_level < 1.0f) {
        const float scale = 1.0f / (1.0f - isp.black_level);
        float* p = raw.data();
        for (std::size_t k = 0; k < raw.height() * raw.width(); ++k) {
          p[k] = std::max(0.0f, (p[k] - isp.black_level) * scale);
        }
      }
      clean = hetero::denoise(raw, isp.denoise);
    }
    hetero::Image img;
    {
      ScopedSpan span(spans, "isp.demosaic");
      img = hetero::demosaic(clean, isp.demosaic);
    }
    {
      ScopedSpan span(spans, "isp.white_balance");
      img = hetero::white_balance(img, isp.wb);
    }
    {
      ScopedSpan span(spans, "isp.gamut");
      img = hetero::gamut_map(img, isp.gamut, isp.ccm);
    }
    {
      ScopedSpan span(spans, "isp.tone");
      img = hetero::tone_transform(img, isp.tone);
      img.clamp01();
    }
    {
      ScopedSpan span(spans, "isp.jpeg");
      img = hetero::jpeg_roundtrip(img, isp.jpeg_quality);
    }
    Tensor t;
    {
      ScopedSpan span(spans, "isp.resize");
      if (img.height() != cap.tensor_size || img.width() != cap.tensor_size) {
        img = hetero::resize_bilinear(img, cap.tensor_size, cap.tensor_size);
      }
      t = img.to_tensor();
    }
    exact = exact && same_bits(t, expected);
  }
  if (!exact) {
    out.failed_checks.push_back("capture replay != capture_to_tensor");
  }
  for (const char* name :
       {"scene.generate", "isp.sensor", "isp.denoise", "isp.demosaic",
        "isp.white_balance", "isp.gamut", "isp.tone", "isp.jpeg",
        "isp.resize"}) {
    out.metrics[std::string(name) + "_us"] = mean_us(spans, name);
  }
}

// One B=10 training step, layer by layer through Sequential::layer(i), for
// `model` from `state`. Leaves the model at `state`.
void replay_model(hetero::Model& model, const Tensor& state,
                  const std::string& arch, float lr, const Tensor& x,
                  const std::vector<std::size_t>& y, SpanStore& spans,
                  ReplayResult& out) {
  auto* seq = dynamic_cast<hetero::Sequential*>(&model.net());
  if (!seq) throw std::runtime_error("nn replay: model is not Sequential");
  const std::vector<std::string> labels = top_level_layers(arch);

  model.set_state(state);
  const Tensor reference = model.forward(x, /*train=*/true);
  model.set_state(state);

  hetero::SoftmaxCrossEntropy ce;
  hetero::Sgd opt(model.net(), hetero::SgdOptions{lr});
  model.zero_grad();
  for (std::size_t rep = 0; rep < kNnReps; ++rep) {
    Tensor h = x;
    for (std::size_t i = 0; i < seq->size(); ++i) {
      ScopedSpan span(spans, "nn.fwd." + labels[i]);
      h = seq->layer(i).forward(h, /*train=*/true);
    }
    if (rep == 0 && !same_bits(h, reference)) {
      out.failed_checks.push_back("layer-wise forward != Model::forward");
    }
    Tensor g = ce(h, y).grad;
    for (std::size_t i = seq->size(); i-- > 0;) {
      ScopedSpan span(spans, "nn.bwd." + labels[i]);
      g = seq->layer(i).backward(g);
    }
    ScopedSpan span(spans, "nn.sgd_step." + arch);
    opt.step_and_zero();
  }
  model.set_state(state);
  for (const std::string& label : labels) {
    out.metrics["nn.fwd_us." + label] = median_us(spans, "nn.fwd." + label);
    out.metrics["nn.bwd_us." + label] = median_us(spans, "nn.bwd." + label);
  }
}

// Replays the workload's own model from its initial state, then every other
// model the benchmark uses (fresh weights; all take kImageSize inputs), on a
// batch of the workload's data. nn.sgd_step_us is the workload model's
// optimizer step.
void replay_nn(Session& s, const hetero::Dataset& data, SpanStore& spans,
               ReplayResult& out) {
  std::vector<std::size_t> idx(std::min(kBatch, data.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Tensor x = data.gather_x(idx);
  const std::vector<std::size_t> y = data.gather_labels(idx);

  const std::string& own = s.params().arch;
  replay_model(s.model(), s.initial_state(), own, s.params().lr, x, y, spans,
               out);
  out.metrics["nn.sgd_step_us"] = median_us(spans, "nn.sgd_step." + own);
  std::set<std::string> done{own};
  for (const WorkloadParams& p : all_workloads()) {
    if (!done.insert(p.arch).second) continue;
    hetero::ModelSpec spec;
    spec.arch = p.arch;
    spec.image_size = kImageSize;
    spec.num_classes = hetero::SceneGenerator::kNumClasses;
    hetero::Rng rng = hetero::Rng(s.seed()).fork(kReplayTag, 3);
    auto model = hetero::make_model(spec, rng);
    replay_model(*model, model->state(), p.arch, p.lr, x, y, spans, out);
  }
}

// HeteroSwitch's L_init probe (eval at its default probe batch) with the
// workload's model, and its random WB + gamma batch transform at the paper's
// degrees.
void replay_hetero(Session& s, const hetero::Dataset& data, SpanStore& spans,
                   ReplayResult& out) {
  hetero::Model& model = s.model();
  model.set_state(s.initial_state());
  const std::size_t probe_batch = hetero::HeteroSwitchOptions{}.probe_batch;
  for (std::size_t rep = 0; rep < kProbeReps; ++rep) {
    ScopedSpan span(spans, "hetero.probe");
    (void)hetero::evaluate_loss(model, data, probe_batch);
  }
  std::vector<std::size_t> idx(std::min(kBatch, data.size()));
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  const Tensor batch = data.gather_x(idx);
  hetero::Rng rng = hetero::Rng(s.seed()).fork(kReplayTag, 2);
  for (std::size_t rep = 0; rep < kNnReps; ++rep) {
    Tensor x = batch;
    ScopedSpan span(spans, "hetero.transform");
    hetero::apply_isp_transform_batch(x, hetero::paper_isp_transform(), rng);
  }
  out.metrics["hetero.probe_ms"] = median_us(spans, "hetero.probe") / 1e3;
  out.metrics["hetero.transform_us"] = median_us(spans, "hetero.transform");
}

void replay_eval(Session& s, SpanStore& spans, ReplayResult& out) {
  hetero::Model& model = s.model();
  model.set_state(s.initial_state());
  for (std::size_t rep = 0; rep < kEvalReps; ++rep) {
    ScopedSpan span(spans, "fl.eval");
    (void)hetero::evaluate_per_device(model, s.population());
  }
  out.metrics["fl.eval_ms"] = median_us(spans, "fl.eval") / 1e3;
}

// The per-round checkpoint the sync loop writes for the workload's model:
// model state, loss history and algorithm state, then read back.
void replay_checkpoint(Session& s, SpanStore& spans,
                       const std::string& work_dir, ReplayResult& out) {
  hetero::SimulationCheckpoint ck;
  ck.next_round = s.params().rounds;
  ck.seed = s.episode_seed(0);
  ck.num_clients = s.params().num_clients;
  ck.clients_per_round = s.params().clients_per_round;
  ck.rng = hetero::Rng(ck.seed).save_state();
  ck.model_state = s.initial_state();
  ck.loss_history.assign(s.params().rounds, 2.0);
  ck.round_virtual_seconds.assign(s.params().rounds, 0.0);
  const auto algo = s.make_algorithm();
  ck.algorithm = algo->name();
  algo->save_state(ck.algo);

  const std::string dir = work_dir + "/replay-ckpt";
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/checkpoint.bin";
  for (std::size_t rep = 0; rep < kCkptReps; ++rep) {
    ScopedSpan span(spans, "fl.ckpt_write");
    hetero::write_checkpoint(path, ck);
  }
  hetero::SimulationCheckpoint back;
  if (!hetero::read_checkpoint(path, back) ||
      !same_bits(back.model_state, ck.model_state)) {
    out.failed_checks.push_back("checkpoint round trip");
  }
  std::filesystem::remove_all(dir);
  out.metrics["fl.ckpt_write_ms"] = median_us(spans, "fl.ckpt_write") / 1e3;
}

// One model-state frame: message encode + framing (CRC) on one side,
// parse (CRC check) + message decode on the other.
void replay_net(Session& s, SpanStore& spans, ReplayResult& out) {
  namespace net = hetero::net;
  net::ModelStateMsg msg;
  msg.round = 1;
  msg.state = s.initial_state();
  bool exact = true;
  for (std::size_t rep = 0; rep < kNetReps; ++rep) {
    std::vector<std::uint8_t> bytes;
    {
      ScopedSpan span(spans, "net.encode");
      bytes = net::encode_frame(net::FrameType::kModelState, 1, 0,
                                net::encode_model_state(msg));
    }
    net::ModelStateMsg back;
    {
      ScopedSpan span(spans, "net.decode");
      net::FrameParser parser;
      parser.feed(bytes.data(), bytes.size());
      net::Frame frame;
      exact = parser.next(frame) &&
              net::decode_model_state(frame.payload, back) && exact;
    }
    exact = exact && same_bits(back.state, msg.state);
    out.frame_bytes = static_cast<double>(bytes.size());
  }
  if (!exact) out.failed_checks.push_back("wire frame round trip");
  out.metrics["net.encode_us"] = median_us(spans, "net.encode");
  out.metrics["net.decode_us"] = median_us(spans, "net.decode");
}

}  // namespace

std::vector<std::string> top_level_layers(const std::string& arch) {
  hetero::ModelSpec spec;
  spec.arch = arch;
  spec.image_size = kImageSize;
  spec.num_classes = hetero::SceneGenerator::kNumClasses;
  hetero::Rng rng(0);
  auto model = hetero::make_model(spec, rng);
  auto* seq = dynamic_cast<hetero::Sequential*>(&model->net());
  if (!seq) throw std::runtime_error(arch + " is not a Sequential model");
  std::vector<std::string> out;
  for (std::size_t i = 0; i < seq->size(); ++i) {
    out.push_back(std::to_string(i) + "-" + seq->layer(i).name());
  }
  return out;
}

ReplayResult run_replays(Session& s, SpanStore& spans,
                         const std::string& work_dir) {
  ReplayResult out;
  ScopedSpan root(spans, "replays");
  // Client 0's own dataset, as the workload's clients see it.
  hetero::ClientSlot slot;
  const hetero::Dataset& data = s.population().client_dataset(0, slot);

  replay_capture(s, spans, out);
  replay_nn(s, data, spans, out);
  replay_hetero(s, data, spans, out);
  replay_eval(s, spans, out);
  replay_checkpoint(s, spans, work_dir, out);
  replay_net(s, spans, out);
  return out;
}

}  // namespace paperbench
