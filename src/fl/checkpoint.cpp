#include "fl/checkpoint.h"

#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "tensor/serialize.h"
#include "util/codec.h"

namespace hetero {
namespace {

constexpr char kMagic[] = "HSCK";

/// u64 count then (key, value) entries; get_map fails the reader on a
/// duplicate key (the writer emits each key once, in order).
template <typename V, typename Put>
void put_map(ByteWriter& w, const std::map<std::string, V>& m, Put put) {
  w.u64(m.size());
  for (const auto& [key, value] : m) {
    w.str(key);
    put(value);
  }
}

template <typename V, typename Get>
std::map<std::string, V> get_map(ByteReader& r, Get get) {
  std::map<std::string, V> m;
  // Every entry holds a u32 key length and at least a rank-0 tensor.
  const std::uint64_t n = r.count(4 + kMinTensorBytes);
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    std::string key = r.str();
    if (!m.emplace(std::move(key), get()).second) r.invalidate();
  }
  return m;
}

}  // namespace

CheckpointOptions parse_checkpoint_spec(const std::string& spec) {
  CheckpointOptions opts;
  std::size_t start = 0;
  bool first = true;
  while (start <= spec.size()) {
    std::size_t end = spec.find(',', start);
    if (end == std::string::npos) end = spec.size();
    const std::string field = spec.substr(start, end - start);
    if (first) {
      opts.dir = field;
      first = false;
    } else if (!field.empty()) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("parse_checkpoint_spec: bad field '" + field +
                                 "'");
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "every") {
        const unsigned long n = std::stoul(value);
        if (n == 0) {
          throw std::runtime_error("parse_checkpoint_spec: every must be > 0");
        }
        opts.every = static_cast<std::size_t>(n);
      } else if (key == "resume") {
        opts.resume = value != "0";
      } else {
        throw std::runtime_error("parse_checkpoint_spec: unknown key '" + key +
                                 "'");
      }
    }
    start = end + 1;
  }
  if (opts.dir.empty()) {
    throw std::runtime_error("parse_checkpoint_spec: empty directory");
  }
  return opts;
}

std::string checkpoint_path(const CheckpointOptions& opts) {
  return opts.dir + "/checkpoint.bin";
}

void write_checkpoint(const std::string& path,
                      const SimulationCheckpoint& ck) {
  // Tensors and the two per-round histories dominate the body; reserving
  // for them up front means it is never copied while it grows.
  std::size_t bytes = 4 * ck.model_state.size() + 16 * ck.loss_history.size();
  for (const auto& entry : ck.algo.tensors) bytes += 4 * entry.second.size();
  ByteWriter w;
  w.reserve(bytes + 2048);
  w.u64(ck.next_round);
  w.u64(ck.seed);
  w.u64(ck.num_clients);
  w.u64(ck.clients_per_round);
  w.str(ck.algorithm);
  put_rng(w, ck.rng);
  put_tensor(w, ck.model_state);
  for (const auto* v : {&ck.loss_history, &ck.round_virtual_seconds}) {
    w.u64(v->size());
    for (double x : *v) w.f64(x);
  }
  put_map(w, ck.counters, [&](double v) { w.f64(v); });
  put_map(w, ck.algo.scalars, [&](double v) { w.f64(v); });
  put_map(w, ck.algo.words, [&](std::uint64_t v) { w.u64(v); });
  put_map(w, ck.algo.tensors, [&](const Tensor& t) { put_tensor(w, t); });

  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path());
  }
  const std::string tmp = path + ".tmp";
  save_record(tmp, kMagic, w.data());
  // Atomic publish: a crash before this line leaves the old checkpoint.
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw std::runtime_error("checkpoint: rename to " + path + " failed");
  }
}

bool read_checkpoint(const std::string& path, SimulationCheckpoint& out) {
  if (!std::filesystem::exists(path)) return false;
  std::vector<std::uint8_t> body;
  try {
    body = load_record(path, kMagic);
  } catch (const std::runtime_error& e) {
    throw std::runtime_error("checkpoint " + path + ": " + e.what() +
                             "; delete the file or set resume=0 to start "
                             "a fresh run");
  }
  ByteReader r(body);
  SimulationCheckpoint ck;
  ck.next_round = r.u64();
  ck.seed = r.u64();
  ck.num_clients = r.u64();
  ck.clients_per_round = r.u64();
  ck.algorithm = r.str();
  if (!get_rng(r, ck.rng) || !get_tensor(r, ck.model_state)) r.invalidate();
  for (auto* v : {&ck.loss_history, &ck.round_virtual_seconds}) {
    v->resize(r.count(8));
    for (double& x : *v) x = r.f64();
  }
  ck.counters = get_map<double>(r, [&] { return r.f64(); });
  ck.algo.scalars = get_map<double>(r, [&] { return r.f64(); });
  ck.algo.words = get_map<std::uint64_t>(r, [&] { return r.u64(); });
  ck.algo.tensors = get_map<Tensor>(r, [&] {
    Tensor t;
    if (!get_tensor(r, t)) r.invalidate();
    return t;
  });
  if (!r.done()) {
    throw std::runtime_error("checkpoint " + path + ": malformed body");
  }
  out = std::move(ck);
  return true;
}

}  // namespace hetero
