#include "net/protocol.h"

#include "tensor/serialize.h"

namespace hetero::net {

void put_meta(ByteWriter& w, const WireUpdateMeta& m) {
  w.u64(m.client_id);
  w.u64(m.position);
  w.f64(m.weight);
  w.f64(m.train_loss);
  w.u32(m.flags);
  w.u8(m.quarantined);
  w.u64(m.update_bytes);
  w.f64(m.train_seconds);
}

namespace {

bool get_meta(ByteReader& r, WireUpdateMeta& out) {
  out.client_id = r.u64();
  out.position = r.u64();
  out.weight = r.f64();
  out.train_loss = r.f64();
  out.flags = r.u32();
  out.quarantined = r.u8();
  if (out.quarantined > 1) return false;
  out.update_bytes = r.u64();
  out.train_seconds = r.f64();
  return r.ok();
}

}  // namespace

void put_update(ByteWriter& w, const ClientUpdate& u) {
  w.u64(u.client_id);
  w.f64(u.weight);
  w.f64(u.train_loss);
  w.f64(u.aux_scalar);
  w.u32(u.flags);
  w.f64(u.train_seconds);
  w.u64(u.payload_bytes);
  put_tensor(w, u.state);
  put_tensor(w, u.aux);
}

bool get_update(ByteReader& r, ClientUpdate& out) {
  out.client_id = r.u64();
  out.weight = r.f64();
  out.train_loss = r.f64();
  out.aux_scalar = r.f64();
  out.flags = r.u32();
  out.train_seconds = r.f64();
  out.payload_bytes = r.u64();
  return get_tensor(r, out.state) && get_tensor(r, out.aux);
}

std::vector<std::uint8_t> encode_hello(const HelloMsg& m) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(m.role));
  w.u64(m.node_index);
  return w.take();
}

bool decode_hello(const std::vector<std::uint8_t>& payload, HelloMsg& out) {
  ByteReader r(payload);
  const std::uint8_t role = r.u8();
  if (role != static_cast<std::uint8_t>(NodeRole::kWorker) &&
      role != static_cast<std::uint8_t>(NodeRole::kEdge)) {
    return false;
  }
  out.role = static_cast<NodeRole>(role);
  out.node_index = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckMsg& m) {
  ByteWriter w;
  w.u64(m.node_index);
  w.u64(m.rounds);
  return w.take();
}

bool decode_hello_ack(const std::vector<std::uint8_t>& payload,
                      HelloAckMsg& out) {
  ByteReader r(payload);
  out.node_index = r.u64();
  out.rounds = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode_round_config(const RoundConfigMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  put_rng(w, m.round_rng);
  w.u64(m.n_selected);
  w.u64(m.edge_groups);
  w.u64(m.client_ids.size());
  for (std::uint64_t id : m.client_ids) w.u64(id);
  for (std::uint64_t pos : m.positions) w.u64(pos);
  return w.take();
}

bool decode_round_config(const std::vector<std::uint8_t>& payload,
                         RoundConfigMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  if (!get_rng(r, out.round_rng)) return false;
  out.n_selected = r.u64();
  out.edge_groups = r.u64();
  const std::uint64_t count = r.count(16);
  if (!r.ok() || count > out.n_selected) return false;
  out.client_ids.resize(count);
  out.positions.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) out.client_ids[i] = r.u64();
  for (std::uint64_t i = 0; i < count; ++i) {
    out.positions[i] = r.u64();
    if (out.positions[i] >= out.n_selected) return false;
  }
  return r.done();
}

std::vector<std::uint8_t> encode_model_pull(const ModelPullMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  return w.take();
}

bool decode_model_pull(const std::vector<std::uint8_t>& payload,
                       ModelPullMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  return r.done();
}

std::vector<std::uint8_t> encode_model_state(const ModelStateMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  put_tensor(w, m.state);
  return w.take();
}

bool decode_model_state(const std::vector<std::uint8_t>& payload,
                        ModelStateMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  return get_tensor(r, out.state) && r.done();
}

std::vector<std::uint8_t> encode_update_push(const UpdatePushMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  w.u64(m.position);
  put_update(w, m.update);
  return w.take();
}

bool decode_update_push(const std::vector<std::uint8_t>& payload,
                        UpdatePushMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  out.position = r.u64();
  return get_update(r, out.update) && r.done();
}

std::vector<std::uint8_t> encode_digest(const DigestMsg& m) {
  ByteWriter w;
  w.u64(m.round);
  w.u64(m.edge_index);
  w.u8(m.has_digest);
  if (m.has_digest) put_update(w, m.digest);
  w.u64(m.metas.size());
  for (const WireUpdateMeta& meta : m.metas) put_meta(w, meta);
  return w.take();
}

bool decode_digest(const std::vector<std::uint8_t>& payload, DigestMsg& out) {
  ByteReader r(payload);
  out.round = r.u64();
  out.edge_index = r.u64();
  out.has_digest = r.u8();
  if (!r.ok() || out.has_digest > 1) return false;
  if (out.has_digest && !get_update(r, out.digest)) return false;
  const std::uint64_t count = r.count(kWireMetaSize);
  if (!r.ok()) return false;
  out.metas.resize(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!get_meta(r, out.metas[i])) return false;
  }
  return r.done();
}

std::vector<std::uint8_t> encode_bye(const ByeMsg& m) {
  ByteWriter w;
  w.u64(m.rounds_done);
  return w.take();
}

bool decode_bye(const std::vector<std::uint8_t>& payload, ByeMsg& out) {
  ByteReader r(payload);
  out.rounds_done = r.u64();
  return r.done();
}

}  // namespace hetero::net
