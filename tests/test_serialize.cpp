// Serialization (tensors, archives, model checkpoints) and PPM export.
// The corruption suites port the wire's exhaustive single-bit-flip and
// truncation tests to the sealed file records: a real HeteroSwitch HSCK
// checkpoint and an HSAR archive must reject every corruption with
// std::runtime_error, and forged-but-CRC-valid fields must be refused
// before they size an allocation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "device/device_profile.h"
#include "fl/checkpoint.h"
#include "fl/population.h"
#include "fl/simulation.h"
#include "hetero/heteroswitch.h"
#include "image/ppm.h"
#include "nn/model_zoo.h"
#include "scene/scene_gen.h"
#include "tensor/serialize.h"
#include "test_util.h"
#include "util/codec.h"

namespace hetero {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(Serialize, TensorStreamRoundTrip) {
  Rng rng(1);
  Tensor t = Tensor::randn({3, 4, 5}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  Tensor back = read_tensor(ss);
  EXPECT_EQ(back.shape(), t.shape());
  hetero::testing::expect_tensor_near(back, t, 0.0f);
}

TEST(Serialize, EmptyAndScalarTensors) {
  std::stringstream ss;
  write_tensor(ss, Tensor());
  write_tensor(ss, Tensor({1}, {42.0f}));
  Tensor empty = read_tensor(ss);
  Tensor scalar = read_tensor(ss);
  EXPECT_EQ(empty.rank(), 0u);
  EXPECT_FLOAT_EQ(scalar[0], 42.0f);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(2);
  Tensor t = Tensor::randn({17}, rng);
  const std::string path = temp_path("hs_test_tensor.bin");
  save_tensor(path, t);
  Tensor back = load_tensor(path);
  hetero::testing::expect_tensor_near(back, t, 0.0f);
  std::remove(path.c_str());
}

TEST(Serialize, BadMagicRejected) {
  std::stringstream ss("NOPE and some garbage");
  EXPECT_THROW(read_tensor(ss), std::runtime_error);
}

TEST(Serialize, TruncatedInputRejected) {
  Rng rng(3);
  Tensor t = Tensor::randn({100}, rng);
  std::stringstream ss;
  write_tensor(ss, t);
  const std::string full = ss.str();
  std::stringstream truncated(full.substr(0, full.size() / 2));
  EXPECT_THROW(read_tensor(truncated), std::runtime_error);
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_tensor("/nonexistent/dir/tensor.bin"),
               std::runtime_error);
}

TEST(Serialize, SequentialTensorsInOneStream) {
  Rng rng(4);
  Tensor a = Tensor::randn({2, 2}, rng);
  Tensor b = Tensor::randn({5}, rng);
  std::stringstream ss;
  write_tensor(ss, a);
  write_tensor(ss, b);
  hetero::testing::expect_tensor_near(read_tensor(ss), a, 0.0f);
  hetero::testing::expect_tensor_near(read_tensor(ss), b, 0.0f);
}

TEST(TensorArchive, PutGetContains) {
  TensorArchive ar;
  EXPECT_FALSE(ar.contains("w"));
  ar.put("w", Tensor({2}, {1, 2}));
  EXPECT_TRUE(ar.contains("w"));
  EXPECT_FLOAT_EQ(ar.get("w")[1], 2.0f);
  EXPECT_THROW(ar.get("missing"), std::runtime_error);
}

TEST(TensorArchive, StreamRoundTrip) {
  Rng rng(5);
  TensorArchive ar;
  ar.put("alpha", Tensor::randn({3, 3}, rng));
  ar.put("beta", Tensor::randn({7}, rng));
  std::stringstream ss;
  ar.write(ss);
  TensorArchive back = TensorArchive::read(ss);
  EXPECT_EQ(back.size(), 2u);
  hetero::testing::expect_tensor_near(back.get("alpha"), ar.get("alpha"),
                                      0.0f);
  hetero::testing::expect_tensor_near(back.get("beta"), ar.get("beta"), 0.0f);
}

TEST(TensorArchive, ModelCheckpointRoundTrip) {
  // The canonical use: persist and restore a model's full state.
  Rng rng(6);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  auto model = make_model(spec, rng);
  const Tensor state = model->state();

  TensorArchive ar;
  ar.put("state", state);
  const std::string path = temp_path("hs_test_ckpt.bin");
  ar.save(path);

  auto model2 = make_model(spec, rng);  // different random init
  TensorArchive loaded = TensorArchive::load(path);
  model2->set_state(loaded.get("state"));
  hetero::testing::expect_tensor_near(model2->state(), state, 0.0f);
  std::remove(path.c_str());
}

TEST(TensorArchive, OverwriteKey) {
  TensorArchive ar;
  ar.put("x", Tensor({1}, {1.0f}));
  ar.put("x", Tensor({1}, {2.0f}));
  EXPECT_EQ(ar.size(), 1u);
  EXPECT_FLOAT_EQ(ar.get("x")[0], 2.0f);
}

// ------------------------------------------------- sealed-record corruption --

std::vector<std::uint8_t> file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path,
                 const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// The body of a sealed record file: everything between the 16-byte header
/// and the 4-byte CRC trailer.
std::vector<std::uint8_t> record_body(const std::vector<std::uint8_t>& file) {
  return {file.begin() + 16, file.end() - 4};
}

/// True when `load(path)` throws std::runtime_error. Any other exception
/// escapes and fails the test.
bool rejected(const std::string& path,
              const std::function<void(const std::string&)>& load) {
  try {
    load(path);
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

/// Every single-bit flip, every truncation and one trailing byte of a valid
/// record file must be rejected. The file is edited in place (one byte
/// flipped and restored, then shrunk from the end) rather than rewritten
/// per case, which keeps the ~8 cases per byte cheap on any filesystem.
void expect_every_corruption_rejected(
    const std::string& path,
    const std::function<void(const std::string&)>& load) {
  const std::vector<std::uint8_t> pristine = file_bytes(path);
  ASSERT_GT(pristine.size(), 20u);
  ASSERT_NO_THROW(load(path));
  std::size_t accepted = 0;
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    auto put = [&](std::size_t at, std::uint8_t b) {
      f.seekp(static_cast<std::streamoff>(at));
      f.put(static_cast<char>(b));
      f.flush();
    };
    for (std::size_t byte = 0; byte < pristine.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        put(byte, pristine[byte] ^ static_cast<std::uint8_t>(1u << bit));
        if (!rejected(path, load) && accepted++ == 0) {
          ADD_FAILURE() << "bit flip accepted: byte " << byte << " bit "
                        << bit;
        }
      }
      put(byte, pristine[byte]);
    }
    put(pristine.size(), 0);
    if (!rejected(path, load) && accepted++ == 0) {
      ADD_FAILURE() << "trailing byte accepted";
    }
  }
  for (std::size_t cut = pristine.size(); cut-- > 0;) {
    std::filesystem::resize_file(path, cut);
    if (!rejected(path, load) && accepted++ == 0) {
      ADD_FAILURE() << "truncation accepted: cut at " << cut;
    }
  }
  EXPECT_EQ(accepted, 0u);
}

/// A real HeteroSwitch checkpoint written by the sync loop: two rounds over
/// a small lazy population, so save_state has seeded the L_EMA scalar and
/// the switch counters.
std::string heteroswitch_checkpoint(const std::string& dir) {
  SceneGenerator scenes(16);
  PopulationConfig pop_cfg;
  pop_cfg.num_clients = 6;
  pop_cfg.samples_per_client = 3;
  pop_cfg.test_per_class = 1;
  pop_cfg.capture.tensor_size = 8;
  const VirtualPopulation pop(
      PopulationSpec::single_label(paper_devices(), pop_cfg, scenes),
      Rng(81).fork(1));
  Rng rng(8);
  ModelSpec spec;
  spec.arch = "mlp-tiny";
  spec.image_size = 8;
  spec.num_classes = 12;
  auto model = make_model(spec, rng);
  LocalTrainConfig train;
  train.lr = 0.05f;
  train.batch_size = 4;
  HeteroSwitch algo(train, HeteroSwitchOptions{});
  SimulationConfig sim;
  sim.rounds = 2;
  sim.clients_per_round = 3;
  sim.seed = 5;
  sim.checkpoint.dir = dir;
  sim.checkpoint.resume = false;
  run_simulation(*model, algo, pop, sim);
  return checkpoint_path(sim.checkpoint);
}

class CheckpointCorruption : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = temp_path(("hs_test_ckpt_corruption_" +
                      std::to_string(::getpid())).c_str());
    path_ = heteroswitch_checkpoint(dir_);
    ASSERT_TRUE(read_checkpoint(path_, ck_));
    ASSERT_EQ(ck_.algorithm, "HeteroSwitch");
    ASSERT_EQ(ck_.algo.scalars.count("hs.ema"), 1u);
    ASSERT_GT(ck_.algo.words.at("hs.updates"), 0u);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Re-seals `body` as the checkpoint file with a valid CRC, so only the
  /// body parser stands between a forged field and the reader.
  void reseal(const std::vector<std::uint8_t>& body) const {
    save_record(path_, "HSCK", body);
  }

  /// Body offset of the first field after the model-state tensor.
  std::size_t loss_history_offset() const {
    ByteWriter w;
    for (int i = 0; i < 4; ++i) w.u64(0);
    w.str(ck_.algorithm);
    put_rng(w, ck_.rng);
    put_tensor(w, ck_.model_state);
    return w.data().size();
  }

  static void load(const std::string& path) {
    SimulationCheckpoint out;
    read_checkpoint(path, out);
  }

  std::string dir_;
  std::string path_;
  SimulationCheckpoint ck_;
};

TEST_F(CheckpointCorruption, EveryBitFlipTruncationAndTrailingByteIsRejected) {
  expect_every_corruption_rejected(path_, &CheckpointCorruption::load);
}

/// Peak resident set size of this process in KiB (VmHWM), or 0 if unknown.
std::size_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoul(line.substr(6));
  }
  return 0;
}

TEST_F(CheckpointCorruption, HugeNameLengthIsRefusedBeforeAllocating) {
  auto body = record_body(file_bytes(path_));
  // The algorithm name's u32 length follows the four u64 identity fields.
  body[32] = 0xFF;
  body[33] = 0xFF;
  body[34] = 0xFF;
  body[35] = 0x7F;
  reseal(body);
  const std::size_t file_kb = std::filesystem::file_size(path_) / 1024 + 1;
  // Reset the high-water mark to the current RSS where the kernel allows.
  { std::ofstream("/proc/self/clear_refs") << "5"; }
  const std::size_t before = peak_rss_kb();
  if (before == 0) GTEST_SKIP() << "no VmHWM on this platform";
  EXPECT_THROW(load(path_), std::runtime_error);
  EXPECT_LT(peak_rss_kb() - before, file_kb + 1024);
}

TEST_F(CheckpointCorruption, HugeLossHistoryLengthThrowsRuntimeError) {
  auto body = record_body(file_bytes(path_));
  ByteWriter count;
  count.u64(1ull << 62);
  std::copy(count.data().begin(), count.data().end(),
            body.begin() + static_cast<std::ptrdiff_t>(loss_history_offset()));
  reseal(body);
  EXPECT_THROW(load(path_), std::runtime_error);
}

TEST_F(CheckpointCorruption, FlippedWeightBitIsRejected) {
  // Bit 24 of an f32 is its lowest exponent bit: 3.0 would read as 12.0.
  auto bytes = file_bytes(path_);
  const std::size_t weight0 =
      16 + loss_history_offset() - ck_.model_state.size() * sizeof(float);
  bytes[weight0 + 3] ^= 0x01;
  write_bytes(path_, bytes);
  EXPECT_THROW(load(path_), std::runtime_error);
}

TEST_F(CheckpointCorruption, TrailingGarbageIsRejected) {
  auto bytes = file_bytes(path_);
  auto body = record_body(bytes);
  bytes.insert(bytes.end(), {'j', 'u', 'n', 'k'});
  write_bytes(path_, bytes);
  EXPECT_THROW(load(path_), std::runtime_error);
  // Garbage inside a re-sealed body is a schema mismatch too.
  body.push_back(0);
  reseal(body);
  EXPECT_THROW(load(path_), std::runtime_error);
}

TEST(Serialize, WrappingShapeVolumeIsRejected) {
  // {2^32, 2^32} multiplies to 0 in 64 bits; the volume check must see the
  // overflow instead of decoding an empty tensor.
  for (std::uint8_t mode : {0, 1}) {
    ByteWriter w;
    w.u32(2);
    w.u64(1ull << 32);
    w.u64(1ull << 32);
    w.u8(mode);
    if (mode == 1) w.u64(0);  // sparse: zero nonzeros
    std::stringstream ss;
    write_record(ss, "HSTN", w.data());
    EXPECT_THROW(read_tensor(ss), std::runtime_error) << "mode " << int(mode);
  }
}

TEST(Serialize, VersionOneRecordsAreRefusedByName) {
  std::stringstream ss;
  ss.write("HSTN\x01\x00\x00\x00", 8);
  ss.write(std::string(16, '\0').data(), 16);
  try {
    read_tensor(ss);
    FAIL() << "version-1 tensor accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

TEST(TensorArchive, EveryBitFlipTruncationAndTrailingByteIsRejected) {
  Rng rng(9);
  TensorArchive ar;
  ar.put("dense", Tensor::randn({3, 4}, rng));
  Tensor sparse({64});
  sparse[5] = 1.5f;
  ar.put("sparse", sparse);
  ar.put("empty", Tensor());
  const std::string path = temp_path(
      ("hs_test_archive_corruption_" + std::to_string(::getpid())).c_str());
  ar.save(path);
  expect_every_corruption_rejected(
      path, [](const std::string& p) { TensorArchive::load(p); });
  std::remove(path.c_str());
}

TEST(Ppm, WritesValidHeaderAndPayload) {
  Image img(2, 3);
  img.set_pixel(0, 0, 1.0f, 0.0f, 0.0f);
  img.set_pixel(1, 2, 0.0f, 0.0f, 1.0f);
  const std::string path = temp_path("hs_test.ppm");
  ASSERT_TRUE(write_ppm(path, img));
  std::ifstream in(path, std::ios::binary);
  std::string magic, dims1, dims2, maxval;
  in >> magic >> dims1 >> dims2 >> maxval;
  EXPECT_EQ(magic, "P6");
  EXPECT_EQ(dims1, "3");
  EXPECT_EQ(dims2, "2");
  EXPECT_EQ(maxval, "255");
  in.get();  // the single whitespace after the header
  std::vector<unsigned char> payload(2 * 3 * 3);
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  EXPECT_EQ(in.gcount(), 18);
  EXPECT_EQ(payload[0], 255);  // red pixel, R byte
  EXPECT_EQ(payload[1], 0);
  EXPECT_EQ(payload[17], 255);  // blue pixel, B byte
  std::remove(path.c_str());
}

TEST(Ppm, MosaicExport) {
  RawImage raw(4, 4);
  for (std::size_t y = 0; y < 4; ++y) {
    for (std::size_t x = 0; x < 4; ++x) raw.at(y, x) = 0.5f;
  }
  const std::string path = temp_path("hs_test_mosaic.ppm");
  ASSERT_TRUE(write_ppm_mosaic(path, raw));
  EXPECT_GT(std::filesystem::file_size(path), 15u);
  std::remove(path.c_str());
}

TEST(Ppm, EmptyImageFails) {
  EXPECT_FALSE(write_ppm(temp_path("x.ppm"), Image()));
  EXPECT_FALSE(write_ppm_mosaic(temp_path("x.ppm"), RawImage()));
}

}  // namespace
}  // namespace hetero
