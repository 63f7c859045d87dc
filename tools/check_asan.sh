#!/usr/bin/env bash
# Builds the tree with AddressSanitizer + UndefinedBehaviorSanitizer and
# runs every reader of untrusted bytes against it.
#
# Usage: tools/check_asan.sh [extra ctest args]
#
# Uses a dedicated build directory (build-asan) so the regular build stays
# untouched. The codec readers are the point: the net suite feeds
# truncated, bit-flipped, and random-garbage byte streams through the
# bounds-checked frame parser and payload codecs, and the serialize suite
# does the same to sealed tensor archives and a real HeteroSwitch
# checkpoint (every bit flip, every truncation, forged lengths). ASan/UBSan
# turn any out-of-bounds read, overflow, or misaligned load that survives
# those checks into a hard failure instead of silent corruption. The
# population suite runs the checkpoint writer and reader end to end
# (Checkpoint.ResumeIsBitIdentical), and the tensor tests ride along
# because the codecs reuse their flat-state layout. The isp-parity
# tests put the HS_ISP=fast rewrites under the same watch: their pointer
# arithmetic over raw scratch arenas (geometry-keyed, grow-only) and the
# SoA block transposes with clamped-edge fallbacks are exactly the kind of
# code where an off-by-one survives functional tests. That includes the
# FBDD lane blocks, which read up to a block past a row's last pixel of a
# phase from a zero-padded deinterleaved store. The isp and image suites
# cover the sensor's raw-pointer exposure rows over per-thread draw and
# sample buffers, and the row-major Gaussian blur's tap-row pointers on
# images narrower than the kernel. The kernels, nn-layers and nn-blocks
# suites drive the GEMM/convolution kernels and the layer-glue kernels:
# the channel-lane BatchNorm/SE/pooling sums read eight strided planes at
# once with index tails and spare lanes, over exactly-sized buffers and
# channel counts off the lane block, and the layers' in-place twins and
# moved caches run every zoo layer on storage it took over from its
# caller (ValueSemantics.*). Sanitizer builds compile the
# target_clones dispatch out, so the baseline-ISA body of those same
# vector kernels is what runs here.
set -euo pipefail

cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build-asan}

cmake -B "${BUILD_DIR}" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DHETERO_SANITIZE=address,undefined
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target test_net test_serialize test_tensor test_population test_isp_parity test_isp test_image test_kernels test_nn_layers test_nn_blocks

# halt_on_error fails the run on the first report; detect_leaks catches
# frames or datasets dropped on the quarantine paths.
ASAN_OPTIONS=${ASAN_OPTIONS:-halt_on_error=1:detect_leaks=1} \
UBSAN_OPTIONS=${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1} \
  ctest --test-dir "${BUILD_DIR}" -R '^(test_net|test_serialize|test_tensor|test_population|test_isp_parity|test_isp|test_image|test_kernels|test_nn_layers|test_nn_blocks)$' \
  --output-on-failure "$@"

echo "ASan/UBSan check passed."
