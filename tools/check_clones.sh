#!/usr/bin/env bash
# Clone-body guard: every runtime-dispatched kernel clone must run its hot
# code in its own ISA.
#
# GCC compiles a target_clones function once per target (foo.default,
# foo.avx2, ...). A helper it calls is compiled for the baseline target
# unless it is force-inlined (HS_ALWAYS_INLINE, kernels/isa.h), so a wide
# clone that calls or jumps into a plain function of its own library runs
# that function's loops at baseline ISA. This script disassembles every
# built static library (objdump -dr), lists each call/jump from a clone
# (.avx2, or the fast kind's .arch_x86_64_v3) into a function that the same
# library defines and that is neither a clone nor a GNU ifunc dispatcher,
# and fails on any such edge that is not allowlisted below. When the
# libraries hold clone bodies at all, it also fails on an allowlist entry
# that matches no edge, so an entry cannot outlive its edge and later hide
# the same edge coming back. Builds without clones (sanitizers, or
# HS_NATIVE_ARCH, where there is one ISA) have no edges and pass.
#
#   tools/check_clones.sh [BUILD_DIR]     (default: $BUILD_DIR, else build)
#
# Exit codes: 0 clean, 1 unlisted edge or stale allowlist entry found (or no
# libraries), 77 skipped
# because objdump/nm/c++filt is missing (ctest's SKIP_RETURN_CODE).
set -euo pipefail

build_dir="${1:-${BUILD_DIR:-build}}"

for tool in objdump nm c++filt; do
  if ! command -v "$tool" >/dev/null 2>&1; then
    echo "check_clones: $tool not found; skipping"
    exit 77
  fi
done

# Known edges, matched (ERE) against "CLONE -> TARGET" in demangled form.
# Each names why it stands; an entry whose edge is gone fails the check.
allow_patterns=(
  'im2col_tiled\(.*\[clone \.avx2\] -> .*im2col_impl\('
  'jpeg_channel_fast\(.*\[clone \.avx2\] -> .*(dct8x8|idct8x8|dct_basis)\('
)
allow_reasons=(
  'im2col (kernels/conv.cpp): the clone calls the shared baseline im2col_impl, a copy loop that im2col_strided also uses'
  'JPEG (isp/compress.cpp): leftover and clipped blocks take the seed per-block dct8x8/idct8x8 fallback, and dct_basis is a once-built table'
)

mapfile -t libs < <(find "$build_dir" -name 'libhs_*.a' | sort)
if [ "${#libs[@]}" -eq 0 ]; then
  echo "check_clones: no libhs_*.a under $build_dir (build first)"
  exit 1
fi

clone_re='\.(avx2|arch_x86_64_v3)(\.|$)'
edges=0
unlisted=0
clones=0
declare -A used
for lib in "${libs[@]}"; do
  # Plain functions the library defines (T/t/W/w; ifunc dispatchers are 'i').
  defined=$(nm --defined-only "$lib" 2>/dev/null |
            awk 'NF == 3 && $2 ~ /^[TtWw]$/ {print $3}' | sort -u)
  clones=$((clones + $(grep -cE -- "$clone_re" <<<"$defined" || true)))
  # clone<TAB>target for every call/jump leaving a clone body. A relocation
  # line names the real target of an unresolved call; otherwise the
  # disassembler's <symbol+off> annotation does.
  pairs=$(objdump -dr --no-show-raw-insn "$lib" 2>/dev/null | awk -v re="$clone_re" '
    function flush() { if (pending != "") print fn "\t" pending; pending = "" }
    /^[0-9a-f]+ <.*>:$/ {
      flush(); fn = substr($2, 2, length($2) - 3); in_clone = (fn ~ re); next
    }
    !in_clone { next }
    /R_X86_64_(PLT32|PC32|GOTPCRELX|REX_GOTPCRELX)/ {
      if (pending != "") {
        sym = $NF; sub(/[-+]0x[0-9a-f]+$/, "", sym); pending = sym
      }
      flush(); next
    }
    {
      flush()
      if ($2 ~ /^(call|j[a-z]+)$/ && match($0, /<[^>]+>/)) {
        sym = substr($0, RSTART + 1, RLENGTH - 2)
        sub(/\+0x[0-9a-f]+$/, "", sym)
        pending = sym
      }
    }
    END { flush() }' | sort -u)
  [ -n "$pairs" ] || continue
  while IFS=$'\t' read -r clone target; do
    [ "$target" = "$clone" ] && continue
    [[ "$target" =~ $clone_re ]] && continue
    grep -qxF -- "$target" <<<"$defined" || continue
    edges=$((edges + 1))
    line="$(c++filt -- "$clone") -> $(c++filt -- "$target")"
    listed=0
    for i in "${!allow_patterns[@]}"; do
      if [[ "$line" =~ ${allow_patterns[$i]} ]]; then
        listed=1
        used[$i]=$(( ${used[$i]:-0} + 1 ))
        break
      fi
    done
    if [ "$listed" -eq 0 ]; then
      unlisted=$((unlisted + 1))
      echo "check_clones: $(basename "$lib"): $line"
    fi
  done <<<"$pairs"
done

stale=0
for i in "${!allow_patterns[@]}"; do
  echo "check_clones: allowlisted x${used[$i]:-0}: ${allow_reasons[$i]}"
  if [ "$clones" -ne 0 ] && [ "${used[$i]:-0}" -eq 0 ]; then
    stale=$((stale + 1))
    echo "check_clones: stale allowlist entry: ${allow_patterns[$i]}"
  fi
done
if [ "$unlisted" -ne 0 ]; then
  echo "check_clones: FAIL: $unlisted of $edges clone edges leave the clone's ISA"
fi
if [ "$stale" -ne 0 ]; then
  echo "check_clones: FAIL: $stale allowlist entries match no edge of the $clones clone bodies; remove them"
fi
[ "$unlisted" -eq 0 ] && [ "$stale" -eq 0 ] || exit 1
echo "check_clones: OK ($edges allowlisted edges, $clones clone bodies)"
