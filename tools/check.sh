#!/usr/bin/env bash
# The per-PR verification gate:
#   1. builds the default tree, runs the full tier-1 ctest suite
#      (including the ext_cluster, ext_replication and ext_router_ha
#      process gates), then the cluster process smoke (forked xsqd
#      shards + xsq_router driven through xsqctl, including SIGKILL
#      failover, an rf=2 kill served entirely from replicas, and a
#      two-router gossip pair where killing router A fails the client
#      over to router B), then builds a
#      -DXSQ_SIMD=OFF tree and runs the scanner differential subset so
#      the scalar/SWAR fallback paths stay event-identical;
#   2. builds a ThreadSanitizer tree and re-runs the suite under TSan so
#      the concurrent service layer is race-checked on every change;
#   3. builds an AddressSanitizer tree and re-runs the suite under ASan
#      so the tape subsystem's binary decoding (varints, blob spans,
#      string_views into interned symbols) is overflow- and leak-checked;
#   4. builds an UndefinedBehaviorSanitizer tree and re-runs the suite
#      under UBSan so numeric edge cases (ParseNumber/FormatNumber
#      round-trips, histogram bucket arithmetic, shift-heavy automaton
#      code) are checked for overflow/UB;
#   5. when clang is on PATH, builds the libFuzzer harnesses
#      (-DXSQ_FUZZ=ON) and runs each target for a bounded stretch over
#      its seed corpus, so the input-facing decoders get continuous
#      coverage-guided probing on every change.
#
# Usage: tools/check.sh [ctest-regex]
#   tools/check.sh              # everything, all builds
#   tools/check.sh Service      # only tests matching 'Service'
# Env: BUILD_DIR (default build), TSAN_BUILD_DIR (default build-tsan),
#      SIMD_OFF_BUILD_DIR (default build-nosimd),
#      XSQ_SKIP_SIMD_OFF=1 to skip the -DXSQ_SIMD=OFF scanner leg,
#      ASAN_BUILD_DIR (default build-asan),
#      UBSAN_BUILD_DIR (default build-ubsan),
#      XSQ_SKIP_TSAN=1 to skip the TSan builds (e.g. no libtsan),
#      XSQ_SKIP_ASAN=1 to skip the ASan builds (e.g. no libasan),
#      XSQ_SKIP_UBSAN=1 to skip the UBSan build (e.g. no libubsan),
#      XSQ_SKIP_CLUSTER=1 to skip the cluster process smoke,
#      XSQ_SKIP_FUZZ=1 to skip the fuzz leg,
#      FUZZ_BUILD_DIR (default build-fuzz),
#      XSQ_FUZZ_SECONDS per-target fuzz budget (default 30).
#
# Every build compiles the failpoint sites, so each suite run includes
# the fault-injection tests: the ASan and TSan trees check every
# injected early-return path for leaks and races.
set -eu
cd "$(dirname "$0")/.."

build_dir=${BUILD_DIR:-build}
tsan_dir=${TSAN_BUILD_DIR:-build-tsan}
asan_dir=${ASAN_BUILD_DIR:-build-asan}
ubsan_dir=${UBSAN_BUILD_DIR:-build-ubsan}
filter=${1:-}
ctest_args=(--output-on-failure -j "$(nproc)")
if [ -n "$filter" ]; then
  ctest_args+=(-R "$filter")
fi

echo "== plain build ($build_dir)"
cmake -B "$build_dir" -S . >/dev/null
cmake --build "$build_dir" -j "$(nproc)"
(cd "$build_dir" && ctest "${ctest_args[@]}")

# SIMD-off leg: the scalar/SWAR fallback tree (-DXSQ_SIMD=OFF) must
# produce the same event streams as the vectorized default. Runs the
# scanner differential subset: scan primitives, parser edge cases,
# chunk-split sweeps and the cross-impl corpus differential.
if [ "${XSQ_SKIP_SIMD_OFF:-0}" = "1" ]; then
  echo "== SIMD-off build skipped (XSQ_SKIP_SIMD_OFF=1)"
elif [ -z "$filter" ]; then
  simd_off_dir=${SIMD_OFF_BUILD_DIR:-build-nosimd}
  echo "== SIMD-off build ($simd_off_dir)"
  cmake -B "$simd_off_dir" -S . -DXSQ_SIMD=OFF >/dev/null
  cmake --build "$simd_off_dir" -j "$(nproc)" \
    --target scan_test sax_parser_test parser_edge_test robustness_test
  (cd "$simd_off_dir" &&
    ctest --output-on-failure -j "$(nproc)" \
      -R 'Scan|SaxParser|ParserEdge|ChunkSplit|ExtremeInput')
fi

# Cluster leg: xsqd shards + xsq_router as real processes over TCP,
# driven through xsqctl — a SIGKILL failover on the unreplicated
# cluster, then an rf=2 cluster where a SIGKILL costs zero client
# re-records because replicas hold every tape, then a two-router
# gossip pair where SIGKILLing router A fails xsqctl's --router=A,B
# endpoint list over to router B. (The in-process cluster tests and
# the ext_cluster_smoke / ext_replication_smoke / ext_router_ha_smoke
# bench gates are part of the ctest suite above and rerun under every
# sanitizer tree below.)
if [ "${XSQ_SKIP_CLUSTER:-0}" = "1" ]; then
  echo "== cluster smoke skipped (XSQ_SKIP_CLUSTER=1)"
elif [ -z "$filter" ]; then
  echo "== cluster smoke (3 shards + router)"
  tools/cluster_smoke.sh "$build_dir"/examples/xsqd \
    "$build_dir"/examples/xsq_router "$build_dir"/examples/xsqctl
fi

if [ "${XSQ_SKIP_TSAN:-0}" = "1" ]; then
  echo "== TSan build skipped (XSQ_SKIP_TSAN=1)"
else
  echo "== ThreadSanitizer build ($tsan_dir)"
  cmake -B "$tsan_dir" -S . -DXSQ_SANITIZE=thread >/dev/null
  cmake --build "$tsan_dir" -j "$(nproc)"
  # halt_on_error turns any reported race into a test failure.
  (cd "$tsan_dir" &&
    TSAN_OPTIONS="halt_on_error=1" ctest "${ctest_args[@]}")
fi

if [ "${XSQ_SKIP_ASAN:-0}" = "1" ]; then
  echo "== ASan build skipped (XSQ_SKIP_ASAN=1)"
else
  echo "== AddressSanitizer build ($asan_dir)"
  cmake -B "$asan_dir" -S . -DXSQ_SANITIZE=address >/dev/null
  cmake --build "$asan_dir" -j "$(nproc)"
  (cd "$asan_dir" &&
    ASAN_OPTIONS="halt_on_error=1:detect_leaks=1" ctest "${ctest_args[@]}")
fi

if [ "${XSQ_SKIP_UBSAN:-0}" = "1" ]; then
  echo "== UBSan build skipped (XSQ_SKIP_UBSAN=1)"
else
  echo "== UndefinedBehaviorSanitizer build ($ubsan_dir)"
  cmake -B "$ubsan_dir" -S . -DXSQ_SANITIZE=undefined >/dev/null
  cmake --build "$ubsan_dir" -j "$(nproc)"
  (cd "$ubsan_dir" &&
    UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1" ctest "${ctest_args[@]}")
fi

# Fuzz leg: when clang is available, build the libFuzzer harnesses
# (-DXSQ_FUZZ=ON needs clang) and give each target a bounded run over
# its seed corpus. 30s per target keeps the gate fast while still
# catching shallow regressions in the input-facing decoders.
if [ "${XSQ_SKIP_FUZZ:-0}" = "1" ]; then
  echo "== fuzz leg skipped (XSQ_SKIP_FUZZ=1)"
elif ! command -v clang++ >/dev/null 2>&1; then
  echo "== fuzz leg skipped (no clang++ on PATH)"
else
  fuzz_dir=${FUZZ_BUILD_DIR:-build-fuzz}
  fuzz_seconds=${XSQ_FUZZ_SECONDS:-30}
  echo "== libFuzzer build ($fuzz_dir, ${fuzz_seconds}s per target)"
  cmake -B "$fuzz_dir" -S . -DXSQ_FUZZ=ON \
    -DCMAKE_C_COMPILER=clang -DCMAKE_CXX_COMPILER=clang++ >/dev/null
  cmake --build "$fuzz_dir" -j "$(nproc)" \
    --target fuzz_sax_parser fuzz_xpath_parser fuzz_tape_load \
      fuzz_subscribe_verb fuzz_gossip_verb
  for target in sax_parser:sax xpath_parser:xpath tape_load:tape \
      subscribe_verb:subscribe gossip_verb:gossip; do
    bin="$fuzz_dir/tests/fuzz/fuzz_${target%%:*}"
    corpus="tests/fuzz/corpus/${target##*:}"
    echo "== fuzz_${target%%:*} over $corpus"
    ASAN_OPTIONS="halt_on_error=1" \
      "$bin" -max_total_time="$fuzz_seconds" -print_final_stats=1 "$corpus"
  done
fi

echo "check.sh: all green"
