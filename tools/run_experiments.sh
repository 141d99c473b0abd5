#!/usr/bin/env bash
# Regenerates every table/figure of the paper plus the extension
# experiments, writing one .txt per binary into results/ (override with
# $1). Further arguments name the binaries to run (for example
# `fig17_datasets micro_benchmarks`); none runs them all. Scale corpora
# with XSQ_BENCH_SCALE (default 1; 16 approximates the paper's real
# dataset sizes). Each file opens with the host record: CPU model,
# nproc, build type and the source commit ("-dirty" when the sources
# in the working tree differ from it).
set -u
cd "$(dirname "$0")/.."
build_dir=${BUILD_DIR:-build}
out_dir=${1:-results}
shift $(($# > 0 ? 1 : 0))
mkdir -p "$out_dir"

if [ ! -d "$build_dir/bench" ]; then
  echo "error: build first: cmake -B $build_dir -G Ninja && cmake --build $build_dir" >&2
  exit 1
fi

host_record() {
  local cpu build_type sha
  cpu=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)
  # An empty cache entry builds Release (see CMakeLists.txt).
  build_type=$(sed -n 's/^CMAKE_BUILD_TYPE:STRING=//p' \
    "$build_dir/CMakeCache.txt")
  sha=$(git describe --always 2>/dev/null || echo unknown)
  git diff --quiet HEAD -- src bench examples CMakeLists.txt 2>/dev/null \
    || sha="$sha-dirty"
  echo "host: cpu=\"$cpu\" nproc=$(nproc) build=${build_type:-Release} sha=$sha"
}

# run <name> <cmd...>: one binary into $out_dir/<name>.txt.
status=0
run() {
  local name=$1
  shift
  echo "== $name"
  { host_record; "$@"; } > "$out_dir/$name.txt" 2>&1 || {
    echo "   FAILED (see $out_dir/$name.txt)" >&2
    status=1
  }
}

if [ $# -gt 0 ]; then
  names=("$@")
else
  names=()
  for bench in "$build_dir"/bench/fig* "$build_dir"/bench/ext_*; do
    names+=("$(basename "$bench")")
  done
  names+=(micro_benchmarks)
fi
for name in "${names[@]}"; do
  run "$name" "$build_dir/bench/$name"
done

echo "results written to $out_dir/"
exit $status
