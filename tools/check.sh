#!/usr/bin/env bash
# Full pre-merge gate for the CEIO simulator.
#
# Stages (each skips gracefully when its tool is absent):
#   1. static checker       tools/lint/ceio_lint.py (convention and
#                           determinism rules) over the tree, zero
#                           unsuppressed findings required, plus its
#                           golden-file self-test (tools/lint/fixtures/)
#   2. release build + test cmake Release with CEIO_WERROR=ON (the
#                           -Wall/-Wextra/-Wshadow net is a gate), ctest
#   3. migration safety     every bench binary's stdout (perf_core aside: it
#                           prints host time), registered ceio_sim scenarios
#                           (single-tenant on CEIO, governed CEIO, HostCC and
#                           ShRing, multi-tenant and sharded), the
#                           CEIO poll's reclaim-churn and bounded-scan runs
#                           and the sparse-poisson run (scheduler overflow
#                           heap),
#                           diffed against the goldens in tools/golden/, also
#                           with the governor off and with `--trace`
#                           recording on, and the sharded one at --shards 1
#                           and 4
#   4. audited build + test CEIO_AUDIT=ON (invariant sweeps active)
#   5. asan build + test    CEIO_AUDIT=ON + CEIO_SANITIZE=address
#   6. ubsan build + test   CEIO_AUDIT=ON + CEIO_SANITIZE=undefined
#   7. tsan sweep           CEIO_SANITIZE=thread; a multi-axis ceio_sim sweep
#                           at --jobs 4, byte-compared against --jobs 1
#   8. tsan shards          CEIO_SANITIZE=thread; the sharded-kv-short,
#                           governed-kv-short (sim.domains=4),
#                           multitenant-short (sim.domains=2, Poisson tenant)
#                           and flowscale-1m (4,096 Poisson flows over 8
#                           domains) scenarios at --shards 4, byte-compared
#                           against --shards 1 (slices share nothing, so the
#                           worker count must not change a byte, including
#                           the datapath governor's decisions)
#   9. clang-tidy           over src/ using the .clang-tidy profile
#  10. perf gate            bench/perf_core from the release tree vs the
#                           committed BENCH_perf_core.json baseline; fails on
#                           a >25% drop in events_per_sec, llc_ops_per_sec,
#                           the three per-case llc_* keys (hit-heavy /
#                           miss-heavy / premature-evict — the aggregate can
#                           hide a one-pattern regression),
#                           flow_lookup_ops_per_sec, sharded_pkts_per_sec,
#                           multitenant_pkts_per_sec or
#                           fig10_governed_pkts_per_sec (one rerun absorbs
#                           noise)
#
# The summary ends with a table of tracked line counts per src/ subsystem
# and for tools/, bench/, tests/ and examples/ (informational only; skipped
# outside a git checkout).
#
# Usage: tools/check.sh [--quick]
#   --quick runs stages 1-2 only (lint + release tests).
#
# Build trees live under build-check/<stage> so the gate never disturbs a
# developer's primary build/ tree.
set -u -o pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
CHECK_ROOT="${REPO_ROOT}/build-check"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"
QUICK=0
[[ "${1:-}" == "--quick" ]] && QUICK=1

failures=()
note() { printf '\n== %s ==\n' "$*"; }
stage_result() {  # stage_result <name> <status>
  if [[ "$2" -ne 0 ]]; then
    failures+=("$1")
    printf -- '-- %s: FAIL\n' "$1"
  else
    printf -- '-- %s: ok\n' "$1"
  fi
}

# Code size as a reviewed number: tracked lines (`git ls-files`) per src/
# subsystem and for tools/, bench/, tests/ and examples/. Informational; it
# never fails the gate.
tracked_lines_table() {
  if [[ "$(git -C "${REPO_ROOT}" rev-parse --show-toplevel 2>/dev/null)" != \
        "$(cd "${REPO_ROOT}" && pwd -P)" ]]; then
    echo "not a git checkout; skipping the tracked-lines table"
    return 0
  fi
  local dir lines total=0
  echo "tracked lines:"
  for dir in $(git -C "${REPO_ROOT}" ls-files -- src |
                 awk -F/ 'NF > 2 { print "src/" $2 }' | sort -u) \
             tools bench tests examples; do
    lines="$(git -C "${REPO_ROOT}" ls-files -z -- "${dir}" |
               (cd "${REPO_ROOT}" && xargs -0 -r cat 2>/dev/null) | wc -l)"
    total=$((total + lines))
    printf '  %-16s %7d\n' "${dir}" "${lines}"
  done
  printf '  %-16s %7d\n' "total" "${total}"
}

build_and_test() {  # build_and_test <tree-name> <cmake-args...>
  local tree="${CHECK_ROOT}/$1"
  shift
  cmake -S "${REPO_ROOT}" -B "${tree}" "$@" >/dev/null || return 1
  cmake --build "${tree}" -j "${JOBS}" >/dev/null || return 1
  ctest --test-dir "${tree}" --output-on-failure -j "${JOBS}" | tail -n 3
}

# -- 1: static checker -------------------------------------------------------
note "lint (tools/lint/ceio_lint.py + golden-file self-test)"
if command -v python3 >/dev/null 2>&1; then
  lint_status=0
  python3 "${REPO_ROOT}/tools/lint/ceio_lint.py" || lint_status=1
  python3 "${REPO_ROOT}/tools/lint/test_ceio_lint.py" || lint_status=1
  stage_result lint "${lint_status}"
else
  echo "python3 not found; skipping"
fi

# -- 2: release build + tests ------------------------------------------------
note "release build + ctest (CEIO_WERROR=ON)"
build_and_test release -DCMAKE_BUILD_TYPE=Release -DCEIO_WERROR=ON
stage_result release $?

if [[ "${QUICK}" -eq 1 ]]; then
  note "quick mode: skipping golden/audit/sanitizer/clang-tidy/perf stages"
else
  # -- 3: migration safety (committed golden outputs) ------------------------
  # Refactors of the experiment plumbing must not change what the paper
  # binaries print. Run every figure/table bench and the registered ceio_sim
  # scenarios from the release tree and compare byte-for-byte against the
  # goldens committed in tools/golden/. After an *intentional* model change,
  # regenerate them (the benches from a temporary directory, since
  # fig10/fig11 also write trace files into the working directory):
  #   (cd "$(mktemp -d)" && for b in ${golden_benches}; do
  #      "${REPO_ROOT}/build/bench/$b" > "${REPO_ROOT}/tools/golden/$b.txt"; done)
  #   build/tools/ceio_sim ${reclaim_churn_args} \
  #     > tools/golden/ceio_sim_reclaim-churn.txt
  #   build/tools/ceio_sim ${bounded_scan_args} \
  #     > tools/golden/ceio_sim_bounded-scan.txt
  #   build/tools/ceio_sim ${sparse_poisson_args} \
  #     > tools/golden/ceio_sim_sparse-poisson.txt
  #   build/tools/ceio_sim --scenario ceio-kv-short \
  #     > tools/golden/ceio_sim_ceio-kv-short.txt
  #   build/tools/ceio_sim --scenario governed-kv-short \
  #     > tools/golden/ceio_sim_governed-kv-short.txt
  #   build/tools/ceio_sim --scenario ceio-kv-short --system=hostcc \
  #     > tools/golden/ceio_sim_ceio-kv-short-hostcc.txt
  #   build/tools/ceio_sim --scenario ceio-kv-short --system=shring \
  #     > tools/golden/ceio_sim_ceio-kv-short-shring.txt
  #   build/tools/ceio_sim --scenario multitenant-short \
  #     > tools/golden/ceio_sim_multitenant-short.txt
  #   build/tools/ceio_sim --scenario sharded-kv-short \
  #     > tools/golden/ceio_sim_sharded-kv-short.txt
  note "migration safety (diff vs tools/golden/)"
  golden_benches="ablation_credits ablation_cxl ablation_mpq fig04_motivation
    fig09_pktsize fig10_dynamic fig11_paths fig12_flowscale fig_multitenant
    limits_scenarios table2_latency table3_pathlat table4_mixed"
  # The CEIO controller poll's rarer branches, which no scenario golden
  # reaches: inactivity reclaims with reactivations under a full scan
  # window, and a scan window far smaller than the flow count. Both are
  # also ctests (tools.golden-*).
  reclaim_churn_args="--app=echo --flows=2048 --rate-gbps=0.02 --poisson --ms=1
    --warmup-ms=0.25 --set ceio.fast_ring_entries=16
    --set ceio.poll_scan_limit=4096 --set ceio.inactive_timeout=100us"
  bounded_scan_args="--app=echo --flows=512 --rate-gbps=0.1 --poisson --ms=2
    --warmup-ms=0.5 --set ceio.inactive_timeout=50us --set ceio.poll_scan_limit=32"
  # Emit gaps (4.1 ms mean) past the scheduler's far-tier horizon (~2.1 ms),
  # so timers take the overflow heap -> far tier -> wheel path; also a
  # ctest (tools.golden-sparse-poisson).
  sparse_poisson_args="--app=echo --flows=256 --rate-gbps=0.001 --poisson
    --warmup-ms=1 --ms=20"
  golden_status=1
  # shellcheck disable=SC2086  # the lists above split on whitespace
  if cmake --build "${CHECK_ROOT}/release" -j "${JOBS}" \
      --target ${golden_benches} ceio_sim_cli >/dev/null; then
    golden_status=0
    bench_dir="$(mktemp -d)"
    for bench in ${golden_benches}; do
      diff "${REPO_ROOT}/tools/golden/${bench}.txt" \
        <(cd "${bench_dir}" && "${CHECK_ROOT}/release/bench/${bench}") || golden_status=1
    done
    rm -rf "${bench_dir}"
    # shellcheck disable=SC2086
    diff "${REPO_ROOT}/tools/golden/ceio_sim_reclaim-churn.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" ${reclaim_churn_args}) || golden_status=1
    # shellcheck disable=SC2086
    diff "${REPO_ROOT}/tools/golden/ceio_sim_bounded-scan.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" ${bounded_scan_args}) || golden_status=1
    # shellcheck disable=SC2086
    diff "${REPO_ROOT}/tools/golden/ceio_sim_sparse-poisson.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" ${sparse_poisson_args}) || golden_status=1
    diff "${REPO_ROOT}/tools/golden/ceio_sim_ceio-kv-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario ceio-kv-short) || golden_status=1
    # The same KV load under the datapath governor and on the HostCC and
    # ShRing baselines, so every controller and datapath is pinned.
    diff "${REPO_ROOT}/tools/golden/ceio_sim_governed-kv-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario governed-kv-short) || golden_status=1
    for system in hostcc shring; do
      diff "${REPO_ROOT}/tools/golden/ceio_sim_ceio-kv-short-${system}.txt" \
        <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario ceio-kv-short \
          --system="${system}") || golden_status=1
    done
    diff "${REPO_ROOT}/tools/golden/ceio_sim_multitenant-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario multitenant-short) || golden_status=1
    # Sharded output is pinned too, at one worker thread and at four: paced
    # KV with the governor off over 4 independent slices, each built as a
    # single-domain Testbed (the --shards 4 run is also a ctest,
    # tools.golden-sharded-kv-short).
    for shards in 1 4; do
      diff "${REPO_ROOT}/tools/golden/ceio_sim_sharded-kv-short.txt" \
        <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario sharded-kv-short \
          --shards "${shards}") || golden_status=1
    done
    # Policy-layer neutrality: with the governor explicitly off the policy
    # plumbing must be invisible — same goldens, byte for byte.
    diff "${REPO_ROOT}/tools/golden/ceio_sim_ceio-kv-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario ceio-kv-short \
        --set policy.governor=off) || golden_status=1
    diff "${REPO_ROOT}/tools/golden/ceio_sim_multitenant-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario multitenant-short \
        --set policy.governor=off) || golden_status=1
    # Recording never changes results: with `--trace` the telemetry hooks,
    # gauges and sampler are live for the whole measure window, and the
    # report must still match the goldens byte for byte.
    trace_dir="$(mktemp -d)"
    diff "${REPO_ROOT}/tools/golden/ceio_sim_ceio-kv-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario ceio-kv-short \
        --trace "${trace_dir}/ceio-kv-short") || golden_status=1
    diff "${REPO_ROOT}/tools/golden/ceio_sim_multitenant-short.txt" \
      <("${CHECK_ROOT}/release/tools/ceio_sim" --scenario multitenant-short \
        --trace "${trace_dir}/multitenant-short") || golden_status=1
    rm -rf "${trace_dir}"
    [[ "${golden_status}" -eq 0 ]] && echo "outputs match committed goldens"
  fi
  stage_result migration-safety "${golden_status}"

  # -- 4: audited build + tests ----------------------------------------------
  note "audited build + ctest (CEIO_AUDIT=ON, CEIO_WERROR=ON)"
  build_and_test audit -DCMAKE_BUILD_TYPE=Release -DCEIO_AUDIT=ON \
    -DCEIO_WERROR=ON
  stage_result audit $?

  # -- 5/6: sanitizers, with auditing on so sweeps run under them ------------
  note "asan build + ctest (CEIO_AUDIT=ON, CEIO_SANITIZE=address)"
  build_and_test asan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCEIO_AUDIT=ON \
    -DCEIO_SANITIZE=address
  stage_result asan $?

  note "ubsan build + ctest (CEIO_AUDIT=ON, CEIO_SANITIZE=undefined)"
  build_and_test ubsan -DCMAKE_BUILD_TYPE=RelWithDebInfo -DCEIO_AUDIT=ON \
    -DCEIO_SANITIZE=undefined
  stage_result ubsan $?

  # -- 7: tsan sweep ---------------------------------------------------------
  # The sweep runner fans experiments out on a thread pool; run a small
  # multi-axis sweep at --jobs 4 under ThreadSanitizer and require the rows
  # to be byte-identical to the single-threaded expansion. TSan reports make
  # ceio_sim exit non-zero (halt_on_error), failing the stage.
  note "tsan sweep (CEIO_SANITIZE=thread, --jobs 4 vs --jobs 1)"
  tsan_tree="${CHECK_ROOT}/tsan"
  tsan_status=1
  tsan_sweep() {  # tsan_sweep <jobs>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario ceio-kv-short --ms 1 --sweep llc.ddio_ways=2,4 --runs 2 \
      --jobs "$1"
  }
  if cmake -S "${REPO_ROOT}" -B "${tsan_tree}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DCEIO_SANITIZE=thread >/dev/null &&
      cmake --build "${tsan_tree}" -j "${JOBS}" --target ceio_sim_cli >/dev/null; then
    if diff <(tsan_sweep 1) <(tsan_sweep 4); then
      echo "sweep rows byte-identical under TSan at --jobs 4"
      tsan_status=0
    else
      echo "parallel sweep diverges or raced under TSan"
    fi
  fi
  stage_result tsan-sweep "${tsan_status}"

  # -- 8: tsan sharded run ---------------------------------------------------
  # The sharded harness advances its independent slices (one Testbed each,
  # sharing nothing) on worker threads, one dispatch per run_until; run the
  # sharded scenarios at --shards 4 under ThreadSanitizer and require each
  # report to be byte-identical to the --shards 1 run (the same determinism
  # contract stage 7 gives the sweep runner's --jobs).
  note "tsan sharded runs (sharded, governed, multi-tenant and flowscale; --shards 4 vs --shards 1)"
  tsan_shards_status=1
  tsan_sharded() {  # tsan_sharded <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario sharded-kv-short --ms 1 --shards "$1"
  }
  # The governed variant proves the datapath governor's decisions are
  # sharding-invariant: per-domain governors tick on domain-local gauges, so
  # the worker-thread count must not change a single byte.
  tsan_governed() {  # tsan_governed <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario governed-kv-short --ms 1 --set sim.domains=4 --shards "$1"
  }
  # The multi-tenant variant spreads a Poisson tenant over two slices: each
  # flow's arrival stream must not depend on the worker-thread count either.
  tsan_tenants() {  # tsan_tenants <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario multitenant-short --set sim.domains=2 --shards "$1"
  }
  # The only Poisson run at scale over slices: 4,096 flows over 8, each
  # slice's DCTCP window stream draining a synchronised rollover train.
  tsan_flowscale() {  # tsan_flowscale <shards>
    TSAN_OPTIONS="halt_on_error=1" "${tsan_tree}/tools/ceio_sim" \
      --scenario flowscale-1m --flows=4096 --shards "$1"
  }
  if [[ -x "${tsan_tree}/tools/ceio_sim" ]]; then
    tsan_shards_status=0
    for run in tsan_sharded tsan_governed tsan_tenants tsan_flowscale; do
      if diff <("${run}" 1) <("${run}" 4); then
        echo "${run#tsan_} report byte-identical under TSan at --shards 4"
      else
        echo "${run#tsan_} run diverges or raced under TSan"
        tsan_shards_status=1
      fi
    done
  fi
  stage_result tsan-shards "${tsan_shards_status}"

  # -- 9: clang-tidy ---------------------------------------------------------
  note "clang-tidy"
  if command -v clang-tidy >/dev/null 2>&1 && command -v run-clang-tidy >/dev/null 2>&1; then
    tidy_tree="${CHECK_ROOT}/tidy"
    cmake -S "${REPO_ROOT}" -B "${tidy_tree}" -DCMAKE_BUILD_TYPE=Release \
      -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null &&
      run-clang-tidy -quiet -p "${tidy_tree}" "${REPO_ROOT}/src/.*" \
        >"${tidy_tree}/clang-tidy.log" 2>&1
    tidy_status=$?
    grep -E "warning:|error:" "${tidy_tree}/clang-tidy.log" | sort -u | head -n 40 || true
    stage_result clang-tidy "${tidy_status}"
  else
    echo "clang-tidy / run-clang-tidy not found; skipping (install LLVM tools to enable)"
  fi

  # -- 10: perf gate ---------------------------------------------------------
  # Wall-clock regression guard over the event core. Compares the release
  # tree's perf_core headline rates against the committed baseline; a >25%
  # drop on either metric fails. Perf is noisy, so a failing first run gets
  # exactly one rerun before the verdict. After an intentional perf change,
  # refresh the baseline:
  #   build/bench/perf_core perf_core.json BENCH_perf_core.json
  note "perf gate (perf_core vs BENCH_perf_core.json, >25% regression fails)"
  if command -v python3 >/dev/null 2>&1; then
    perf_status=1
    if cmake --build "${CHECK_ROOT}/release" -j "${JOBS}" --target perf_core >/dev/null; then
      perf_compare() {  # perf_compare <fresh.json>
        python3 - "${REPO_ROOT}/BENCH_perf_core.json" "$1" <<'PYEOF'
import json, sys
base = json.load(open(sys.argv[1]))
fresh = json.load(open(sys.argv[2]))
ok = True
for key in ("events_per_sec", "llc_ops_per_sec", "llc_hit_heavy_ops_per_sec",
            "llc_miss_heavy_ops_per_sec", "llc_premature_evict_ops_per_sec",
            "flow_lookup_ops_per_sec", "sharded_pkts_per_sec",
            "multitenant_pkts_per_sec", "fig10_governed_pkts_per_sec"):
    b, f = float(base[key]), float(fresh[key])
    ratio = f / b if b else 1.0
    print(f"  {key}: baseline {b:.0f}  fresh {f:.0f}  ({ratio:.2f}x)")
    if ratio < 0.75:
        ok = False
sys.exit(0 if ok else 1)
PYEOF
      }
      perf_json="${CHECK_ROOT}/release/perf_core_gate.json"
      for attempt in 1 2; do
        "${CHECK_ROOT}/release/bench/perf_core" "${perf_json}" >/dev/null || break
        if perf_compare "${perf_json}"; then
          perf_status=0
          break
        fi
        [[ "${attempt}" -eq 1 ]] && echo "regression on first run; rerunning once to rule out noise"
      done
    fi
    stage_result perf-gate "${perf_status}"
  else
    echo "python3 not found; skipping"
  fi
fi

note "summary"
tracked_lines_table
if [[ "${#failures[@]}" -gt 0 ]]; then
  echo "FAILED stages: ${failures[*]}"
  exit 1
fi
echo "all stages passed"
