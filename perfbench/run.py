#!/usr/bin/env python3
"""Host-cost benchmark of the CEIO simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload kv16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record-refs 0-31

Builds perfbench/ (which compiles the simulator from src/) with CMake into
$CARGO_TARGET_DIR, or .bench_build when unset, runs ceio_perfbench, checks every
run's report digest against the reference for (workload, seed), appends the
raw per-run values to perfbench-out/results.jsonl there, and prints one JSON
object as the last line: {"correct", "attempted", "failed", "metrics"}.
"""
import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFS = BENCH / "refs.json"
PROGRAM_TIMEOUT_S = 160


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures and builds ceio_perfbench; returns its path or exits non-zero."""
    build_dir = build_root() / "perfbench"
    log_path = build_root() / "perfbench-build.log"
    build_dir.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(BENCH), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "--target", "ceio_perfbench", "-j", jobs],
    ]
    with open(log_path, "w") as log:
        ok = all(subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode == 0
                 for cmd in steps)
    if ok:
        return build_dir / "ceio_perfbench"
    sys.stderr.write(log_path.read_text()[-4000:])
    sys.stderr.write("perfbench: build failed (log: %s)\n" % log_path)
    sys.exit(2)


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def run_program(binary, args):
    """Runs ceio_perfbench; echoes its text lines and returns its final JSON."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, text=True,
                              timeout=PROGRAM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: ceio_perfbench timed out\n")
        sys.exit(3)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout[-2000:])
        sys.stderr.write("perfbench: ceio_perfbench failed (exit %d)\n" % proc.returncode)
        sys.exit(4)
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


# Runs of a workload's sharded variant: ceio_perfbench checks that they agree
# across shard counts; they have no reference here.
SHARDED_KINDS = ("sharded", "shards1")


def judge(report, workload, seed):
    """Counts failed runs: errors inside a run, and digests that differ from the
    reference. A seed with no reference takes its first good run's digest."""
    local_path = build_root() / "perfbench-out" / "refs.json"
    committed, local = load_json(REFS), load_json(local_path)
    key = str(seed)
    ref = committed.get(workload, {}).get(key) or local.get(workload, {}).get(key)
    if ref is None:
        good = [r["digest"] for r in report["reps"]
                if r["ok"] and r["kind"] not in SHARDED_KINDS]
        if good:
            ref = good[0]
            local.setdefault(workload, {})[key] = ref
            local_path.parent.mkdir(parents=True, exist_ok=True)
            local_path.write_text(json.dumps(local, indent=1, sort_keys=True) + "\n")
    failed = 0
    for r in report["reps"]:
        if not r["ok"]:
            sys.stderr.write("perfbench: %s run failed: %s\n" % (r["kind"], r["error"]))
            failed += 1
        elif r["kind"] not in SHARDED_KINDS and r["digest"] != ref:
            sys.stderr.write("perfbench: %s run digest %s != reference %s\n"
                             % (r["kind"], r["digest"], ref))
            failed += 1
    return ref, failed


def bench(binary, workload, seed, seconds, trace):
    out_dir = build_root() / "perfbench-out"
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_program(binary, ["run", "--workload", workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(trace),
                                 "--out", str(out_dir)])
    ref, failed = judge(report, workload, seed)
    attempted = len(report["reps"])
    print("runs: %d attempted, %d failed (fail_frac %.4f ratio), reference digest %s"
          % (attempted, failed, failed / max(attempted, 1), ref))
    with open(out_dir / "results.jsonl", "a") as raw:
        raw.write(json.dumps(dict(report, reference=ref, failed=failed,
                                  time=time.time())) + "\n")
    return {"correct": failed == 0 and bool(report["metrics"]), "attempted": attempted,
            "failed": failed, "metrics": report["metrics"]}


def selftest(binary):
    """ceio_perfbench self-test, then the metric catalogue and both output modes
    against BENCHMARK.json."""
    ok = subprocess.run([str(binary), "selftest"]).returncode == 0
    spec = load_json(ROOT / "BENCHMARK.json")
    want = {"e2e": {m["name"]: m["unit"] for m in spec.get("end_to_end", [])},
            "layer": {m["name"]: m["unit"] for m in spec.get("per_layer", [])}}
    have = {"e2e": {}, "layer": {}}
    listing = subprocess.run([str(binary), "metrics"], stdout=subprocess.PIPE, text=True)
    for line in listing.stdout.split("\n"):
        if line:
            kind, name, unit = line.split()
            have[kind][name] = unit
    for kind in ("e2e", "layer"):
        same = want[kind] == have[kind]
        print("%s  %s metrics match BENCHMARK.json" % ("PASS" if same else "FAIL", kind))
        ok = ok and same
    workload = spec["workloads"][0]["name"]
    for trace, kind in ((0, "e2e"), (1, "layer")):
        result = bench(binary, workload, 1, 1, trace)
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        good = result["correct"] and emitted == want[kind]
        print("%s  %s --trace %d emits every %s metric with its unit, correct=%s"
              % ("PASS" if good else "FAIL", workload, trace, kind, result["correct"]))
        ok = ok and good
    return ok


def record_refs(binary, seeds):
    lo, _, hi = seeds.partition("-")
    refs = load_json(REFS)
    for w in load_json(ROOT / "BENCHMARK.json")["workloads"]:
        for seed in range(int(lo), int(hi or lo) + 1):
            out = subprocess.run([str(binary), "digest", "--workload", w["name"],
                                  "--seed", str(seed)], stdout=subprocess.PIPE, text=True,
                                 check=True)
            refs.setdefault(w["name"], {})[str(seed)] = out.stdout.strip()
            print(w["name"], seed, out.stdout.strip())
    REFS.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--record-refs", metavar="LO-HI")
    a = p.parse_args()
    binary = build()
    if a.selftest:
        sys.exit(0 if selftest(binary) else 1)
    if a.record_refs:
        record_refs(binary, a.record_refs)
        return
    if not a.workload:
        p.error("--workload is required")
    print(json.dumps(bench(binary, a.workload, a.seed, a.seconds, a.trace)))


if __name__ == "__main__":
    main()
