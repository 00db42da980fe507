#!/usr/bin/env python3
"""Parent/change A/B of the host-cost benchmark (perfbench/): the perf gate of
tools/check.sh stage 10.

    python3 tools/perf_ab.py

The parent is HEAD when a tracked file differs from it and HEAD~1 when none
does (untracked files are not part of the change); `git archive` extracts it
under build-check/perf-ab/. Each side builds its own perfbench/ into its own
CARGO_TARGET_DIR there and runs the BENCHMARK.json command:

  * untraced pairs of every BENCHMARK.json workload (PAIRS, or PAIRS_OF[w]),
    interleaved, the same seed on both sides of a pair (seeds with a
    committed reference in perfbench/refs.json), alternating which side runs
    first, `--seconds` from `run_seconds`;
  * TRACED_RUNS traced echo4k-poisson runs per side, alternating likewise.

A workload fails when one of its runs is not `correct` or has `failed > 0`,
or when an end-to-end metric's change median is worse than the parent's
median by more than its BENCHMARK.json bound. A metric that does not fail is
unresolved when the parent's median is itself uncertain by more than the
bound, taken as the box-plot notch 1.58 * IQR / sqrt(runs) relative to the
median, unless every change run reads better than every parent run. The
traced runs fail when the least `*_ns_per_op` over the change's runs exceeds
the parent's least by more than LAYER_BOUND: one binary's traced runs spread
up to 2x per op, and a least over several is its cost.

A shared host can keep a whole process about 1.5x slow, so a few runs can
move a median or a least past its bound on unchanged code. A group (a
workload, or the traced runs) that fails or is unresolved therefore gets as
many fresh pairs once more, on the next seeds, and is judged on all its
runs. The exit status is 0 when nothing then fails or is unresolved, else 1.
perfbench/ and BENCHMARK.json are only read.
"""
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "build-check" / "perf-ab"
PAIRS = 4
# echo4k-poisson runs in a quarter of the others' time and its processes
# spread the most (whole runs 0.8-1.6x of their median), so its median
# takes three times as many.
PAIRS_OF = {"echo4k-poisson": 12}
TRACED_WORKLOAD = "echo4k-poisson"
TRACED = TRACED_WORKLOAD + " traced"
TRACED_RUNS = 5
LAYER_BOUND = 0.25
NOTCH = 1.58
RUN_TIMEOUT_S = 900


def git(*args):
    """Output of a git command in the repository; exits 1 with git's own
    message when it fails (no checkout, no HEAD~1 in a shallow clone)."""
    proc = subprocess.run(["git", "-C", str(ROOT), *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit("perf A/B: no parent to compare against: git %s: %s"
                 % (" ".join(args), proc.stderr.strip() or "exit %d" % proc.returncode))
    return proc.stdout.strip()


def extract_parent():
    """Returns (rev, sha, tree) of the parent, extracting it unless the tree
    already holds that commit (then its perfbench build is reused too)."""
    rev = "HEAD" if git("status", "--porcelain", "--untracked-files=no") else "HEAD~1"
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    if rev == "HEAD~1" and git("rev-parse", "HEAD^{tree}") == git("rev-parse", sha + "^{tree}"):
        sys.exit("perf A/B: HEAD and HEAD~1 hold the same files; nothing to compare")
    stamp = WORK / "parent" / "rev"
    tree = WORK / "parent" / "tree"
    if not stamp.is_file() or stamp.read_text() != sha:
        shutil.rmtree(WORK / "parent", ignore_errors=True)
        tree.mkdir(parents=True)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True,
                                 stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)
        stamp.write_text(sha)
    return rev, sha, tree


def run(command, tree, side, workload, seed, seconds, trace):
    """One benchmark invocation; returns its result line, or exits 1 when it
    printed none (a build failure or crash would repeat on every run)."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(WORK / side / "build"))
    try:
        proc = subprocess.run(args, cwd=tree, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        last = proc.stdout.strip().split("\n")[-1]
        if proc.returncode == 0 and last.startswith("{"):
            return json.loads(last)
        sys.stderr.write(proc.stderr[-2000:])
    except subprocess.TimeoutExpired:
        sys.stderr.write("timed out after %d s\n" % RUN_TIMEOUT_S)
    sys.stderr.write("perf A/B: the %s side's %s seed %d --trace %d run printed no result\n"
                     % (side, workload, seed, trace))
    sys.exit(1)


def values(results, name):
    return [r["metrics"][name]["value"] for r in results if name in r.get("metrics", {})]


def worse_by(better, parent, change):
    """Relative change of `change` against `parent`, positive when worse."""
    delta = (change - parent) / abs(parent) if parent else 0.0
    return delta if better == "lower" else -delta


def notch(vals):
    """Uncertainty of the median of `vals`, relative to it: 1.58 IQR/sqrt(n)."""
    mid = statistics.median(vals)
    if len(vals) < 2 or not mid:
        return 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return NOTCH * (q3 - q1) / math.sqrt(len(vals)) / abs(mid)


def verdict(end_to_end, untraced, traced):
    """Judges one A/B. `end_to_end` is BENCHMARK.json's list; `untraced` maps a
    workload to {"parent": [...], "change": [...]} result lines, `traced` maps
    a side to its traced TRACED_WORKLOAD result lines. Returns (rows,
    failures, unresolved): one printable line per comparison, and the reasons
    of each failing and each unresolved group (a workload, or TRACED); the
    A/B passes when both dicts are empty."""
    rows, failures, unresolved = [], {}, {}
    groups = list(untraced.items()) + [(TRACED, traced)]
    for label, sides in groups:
        for side, results in sides.items():
            bad = [r for r in results if not r.get("correct") or r.get("failed", 1) > 0]
            if bad:
                failures.setdefault(label, []).append(
                    "%s: %d of %d %s runs not correct or with failed > 0"
                    % (label, len(bad), len(results), side))
    for workload, sides in untraced.items():
        for m in end_to_end:
            p, c = values(sides["parent"], m["name"]), values(sides["change"], m["name"])
            if not p or not c:
                continue
            mp, mc = statistics.median(p), statistics.median(c)
            worse, spread = worse_by(m["better"], mp, mc), notch(p)
            clear_gain = max(worse_by(m["better"], x, y) for x in p for y in c) < 0
            status = ("FAIL" if worse > m["bound"] else
                      "UNRESOLVED" if spread > m["bound"] and not clear_gain else "")
            rows.append("  %-16s %-18s %12.6g %12.6g %+8.1f%%  notch %5.1f%%  bound %3.0f%%  %s"
                        % (workload, m["name"], mp, mc, 100 * worse, 100 * spread,
                           100 * m["bound"], status))
            if status == "FAIL":
                failures.setdefault(workload, []).append(
                    "%s: %s median %.6g is %.1f%% worse than the parent's %.6g (bound %.0f%%)"
                    % (workload, m["name"], mc, 100 * worse, mp, 100 * m["bound"]))
            elif status:
                unresolved.setdefault(workload, []).append(
                    "%s: %s: the parent's median %.6g is uncertain by %.1f%% over %d runs,"
                    " more than the bound %.0f%%" % (workload, m["name"], mp, 100 * spread,
                                                     len(p), 100 * m["bound"]))
    names = sorted({n for r in traced["change"] for n in r.get("metrics", {})
                    if n.endswith("_ns_per_op")})
    for name in names:
        p, c = values(traced["parent"], name), values(traced["change"], name)
        if not p or not c or min(p) <= 0:
            continue
        rise = min(c) / min(p) - 1
        fail = rise > LAYER_BOUND
        rows.append("  %-16s %-34s least %9.4g %9.4g %+8.1f%%  bound %3.0f%%  %s"
                    % (TRACED_WORKLOAD, name, min(p), min(c), 100 * rise, 100 * LAYER_BOUND,
                       "FAIL" if fail else ""))
        if fail:
            failures.setdefault(TRACED, []).append(
                "%s: %s least %.4g ns is %.1f%% above the parent's %.4g ns (bound %.0f%%)"
                % (TRACED, name, min(c), 100 * rise, min(p), 100 * LAYER_BOUND))
    return rows, failures, unresolved


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((ROOT / "perfbench" / "refs.json").read_text())
    rev, sha, parent_tree = extract_parent()
    trees = {"parent": parent_tree, "change": ROOT}
    pairs = {w["name"]: PAIRS_OF.get(w["name"], PAIRS) for w in spec["workloads"]}
    print("perf A/B: the working tree against %s (%s); untraced pairs %s, %d traced %s"
          " runs per side" % (rev, sha[:12], ", ".join("%s %d" % kv for kv in pairs.items()),
                              TRACED_RUNS, TRACED_WORKLOAD))

    def pair(k, workload, trace, into):
        """Runs pair k, on the k-th seed with a committed digest, into
        into["parent"] and into["change"]."""
        seed = sorted(int(s) for s in refs[workload])[k]
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            into[side].append(run(spec["command"], trees[side], side, workload, seed,
                                  spec["run_seconds"], trace))
        print("  pair %d %s seed %d --trace %d: %s first" % (k + 1, workload, seed, trace,
                                                            order[0]), flush=True)

    untraced = {w: {"parent": [], "change": []} for w in pairs}
    traced = {"parent": [], "change": []}

    def batch(r, groups):
        """Round r of pairs for the named groups, interleaving the workloads."""
        for k in range(max(pairs.values())):
            for workload, n in pairs.items():
                if workload in groups and k < n:
                    pair(r * n + k, workload, 0, untraced[workload])
        if TRACED in groups:
            for k in range(r * TRACED_RUNS, (r + 1) * TRACED_RUNS):
                pair(k, TRACED_WORKLOAD, 1, traced)

    batch(0, list(pairs) + [TRACED])
    rows, failures, unresolved = verdict(spec["end_to_end"], untraced, traced)
    again = list(dict.fromkeys(list(failures) + list(unresolved)))
    if again:
        for line in sum(failures.values(), []) + sum(unresolved.values(), []):
            print("  first round: " + line)
        print("  once more with fresh pairs: %s" % ", ".join(again), flush=True)
        batch(1, again)
        rows, failures, unresolved = verdict(spec["end_to_end"], untraced, traced)
    print("end-to-end medians and least traced per-op costs (parent, change):")
    print("\n".join(rows))
    for line in sum(failures.values(), []):
        print("FAIL " + line)
    for line in sum(unresolved.values(), []):
        print("UNRESOLVED " + line)
    print("perf A/B: %s" % ("regression" if failures else
                            "unresolved" if unresolved else "no regression"))
    return 1 if failures or unresolved else 0


if __name__ == "__main__":
    sys.exit(main())
