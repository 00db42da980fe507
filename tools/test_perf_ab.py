#!/usr/bin/env python3
"""Self-test of tools/perf_ab.py's verdict, on synthetic results.

Needs no build and runs no benchmark: it feeds perf_ab.verdict() made-up
result lines and asserts that

  1. medians within their bounds pass, also with a slow run on each side;
  2. one end-to-end metric past its bound fails, and the failure names it;
  3. `correct: false` or `failed > 0` on either side fails;
  4. a least traced `*_ns_per_op` 30% above the parent's fails, and one 20%
     above passes;
  5. a metric whose parent runs spread too widely to pin the median within
     its bound is unresolved, not passed, unless every change run is better;
  6. a failure is filed under its group (the workload, or the traced runs),
     which is what perf_ab runs again.

Registered as a ctest test (tools.perf-ab-selftest).
"""
import copy
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # no __pycache__/ in the source tree
sys.path.insert(0, str(Path(__file__).resolve().parent))
import perf_ab  # noqa: E402

END_TO_END = [
    {"name": "wall_s", "better": "lower", "bound": 0.25},
    {"name": "sim_pkts_per_s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
]
failures = []


def result(metrics):
    return {"correct": True, "attempted": 41, "failed": 0,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}}


def runs(wall, pkts, rss, spread=(0.95, 0.99, 1.01, 1.05)):
    """One run per factor in `spread` around the given values."""
    return [result({"wall_s": wall * f, "sim_pkts_per_s": pkts / f, "peak_rss_mb": rss})
            for f in spread]


def traced(ns):
    """Five traced runs whose least ns/op is `ns`, the others up to 1.8x."""
    return [result({"host.llc.hit_ns_per_op": ns * f, "sim.events": 49617})
            for f in (1.8, 1.2, 1.0, 1.5, 1.04)]


def baseline():
    untraced = {w: {"parent": runs(1.0, 2e6, 20.0), "change": runs(1.0, 2e6, 20.0)}
                for w in ("kv16", "tenants-reactive", "echo4k-poisson")}
    return untraced, {"parent": traced(10.0), "change": traced(10.0)}


def check(name, untraced, layer, want, must_name="", group=None):
    """`want` is "pass", "fail" or "unresolved"; a reported reason must name
    `must_name`, and the failing or unresolved groups must be [group]."""
    _, failed, unresolved = perf_ab.verdict(END_TO_END, untraced, layer)
    got = "fail" if failed else "unresolved" if unresolved else "pass"
    groups = failed or unresolved
    reasons = sum(groups.values(), [])
    ok = (got == want and all(must_name in r for r in reasons)
          and (group is None or list(groups) == [group]))
    print("  %s: %s" % (name, "ok" if ok else "FAIL"))
    if not ok:
        failures.append(name)
        print("got %s:\n%s" % (got, "\n".join(reasons)), file=sys.stderr)


def main():
    untraced, layer = baseline()
    check("identical sides pass", untraced, layer, "pass")

    untraced, layer = baseline()
    untraced["kv16"]["change"] = runs(1.2, 2e6 / 1.2, 21.5)  # +20%, -17%, +7.5%
    check("medians inside their bounds pass", untraced, layer, "pass")

    untraced, layer = baseline()
    untraced["echo4k-poisson"]["parent"][1] = runs(1.5, 2e6 / 1.5, 20.0)[1]
    untraced["echo4k-poisson"]["change"][2] = runs(1.6, 2e6 / 1.6, 20.0)[2]
    check("one slow run of four on each side passes", untraced, layer, "pass")

    untraced, layer = baseline()
    untraced["tenants-reactive"]["change"] = runs(1.3, 2e6, 20.0)
    check("wall_s 30% worse fails and is named", untraced, layer, "fail", "wall_s",
          "tenants-reactive")

    untraced, layer = baseline()
    untraced["echo4k-poisson"]["change"] = runs(1.0, 2e6 * 0.7, 20.0)
    check("sim_pkts_per_s 30% lower fails and is named", untraced, layer, "fail",
          "sim_pkts_per_s", "echo4k-poisson")

    untraced, layer = baseline()
    untraced["kv16"]["change"] = runs(1.0, 2e6, 22.4)
    check("peak_rss_mb 12% worse fails (bound 10%) and is named", untraced, layer, "fail",
          "peak_rss_mb", "kv16")

    untraced, layer = baseline()
    untraced["kv16"]["change"] = runs(1.0, 2e6, 20.0, (0.95, 1.0, 1.6, 1.65))
    check("two slow runs of four move the median past its bound and fail", untraced, layer,
          "fail", "wall_s", "kv16")

    for side in ("parent", "change"):
        untraced, layer = baseline()
        untraced["kv16"][side][2]["correct"] = False
        check("correct: false on the %s side fails" % side, untraced, layer, "fail", side,
              "kv16")
        untraced, layer = baseline()
        untraced["echo4k-poisson"][side][0]["failed"] = 1
        check("failed > 0 on the %s side fails" % side, untraced, layer, "fail", side,
              "echo4k-poisson")
        untraced, layer = baseline()
        layer[side][3]["correct"] = False
        check("an incorrect traced run on the %s side fails" % side, untraced, layer, "fail",
              side, perf_ab.TRACED)

    untraced, layer = baseline()
    layer["change"] = traced(13.0)
    check("least *_ns_per_op 30% higher fails and is named", untraced, layer, "fail",
          "host.llc.hit_ns_per_op", perf_ab.TRACED)

    untraced, layer = baseline()
    layer["change"] = traced(12.0)
    check("least *_ns_per_op 20% higher passes", untraced, layer, "pass")

    untraced, layer = baseline()
    layer["change"] = copy.deepcopy(layer["parent"])
    layer["change"][2] = result({"host.llc.hit_ns_per_op": 30.0})  # one slow run
    check("one slow traced run among five passes", untraced, layer, "pass")

    wide = (0.8, 0.9, 1.3, 1.5)  # notch 1.58 * 0.475 / 2 / 1.1 = 34% of the median
    untraced, layer = baseline()
    untraced["tenants-reactive"]["parent"] = runs(1.0, 2e6, 20.0, wide)
    untraced["tenants-reactive"]["change"] = runs(1.0, 2e6, 20.0, wide)
    check("a parent spread wider than the bound is unresolved", untraced, layer,
          "unresolved", "uncertain", "tenants-reactive")

    untraced, layer = baseline()
    untraced["tenants-reactive"]["parent"] = runs(1.0, 2e6, 20.0, wide)
    untraced["tenants-reactive"]["change"] = runs(0.5, 4e6, 20.0)
    check("every change run better than every parent run is no regression", untraced,
          layer, "pass")

    if failures:
        print("test_perf_ab: %d check(s) failed" % len(failures), file=sys.stderr)
        return 1
    print("test_perf_ab: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
