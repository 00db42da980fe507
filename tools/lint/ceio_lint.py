#!/usr/bin/env python3
"""Repo-specific lint rules for the CEIO simulator.

These encode project conventions that clang-tidy cannot express; they
complement the compile-time unit types (src/common/units.h) and the runtime
invariant auditor (src/audit/). Run directly or via `make check`
(tools/check.sh); exits non-zero when any rule fires.

Rules
-----
raw-unit-param
    Model headers must not declare int64_t/double variables or parameters
    whose names say they are times, sizes or rates — those are exactly the
    values the strong unit types exist for. Use Nanos/Bytes/BitsPerSec.

std-function-hot-path
    The event core (src/sim/) is allocation-free (callbacks are
    InlineFunction); std::function there reintroduces per-event heap
    traffic. Banned in src/sim/ and src/common/ headers other than
    inline_function.h itself.

past-schedule
    EventScheduler::schedule_at clamps past timestamps to now(), so a call
    site computing `t - something` can silently distort timing instead of
    failing. Subtractions in the time argument need an explicit
    acknowledgement.

raw-stdout
    Model code must not print: diagnostics go through common/logging.h and
    measurements through src/telemetry/. Raw printf/std::cout/std::cerr in
    src/ is almost always a stray debug line. The logging backend itself
    (common/logging.*) is exempt; deliberate display helpers annotate with
    `// lint: allow-stdout`.

vector-return
    Hot-path delivery APIs in src/ must not return std::vector<Packet> by
    value — that is one heap allocation per receive call, exactly what the
    PacketBurst / caller-provided-buffer forms exist to avoid. Legacy
    convenience wrappers annotate with `// lint: allow-vector-return`.

packet-copy
    The hot delivery layers (src/nic, src/sim, src/ceio, src/baselines,
    src/iopath) move packets as 4-byte pooled PacketRef handles; an API that
    takes `Packet` by value or returns `std::vector<Packet>` reintroduces an
    ~80-byte struct copy (or a heap allocation) per hop. By-value `Packet`
    parameters are checked in headers (the API surface — each one is either
    a copy bug or a deliberate move-sink, and a move-sink declares itself
    with `// lint: allow-packet-copy`); vector<Packet> returns are checked
    in headers and sources (`// lint: allow-vector-return` on an existing
    legacy wrapper also satisfies this rule, so one annotation suffices).

unreflected-config
    Every `struct *Config` defined in src/ must have a field-visitor
    registration (`visit_fields(XConfig&, ...)`, normally in
    src/config/schema.h) so scenario files, `--set` overrides, printing and
    validation see it. A config type that genuinely cannot be reflected
    annotates its definition line with `// lint: allow-unreflected`.

raw-actuator
    The PolicyHost actuators (credit scale, steer-path overrides, landing
    caps, backpressure scale, scheduler coalescing, credit-budget resets)
    are the governor's write surface: a layer mutating them directly from
    outside src/policy/ bypasses the decision ladder, its grant-hold
    stability rules and the Perfetto decision track. Call sites that own
    an actuator legitimately (the sharded credit arbiter, the tenant bed)
    annotate with `// lint: allow-raw-actuator`.

cross-shard
    Receiver-side model code (datapaths, baselines, NIC/PCIe/host models)
    must not touch FlowSource directly: in sharded runs the source lives in
    another event domain, and a direct reference from an event callback is a
    cross-shard mutable-state access that breaks domain isolation (and with
    it, bitwise shards=1 vs shards=N determinism). Feedback goes through the
    FlowFeedback interface (net/flow_feedback.h), which the harness proxies
    across domains. The single-domain harness (iopath/testbed.{h,cc}) owns
    its sources legitimately and is exempt; deliberate single-domain-only
    code annotates with `// lint: allow-cross-shard`.

Suppression: append `// lint: allow-<rule>` to the offending line
(`// lint: allow-stdout` for raw-stdout, `// lint: allow-unreflected` for
unreflected-config).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

# Directories scanned per rule.
MODEL_HEADER_DIRS = ("src",)
HOT_PATH_DIRS = ("src/sim", "src/common")
SCHEDULE_DIRS = ("src", "tests", "bench", "examples", "tools")

# Names that mark a raw scalar as a time, size or rate quantity.
UNIT_NAME = (
    r"(?:[A-Za-z0-9_]*_)?(?:ns|nanos|micros|millis|time|latency|delay|timeout|"
    r"duration|deadline|bytes|gbps|bps)(?:_[A-Za-z0-9_]*)?"
)
RAW_UNIT_RE = re.compile(
    rf"\b(?:std::)?(?:int64_t|uint64_t|double)\s+({UNIT_NAME})\s*[;,={{)]"
)
STD_FUNCTION_RE = re.compile(r"\bstd::function\b")
SCHEDULE_AT_RE = re.compile(r"\bschedule_at\s*\(([^;{]*?),")
# \bprintf does not match fprintf (no word boundary inside "fprintf"), so
# FILE*-targeted exporters stay legal; bare console printing does not.
RAW_STDOUT_RE = re.compile(r"\bprintf\s*\(|\bstd::cout\b|\bstd::cerr\b")

SUPPRESS_FMT = "lint: allow-{rule}"


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*") or stripped.startswith("/*")


class Finding:
    def __init__(self, rule: str, path: Path, lineno: int, message: str):
        self.rule = rule
        self.path = path
        self.lineno = lineno
        self.message = message

    def __str__(self) -> str:
        try:
            rel = self.path.relative_to(REPO_ROOT)
        except ValueError:
            rel = self.path
        return f"{rel}:{self.lineno}: [{self.rule}] {self.message}"


def iter_files(dirs: tuple[str, ...], suffixes: tuple[str, ...]) -> list[Path]:
    out: list[Path] = []
    for d in dirs:
        base = REPO_ROOT / d
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in suffixes or not path.is_file():
                continue
            # Tool fixture trees carry deliberately seeded violations.
            if "fixtures" in path.relative_to(REPO_ROOT).parts:
                continue
            out.append(path)
    return out


def check_raw_unit_params(findings: list[Finding]) -> None:
    rule = "raw-unit-param"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(MODEL_HEADER_DIRS, (".h",)):
        if path.name == "units.h":  # the one place raw reps are the point
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            m = RAW_UNIT_RE.search(line)
            if m:
                findings.append(
                    Finding(rule, path, lineno,
                            f"'{m.group(1)}' is a unit quantity declared as a raw scalar; "
                            "use Nanos/Bytes/BitsPerSec (common/units.h)"))


def check_std_function_hot_path(findings: list[Finding]) -> None:
    rule = "std-function-hot-path"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(HOT_PATH_DIRS, (".h",)):
        if path.name == "inline_function.h":
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            if STD_FUNCTION_RE.search(line):
                findings.append(
                    Finding(rule, path, lineno,
                            "std::function in the allocation-free event core; "
                            "use InlineFunction (common/inline_function.h)"))


def check_past_schedule(findings: list[Finding]) -> None:
    rule = "past-schedule"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(SCHEDULE_DIRS, (".h", ".cc", ".cpp")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            m = SCHEDULE_AT_RE.search(line)
            if m is None:
                continue
            time_arg = m.group(1)
            # Negative literals / subtractions in the time argument silently
            # clamp to now(); tests deliberately probing the clamp annotate.
            if "-" in time_arg:
                findings.append(
                    Finding(rule, path, lineno,
                            f"time argument '{time_arg.strip()}' subtracts; schedule_at "
                            "clamps past times to now() — clamp explicitly or annotate"))


def check_raw_stdout(findings: list[Finding]) -> None:
    rule = "raw-stdout"
    suppress = "lint: allow-stdout"
    for path in iter_files(("src",), (".h", ".cc", ".cpp")):
        if path.parent.name == "common" and path.stem == "logging":
            continue  # the logging backend is where the printing belongs
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            if RAW_STDOUT_RE.search(line):
                findings.append(
                    Finding(rule, path, lineno,
                            "raw console output in model code; use CEIO_LOG "
                            "(common/logging.h) or telemetry, or annotate "
                            "'// lint: allow-stdout' for deliberate display code"))


# Headers: any function-looking declarator returning std::vector<Packet>.
# Sources: only qualified member definitions (Class::name), so locals like
# `std::vector<Packet> out(n);` don't trip the rule.
VECTOR_RETURN_DECL_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)*\w+\s*\(")
VECTOR_RETURN_DEF_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)+\w+\s*\(")


def check_vector_return(findings: list[Finding]) -> None:
    rule = "vector-return"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(("src",), (".h", ".cc", ".cpp")):
        pattern = VECTOR_RETURN_DECL_RE if path.suffix == ".h" else VECTOR_RETURN_DEF_RE
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            if pattern.search(line):
                findings.append(
                    Finding(rule, path, lineno,
                            "std::vector<Packet> returned by value on a delivery path; "
                            "drain into a caller-provided PacketBurst/span instead, or "
                            "annotate '// lint: allow-vector-return' on a legacy wrapper"))


# Hot-path layers where packets travel as pooled refs. `\bPacket\b\s+\w+`
# deliberately fails on `Packet&`, `const Packet&` and `Packet*` (no
# whitespace after the type name) and on PacketRef/PacketBurst/PacketWork
# (no word boundary), so only genuine by-value parameters match.
PACKET_COPY_DIRS = ("src/nic", "src/sim", "src/ceio", "src/baselines", "src/iopath")
PACKET_BY_VALUE_RE = re.compile(r"\bPacket\b\s+\w+\s*[,)]")


def check_packet_copy(findings: list[Finding]) -> None:
    rule = "packet-copy"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(PACKET_COPY_DIRS, (".h", ".cc", ".cpp")):
        vector_re = VECTOR_RETURN_DECL_RE if path.suffix == ".h" else VECTOR_RETURN_DEF_RE
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            if vector_re.search(line) and "lint: allow-vector-return" not in line:
                findings.append(
                    Finding(rule, path, lineno,
                            "std::vector<Packet> return on a pooled hot path; "
                            "hand out PacketRef handles or drain into a "
                            "caller-provided buffer, or annotate "
                            "'// lint: allow-packet-copy'"))
            # Parameters: headers only — the API surface; definitions mirror
            # their declaration, so one annotation point per function.
            if path.suffix == ".h" and PACKET_BY_VALUE_RE.search(line):
                findings.append(
                    Finding(rule, path, lineno,
                            "by-value Packet parameter on a pooled hot path copies "
                            "~80 bytes per hop; take a PacketRef (or const Packet&), "
                            "or annotate a deliberate move-sink with "
                            "'// lint: allow-packet-copy'"))


CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Config)\b\s*(?:\{|$)")
VISIT_FIELDS_RE = re.compile(r"\bvisit_fields\(\s*(?:\w+::)*(\w+)\s*&")


def check_unreflected_config(findings: list[Finding]) -> None:
    rule = "unreflected-config"
    suppress = "lint: allow-unreflected"
    files = iter_files(("src",), (".h", ".cc", ".cpp"))
    reflected: set[str] = set()
    for path in files:
        for m in VISIT_FIELDS_RE.finditer(path.read_text()):
            reflected.add(m.group(1))
    for path in iter_files(("src",), (".h",)):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            m = CONFIG_STRUCT_RE.search(line)
            if m and m.group(1) not in reflected:
                findings.append(
                    Finding(rule, path, lineno,
                            f"'{m.group(1)}' has no visit_fields registration; add one "
                            "(src/config/schema.h) so scenario files and --set can reach "
                            "it, or annotate '// lint: allow-unreflected'"))


# Layers that execute inside one event domain: referencing FlowSource there
# reaches across the domain boundary. The single-domain Testbed harness is
# the deliberate degenerate case.
CROSS_SHARD_DIRS = ("src/iopath", "src/baselines", "src/ceio", "src/nic",
                    "src/pcie", "src/host")
CROSS_SHARD_EXEMPT = ("testbed.h", "testbed.cc")
CROSS_SHARD_RE = re.compile(r"\bFlowSource\b")


def check_cross_shard(findings: list[Finding]) -> None:
    rule = "cross-shard"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(CROSS_SHARD_DIRS, (".h", ".cc", ".cpp")):
        if path.name in CROSS_SHARD_EXEMPT:
            continue
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            if CROSS_SHARD_RE.search(line):
                findings.append(
                    Finding(rule, path, lineno,
                            "direct FlowSource access from single-domain model code; "
                            "feedback must go through FlowFeedback "
                            "(net/flow_feedback.h) so sharded runs can proxy it "
                            "across domains, or annotate '// lint: allow-cross-shard'"))


# Actuator setters reachable through PolicyHost (plus the CEIO credit-budget
# reset and the scheduler coalescing switch). Only matched
# as member calls (`.` / `->`), so defining the setters inside the backends
# stays legal; src/policy/ itself is the one place raw pushes belong.
RAW_ACTUATOR_RE = re.compile(
    r"(?:\.|->)\s*(set_credit_scale|set_flow_path|set_kind_path|set_landed_caps|"
    r"set_backpressure_scale|set_total_credits|set_coalescing)\s*\("
)


def check_raw_actuator(findings: list[Finding]) -> None:
    rule = "raw-actuator"
    suppress = SUPPRESS_FMT.format(rule=rule)
    for path in iter_files(("src",), (".h", ".cc", ".cpp")):
        rel_parts = path.relative_to(REPO_ROOT).parts
        if len(rel_parts) > 1 and rel_parts[1] == "policy":
            continue  # the policy layer is where actuator pushes belong
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if suppress in line or is_comment(line):
                continue
            m = RAW_ACTUATOR_RE.search(line)
            if m:
                findings.append(
                    Finding(rule, path, lineno,
                            f"'{m.group(1)}' is a policy actuator mutated outside "
                            "src/policy/; route the change through the governor "
                            "(policy/governor.h) or annotate "
                            "'// lint: allow-raw-actuator' on an owning call site"))


RULES = {
    "cross-shard": check_cross_shard,
    "packet-copy": check_packet_copy,
    "raw-actuator": check_raw_actuator,
    "raw-unit-param": check_raw_unit_params,
    "std-function-hot-path": check_std_function_hot_path,
    "past-schedule": check_past_schedule,
    "raw-stdout": check_raw_stdout,
    "vector-return": check_vector_return,
    "unreflected-config": check_unreflected_config,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    parser.add_argument("--root", type=Path, default=None,
                        help="scan this tree instead of the repo (used by the "
                             "golden-file self-tests in tools/lint/fixtures/)")
    args = parser.parse_args()

    if args.root is not None:
        global REPO_ROOT
        REPO_ROOT = args.root.resolve()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    findings: list[Finding] = []
    for name in args.rule or sorted(RULES):
        RULES[name](findings)

    for f in findings:
        print(f)
    if findings:
        print(f"ceio_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ceio_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
