#!/usr/bin/env python3
"""Static checker for the CEIO simulator: project conventions and the
determinism rules that keep its reports byte-identical.

Eleven rules, one per check_* function below; each function's docstring
says what the rule matches and why. DESIGN.md §12 catalogues them with
their scopes. The rules read one of two views of a source file:

  convention rules   raw lines, skipping lines that start a comment
                     (//, /* or *);
  determinism rules  the code with comments and string literals blanked,
                     plus a tree-wide index of classes (members, bases)
                     and unordered-container aliases.

Suppression: `// lint: allow-<rule>` on the offending line, naming the rule
exactly (a line may carry several). Nothing else silences a finding: not an
annotation on the line above, not one naming a different rule. Say why in
the same comment — a bare suppression invites deletion.

Usage:
    tools/lint/ceio_lint.py                   # whole tree; exit 1 on findings
    tools/lint/ceio_lint.py --rule raw-stdout # one rule (repeatable)
    tools/lint/ceio_lint.py --list-rules
    tools/lint/ceio_lint.py --root DIR        # scan another tree

Run by `make check` (tools/check.sh) and by ctest (tools.lint-tree); its
self-test is tools/lint/test_ceio_lint.py.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

REPO_ROOT = Path(__file__).resolve().parents[2]

SOURCE_SUFFIXES = (".h", ".cc", ".cpp")
# Never scanned by any rule: fixture trees carry deliberately seeded
# violations, build trees carry generated code, golden/ holds committed
# outputs.
EXCLUDE_PARTS = ("fixtures", "build", "build-check", "golden")
SUPPRESS_RE = re.compile(r"lint: allow-([a-z][a-z0-9-]*)")

# Directories scanned per rule.
TREE_DIRS = ("src", "tests", "bench", "examples", "tools")
HOT_PATH_DIRS = ("src/sim", "src/common")
PACKET_COPY_DIRS = ("src/nic", "src/sim", "src/ceio", "src/baselines", "src/iopath")


@dataclass(frozen=True)
class Finding:
    rule: str
    path: Path
    lineno: int
    message: str

    def __str__(self) -> str:
        rel = self.path.relative_to(REPO_ROOT)
        return f"{rel}:{self.lineno}: [{self.rule}] {self.message}"


# ---------------------------------------------------------------------------
# Source model and file walker
# ---------------------------------------------------------------------------


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving line structure.

    Suppression comments are consulted on the *raw* lines, so nothing is
    lost by blanking here; blanking keeps every determinism rule from
    matching inside documentation or log messages.
    """
    out: list[str] = []
    i, n = 0, len(text)
    state = "code"  # code | line-comment | block-comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line-comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block-comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                # Raw string literal: R"delim( ... )delim"
                if i >= 1 and text[i - 1] == "R" and (i < 2 or not text[i - 2].isalnum()):
                    m = re.match(r'"([^ ()\\\t\n]{0,16})\(', text[i:])
                    if m:
                        state = "raw"
                        raw_delim = ")" + m.group(1) + '"'
                        out.append(c)
                        i += 1
                        continue
                state = "string"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(c)
                i += 1
                continue
            out.append(c)
            i += 1
        elif state == "line-comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block-comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == '"':
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == "'":
                state = "code"
                out.append(c)
                i += 1
            else:
                out.append(" ")
                i += 1
        else:  # raw string
            if text.startswith(raw_delim, i):
                state = "code"
                out.append(raw_delim)
                i += len(raw_delim)
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


class SourceFile:
    def __init__(self, path: Path):
        self.path = path
        self.text = path.read_text()
        self.raw_lines = self.text.splitlines()

    @functools.cached_property
    def code(self) -> str:
        return strip_comments_and_strings(self.text)

    @functools.cached_property
    def code_lines(self) -> list[str]:
        return self.code.splitlines()

    def suppressed(self, rule: str, lineno: int) -> bool:
        """True when line `lineno` (1-based) carries `lint: allow-<rule>`."""
        if not 1 <= lineno <= len(self.raw_lines):
            return False
        return rule in SUPPRESS_RE.findall(self.raw_lines[lineno - 1])


@functools.cache
def load(path: Path) -> SourceFile:
    return SourceFile(path)


def sources(dirs: tuple[str, ...], suffixes: tuple[str, ...] = SOURCE_SUFFIXES
            ) -> list[SourceFile]:
    """The file walker every rule uses: files under `dirs` with one of
    `suffixes`, minus EXCLUDE_PARTS subtrees, in path order. Each file is
    read and stripped at most once per run."""
    out: list[SourceFile] = []
    for d in dirs:
        base = REPO_ROOT / d
        if not base.exists():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in suffixes or not path.is_file():
                continue
            if any(part in EXCLUDE_PARTS for part in path.relative_to(REPO_ROOT).parts):
                continue
            out.append(load(path))
    return out


def is_comment(line: str) -> bool:
    stripped = line.lstrip()
    return stripped.startswith("//") or stripped.startswith("*") or stripped.startswith("/*")


def raw_lines(rule: str, dirs: tuple[str, ...], suffixes: tuple[str, ...] = SOURCE_SUFFIXES):
    """Yields (file, lineno, line) for each raw line a convention rule reads:
    the non-comment lines under `dirs` not suppressed for `rule`."""
    for src in sources(dirs, suffixes):
        for lineno, line in enumerate(src.raw_lines, 1):
            if not is_comment(line) and not src.suppressed(rule, lineno):
                yield src, lineno, line


# ---------------------------------------------------------------------------
# Convention rules (raw lines)
# ---------------------------------------------------------------------------

# Names that mark a raw scalar as a time, size or rate quantity.
UNIT_NAME = (
    r"(?:[A-Za-z0-9_]*_)?(?:ns|nanos|micros|millis|time|latency|delay|timeout|"
    r"duration|deadline|bytes|gbps|bps)(?:_[A-Za-z0-9_]*)?"
)
RAW_UNIT_RE = re.compile(
    rf"\b(?:std::)?(?:int64_t|uint64_t|double)\s+({UNIT_NAME})\s*[;,={{)]"
)


def check_raw_unit_param(findings: list[Finding]) -> None:
    """Model headers (src/**/*.h except units.h) must not declare
    int64_t/double variables or parameters whose names say they are times,
    sizes or rates — those are exactly the values the strong unit types
    exist for. Use Nanos/Bytes/BitsPerSec."""
    rule = "raw-unit-param"
    for src, lineno, line in raw_lines(rule, ("src",), (".h",)):
        m = RAW_UNIT_RE.search(line)
        if m and src.path.name != "units.h":  # the one place raw reps are the point
            findings.append(Finding(
                rule, src.path, lineno,
                f"'{m.group(1)}' is a unit quantity declared as a raw scalar; "
                "use Nanos/Bytes/BitsPerSec (common/units.h)"))


STD_FUNCTION_RE = re.compile(r"\bstd::function\b")


def check_std_function_hot_path(findings: list[Finding]) -> None:
    """The event core is allocation-free (callbacks are InlineFunction);
    std::function reintroduces per-event heap traffic. Banned in src/sim/
    and src/common/ headers other than inline_function.h itself."""
    rule = "std-function-hot-path"
    for src, lineno, line in raw_lines(rule, HOT_PATH_DIRS, (".h",)):
        if STD_FUNCTION_RE.search(line) and src.path.name != "inline_function.h":
            findings.append(Finding(
                rule, src.path, lineno,
                "std::function in the allocation-free event core; "
                "use InlineFunction (common/inline_function.h)"))


SCHEDULE_AT_RE = re.compile(r"\bschedule_at\s*\(([^;{]*?),")


def check_past_schedule(findings: list[Finding]) -> None:
    """EventScheduler::schedule_at clamps past timestamps to now(), so a call
    site computing `t - something` can silently distort timing instead of
    failing. A subtraction in the time argument needs an explicit
    acknowledgement; tests probing the clamp annotate. Whole tree."""
    rule = "past-schedule"
    for src, lineno, line in raw_lines(rule, TREE_DIRS):
        m = SCHEDULE_AT_RE.search(line)
        if m and "-" in m.group(1):
            findings.append(Finding(
                rule, src.path, lineno,
                f"time argument '{m.group(1).strip()}' subtracts; schedule_at "
                "clamps past times to now() — clamp explicitly or annotate"))


# \bprintf does not match fprintf (no word boundary inside "fprintf"), so
# FILE*-targeted exporters stay legal; bare console printing does not.
RAW_STDOUT_RE = re.compile(r"\bprintf\s*\(|\bstd::cout\b|\bstd::cerr\b")


def check_raw_stdout(findings: list[Finding]) -> None:
    """Model code (src/) must not print: diagnostics go through
    common/logging.h and measurements through src/telemetry/. Raw
    printf/std::cout/std::cerr is almost always a stray debug line. The
    logging backend (common/logging.*) is exempt; deliberate display helpers
    annotate."""
    rule = "raw-stdout"
    for src, lineno, line in raw_lines(rule, ("src",)):
        if src.path.parent.name == "common" and src.path.stem == "logging":
            continue  # the logging backend is where the printing belongs
        if RAW_STDOUT_RE.search(line):
            findings.append(Finding(
                rule, src.path, lineno,
                "raw console output in model code; use CEIO_LOG "
                "(common/logging.h) or telemetry, or annotate "
                "'// lint: allow-raw-stdout' for deliberate display code"))


# Headers: any function-looking declarator returning std::vector<Packet>.
# Sources: only qualified member definitions (Class::name), so locals like
# `std::vector<Packet> out(n);` don't trip the rule.
VECTOR_RETURN_DECL_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)*\w+\s*\(")
VECTOR_RETURN_DEF_RE = re.compile(r"\bstd::vector<\s*Packet\s*>\s+(?:\w+::)+\w+\s*\(")


def vector_return_re(src: SourceFile) -> re.Pattern:
    return VECTOR_RETURN_DECL_RE if src.path.suffix == ".h" else VECTOR_RETURN_DEF_RE


def check_vector_return(findings: list[Finding]) -> None:
    """Delivery APIs in src/ must not return std::vector<Packet> by value —
    one heap allocation per receive call, exactly what the PacketBurst /
    caller-provided-buffer forms exist to avoid."""
    rule = "vector-return"
    for src, lineno, line in raw_lines(rule, ("src",)):
        if vector_return_re(src).search(line):
            findings.append(Finding(
                rule, src.path, lineno,
                "std::vector<Packet> returned by value on a delivery path; "
                "drain into a caller-provided PacketBurst/span instead, or "
                "annotate '// lint: allow-vector-return' on a legacy wrapper"))


# `\bPacket\b\s+\w+` deliberately fails on `Packet&`, `const Packet&` and
# `Packet*` (no whitespace after the type name) and on PacketRef/PacketBurst/
# PacketWork (no word boundary), so only genuine by-value parameters match.
PACKET_BY_VALUE_RE = re.compile(r"\bPacket\b\s+\w+\s*[,)]")


def check_packet_copy(findings: list[Finding]) -> None:
    """The hot delivery layers (src/nic, src/sim, src/ceio, src/baselines,
    src/iopath) move packets as 4-byte pooled PacketRef handles; an API that
    takes `Packet` by value or returns `std::vector<Packet>` reintroduces an
    ~80-byte struct copy (or a heap allocation) per hop. By-value parameters
    are checked in headers only (the API surface: each one is a copy bug or
    a deliberate move-sink, which annotates); vector<Packet> returns in
    headers and sources."""
    rule = "packet-copy"
    for src, lineno, line in raw_lines(rule, PACKET_COPY_DIRS):
        if vector_return_re(src).search(line):
            findings.append(Finding(
                rule, src.path, lineno,
                "std::vector<Packet> return on a pooled hot path; "
                "hand out PacketRef handles or drain into a "
                "caller-provided buffer, or annotate "
                "'// lint: allow-packet-copy'"))
        if src.path.suffix == ".h" and PACKET_BY_VALUE_RE.search(line):
            findings.append(Finding(
                rule, src.path, lineno,
                "by-value Packet parameter on a pooled hot path copies "
                "~80 bytes per hop; take a PacketRef (or const Packet&), "
                "or annotate a deliberate move-sink with "
                "'// lint: allow-packet-copy'"))


CONFIG_STRUCT_RE = re.compile(r"\bstruct\s+(\w*Config)\b\s*(?:\{|$)")
VISIT_FIELDS_RE = re.compile(r"\bvisit_fields\(\s*(?:\w+::)*(\w+)\s*&")


def check_unreflected_config(findings: list[Finding]) -> None:
    """Every `struct *Config` defined in a src/ header needs a field-visitor
    registration (`visit_fields(XConfig&, ...)` anywhere in src/, normally
    src/config/schema.h) so scenario files, `--set` overrides, printing and
    validation see it."""
    rule = "unreflected-config"
    reflected = {m.group(1) for src in sources(("src",))
                 for m in VISIT_FIELDS_RE.finditer(src.text)}
    for src, lineno, line in raw_lines(rule, ("src",), (".h",)):
        m = CONFIG_STRUCT_RE.search(line)
        if m and m.group(1) not in reflected:
            findings.append(Finding(
                rule, src.path, lineno,
                f"'{m.group(1)}' has no visit_fields registration; add one "
                "(src/config/schema.h) so scenario files and --set can reach "
                "it, or annotate '// lint: allow-unreflected-config'"))


RAW_ACTUATOR_RE = re.compile(
    r"(?:\.|->)\s*(set_credit_scale|set_bypass_slow|set_landed_scale|"
    r"set_total_credits)\s*\("
)


def check_raw_actuator(findings: list[Finding]) -> None:
    """Member calls (`.` or `->`), from src/ outside src/policy/, to the
    governor's CEIO actuators (set_credit_scale, set_bypass_slow,
    set_landed_scale) or to CEIO's credit-budget reset set_total_credits.
    The actuators are the governor's write surface; a layer pushing one
    directly bypasses the decision ladder and its grant-hold rules. Defining
    a setter stays legal (no member-access operator); call sites that own an
    actuator (the tenant bed's Eq.-1 re-derivation) annotate."""
    rule = "raw-actuator"
    for src, lineno, line in raw_lines(rule, ("src",)):
        if src.path.relative_to(REPO_ROOT).parts[1] == "policy":
            continue  # the policy layer is where actuator pushes belong
        m = RAW_ACTUATOR_RE.search(line)
        if m:
            findings.append(Finding(
                rule, src.path, lineno,
                f"'{m.group(1)}' is a policy actuator mutated outside "
                "src/policy/; route the change through the governor "
                "(policy/governor.h) or annotate "
                "'// lint: allow-raw-actuator' on an owning call site"))


# ---------------------------------------------------------------------------
# Determinism scanner: symbol index and loop finder over stripped code
# ---------------------------------------------------------------------------

UNORDERED_TYPE_RE = re.compile(r"\b(?:std::)?unordered_(?:map|set|multimap|multiset)\s*<")
USING_ALIAS_RE = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+);")
TYPEDEF_RE = re.compile(r"\btypedef\s+(.+?)\s+(\w+)\s*;")
CLASS_RE = re.compile(r"\b(class|struct)\s+([A-Za-z_]\w*)\b")
FLOAT_DECL_RE = re.compile(r"\b(?:float|double)\s+([A-Za-z_]\w*)\s*[;={,)]")
DECLARED_NAME_RE = re.compile(r"^[\s&*]*([A-Za-z_]\w*)\s*([;={,)(]|$)")


def balanced_angle_extent(text: str, open_idx: int) -> int:
    """Given index of '<', returns index one past its matching '>' or -1."""
    depth = 0
    for i in range(open_idx, len(text)):
        c = text[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif c in ";{}":
            return -1
    return -1


def declared_names_after(text: str, idx: int) -> list[str]:
    """Names declared by a container type ending at `idx` in `text`.

    Handles `Type name;`, `Type name{...}`, `Type name = ...`, and
    parameter forms `const Type& name,` / `Type* name)`.
    """
    m = DECLARED_NAME_RE.match(text[idx:])
    if not m or m.group(2) == "(":  # "(": a function returning the container
        return []
    return [m.group(1)]


@dataclass
class ClassInfo:
    name: str
    src: SourceFile
    bases: list[str] = field(default_factory=list)
    unordered_members: set[str] = field(default_factory=set)
    float_members: set[str] = field(default_factory=set)


class SymbolIndex:
    """Tree-wide index of classes, their members and container aliases."""

    def __init__(self):
        self.classes: dict[str, ClassInfo] = {}
        self.unordered_aliases: set[str] = set()

    def members(self, class_name: str, attr: str) -> set[str]:
        """`attr` members of `class_name` and, transitively, its bases."""
        out: set[str] = set()
        pending, visited = [class_name], set()
        while pending:
            name = pending.pop()
            if name in visited or name not in self.classes:
                continue
            visited.add(name)
            out |= getattr(self.classes[name], attr)
            pending.extend(self.classes[name].bases)
        return out


def parse_base_clause(clause: str) -> list[str]:
    bases = []
    for part in clause.split(","):
        part = re.sub(r"\b(public|protected|private|virtual)\b", "", part)
        ids = re.findall(r"[A-Za-z_]\w*", part.split("<")[0])  # drop template args
        if ids:
            bases.append(ids[-1])
    return bases


def index_file(src: SourceFile, index: SymbolIndex) -> None:
    code = src.code
    for m in USING_ALIAS_RE.finditer(code):
        if UNORDERED_TYPE_RE.search(m.group(2)):
            index.unordered_aliases.add(m.group(1))
    for m in TYPEDEF_RE.finditer(code):
        if UNORDERED_TYPE_RE.search(m.group(1)):
            index.unordered_aliases.add(m.group(2))

    # Class bodies with brace tracking; members are classified at relative
    # brace depth 1 (method bodies sit deeper and are skipped).
    lines = src.code_lines
    depth = 0  # '{' minus '}' so far
    stack: list[tuple[ClassInfo, int]] = []  # (class, entry depth)
    pending: ClassInfo | None = None  # class seen, waiting for its '{'
    for i, line in enumerate(lines):
        for cm in CLASS_RE.finditer(line):
            # Forward declarations (`class X;`) and uses in template args are
            # filtered by requiring a '{' before the next ';'.
            j = i
            gathered = line[cm.end():]
            while ";" not in gathered and "{" not in gathered and j + 1 < len(lines) \
                    and j - i < 3:
                j += 1
                gathered += " " + lines[j]
            brace = gathered.find("{")
            semi = gathered.find(";")
            if brace == -1 or (semi != -1 and semi < brace):
                continue
            pending = ClassInfo(cm.group(2), src)
            colon = re.search(r"(?<!:):(?!:)", gathered[:brace])
            if colon:
                pending.bases = parse_base_clause(gathered[:brace][colon.end():])

        for ch in line:
            if ch == "{":
                depth += 1
                if pending is not None:
                    stack.append((pending, depth))
                    index.classes.setdefault(pending.name, pending)
                    pending = None
            elif ch == "}":
                if stack and stack[-1][1] == depth:
                    stack.pop()
                depth -= 1

        # Member classification: the innermost open class whose body we are
        # directly inside (relative depth 1).
        if not stack or depth != stack[-1][1]:
            continue
        info = stack[-1][0]
        joined = line
        k = i
        # Join continuation lines for multi-line member declarations.
        while ("<" in joined and balanced_angle_extent(joined, joined.find("<")) == -1
               and k + 1 < len(lines) and k - i < 4):
            k += 1
            joined += " " + lines[k]
        um = UNORDERED_TYPE_RE.search(joined)
        if um:
            close = balanced_angle_extent(joined, um.end() - 1)
            if close != -1:
                info.unordered_members.update(declared_names_after(joined, close))
        else:
            first = re.match(r"\s*(?:mutable\s+)?(?:const\s+)?(?:\w+::)*(\w+)", joined)
            if first and first.group(1) in index.unordered_aliases:
                dm = re.match(r"\s+(\w+)\s*[;={]", joined[first.end():])
                if dm:
                    info.unordered_members.add(dm.group(1))
        for fm in FLOAT_DECL_RE.finditer(joined):
            info.float_members.add(fm.group(1))


@functools.cache
def symbol_index() -> SymbolIndex:
    index = SymbolIndex()
    for src in sources(TREE_DIRS):
        index_file(src, index)
    return index


def implemented_classes(src: SourceFile, index: SymbolIndex) -> set[str]:
    """Classes whose members are in scope for this file: those defined in it
    plus (for .cc files) those with out-of-line `X::member` definitions."""
    names = {info.name for info in index.classes.values() if info.src is src}
    if src.path.suffix != ".h":
        for m in re.finditer(r"\b([A-Z]\w*)::\w+\s*\(", src.code):
            if m.group(1) in index.classes:
                names.add(m.group(1))
    return names


def unordered_names(src: SourceFile, index: SymbolIndex) -> set[str]:
    """Names with an unordered container type in scope for this file: every
    member, local and parameter declared in the file, plus the members of
    the classes it implements. Scoping by file keeps same-named ordered
    members in other classes (e.g. an OrderedMap flows_) from colliding."""
    out: set[str] = set()
    code = src.code
    for m in UNORDERED_TYPE_RE.finditer(code):
        close = balanced_angle_extent(code, m.end() - 1)
        if close != -1:
            out.update(declared_names_after(code, close))
    for alias in index.unordered_aliases:
        for m in re.finditer(rf"\b{re.escape(alias)}\s*[&*]?\s+(\w+)\s*[;={{,)]", code):
            out.add(m.group(1))
    for cls in implemented_classes(src, index):
        out |= index.members(cls, "unordered_members")
    return out


class LoopSite(NamedTuple):
    lineno: int  # 1-based line of the `for`
    var: str
    body_start: int  # 0-based inclusive
    body_end: int  # 0-based inclusive


RANGE_FOR_RE = re.compile(r"\bfor\s*\(")


def split_range_for(header: str) -> str | None:
    """Returns the range expression of a range-for header, else None."""
    # Find a single ':' that is not part of '::'.
    for m in re.finditer(r":", header):
        i = m.start()
        if (i > 0 and header[i - 1] == ":") or (i + 1 < len(header) and header[i + 1] == ":"):
            continue
        return header[i + 1:]
    return None


def loop_var(header: str) -> str | None:
    """The container a for-loop header iterates: the trailing identifier of
    a range-for's range (`: a.b.c`; None for a call `: snapshot()`), or `x`
    in an iterator loop `it = x.begin()`."""
    range_expr = split_range_for(header)
    if range_expr is None:
        im = re.search(r"=\s*(\w+)(?:\.|->)c?begin\s*\(", header)
        return im.group(1) if im else None
    m = re.search(r"([A-Za-z_]\w*)\s*$", range_expr.strip())
    if m is None or re.search(rf"\b{re.escape(m.group(1))}\s*\(", range_expr):
        return None
    return m.group(1)


@functools.cache
def unordered_loops(src: SourceFile) -> list[LoopSite]:
    """Range-for and iterator loops over an unordered container in `src`."""
    unordered = unordered_names(src, symbol_index())
    sites: list[LoopSite] = []
    lines = src.code_lines
    for i, line in enumerate(lines):
        for fm in RANGE_FOR_RE.finditer(line):
            # Gather the parenthesized header (may span lines).
            text, row, j = line, i, fm.end() - 1
            depth = 0
            header_chars: list[str] = []
            end_row, end_col = row, j
            while True:
                if j >= len(text):
                    if row + 1 - i > 4 or row + 1 >= len(lines):
                        break
                    row += 1
                    text = lines[row]
                    j = 0
                    header_chars.append(" ")
                    continue
                c = text[j]
                header_chars.append(c)
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        end_row, end_col = row, j
                        break
                j += 1
            if depth != 0:
                continue
            var = loop_var("".join(header_chars)[1:-1])
            if var is None or var not in unordered:
                continue
            body_start, body_end = loop_body_extent(lines, end_row, end_col)
            sites.append(LoopSite(i + 1, var, body_start, body_end))
    return sites


def loop_body_extent(lines: list[str], hdr_row: int, hdr_col: int) -> tuple[int, int]:
    """Extent (0-based inclusive rows) of the loop body following the header
    close paren at (hdr_row, hdr_col)."""
    row, col = hdr_row, hdr_col + 1
    # Find the first non-space char after the ')'.
    while row < len(lines):
        rest = lines[row][col:]
        stripped = rest.lstrip()
        if stripped:
            if stripped[0] == "{":
                return brace_extent(lines, row, col + rest.index("{"))
            # Single-statement body: runs to the next ';'.
            end_row = row
            while end_row < len(lines) and ";" not in lines[end_row][col if end_row == row else 0:]:
                end_row += 1
            return (row, min(end_row, len(lines) - 1))
        row += 1
        col = 0
    return (hdr_row, hdr_row)


def brace_extent(lines: list[str], row: int, col: int) -> tuple[int, int]:
    depth = 0
    for r in range(row, len(lines)):
        for ch in lines[r][col if r == row else 0:]:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                if depth == 0:
                    return (row, r)
    return (row, len(lines) - 1)


# ---------------------------------------------------------------------------
# Determinism rules (stripped code, whole tree)
# ---------------------------------------------------------------------------

NONDET_PATTERNS: list[tuple[re.Pattern, str]] = [
    (re.compile(r"\bstd::random_device\b"),
     "std::random_device is nondeterministic across runs; use the seeded config RNG"),
    (re.compile(r"(?<![\w.:>])s?rand\s*\("),
     "rand()/srand() draw from ambient global state; use the seeded config RNG"),
    (re.compile(r"(?<![\w.:>])time\s*\(|\bstd::time\s*\("),
     "time() reads the wall clock; simulated time comes from EventScheduler::now()"),
    (re.compile(r"\bstd::chrono::system_clock\b|\bsystem_clock::now\b"),
     "system_clock is wall-clock time; bench timing uses steady_clock, model "
     "time uses EventScheduler::now()"),
    (re.compile(r"\bgettimeofday\s*\(|\bclock_gettime\s*\("),
     "raw clock syscall; simulated time comes from EventScheduler::now()"),
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:map|multimap)\s*<\s*[^,<>()]*\*\s*,"),
     "pointer-keyed map: iteration/compare order follows addresses, which "
     "differ across runs under ASLR — key by a stable id instead"),
    (re.compile(r"\b(?:std::)?(?:unordered_)?(?:set|multiset)\s*<\s*[^,<>()]*\*\s*[,>]"),
     "pointer-keyed set: iteration order follows addresses, which differ "
     "across runs under ASLR — key by a stable id instead"),
]


def check_nondet_source(findings: list[Finding]) -> None:
    """No ambient nondeterminism: std::random_device, rand()/srand(),
    time(), gettimeofday/clock_gettime, std::chrono::system_clock, and
    pointer values as map/set keys (address order differs across runs under
    ASLR). Simulation randomness comes from the seeded config RNG; bench
    wall timing uses steady_clock, which the rule permits."""
    rule = "nondet-source"
    for src in sources(TREE_DIRS):
        for lineno, line in enumerate(src.code_lines, 1):
            msg = next((msg for pattern, msg in NONDET_PATTERNS if pattern.search(line)), None)
            if msg and not src.suppressed(rule, lineno):
                findings.append(Finding(rule, src.path, lineno, msg))


def check_unordered_iter(findings: list[Finding]) -> None:
    """Iterating a std::unordered_map/set (directly, through an alias, or as
    a member of a class or its bases) is a finding: hash order is an
    artifact of hashing, bucket count and history, and any of it escaping
    into a report, credit assignment or buffer release breaks bitwise
    reproducibility. Use det::OrderedMap (src/common/det_map.h) or, for
    per-flow state, FlowTable (src/common/flow_table.h); provably
    order-invariant loops (integer sums) annotate."""
    rule = "unordered-iter"
    for src in sources(TREE_DIRS):
        for site in unordered_loops(src):
            if not src.suppressed(rule, site.lineno):
                findings.append(Finding(
                    rule, src.path, site.lineno,
                    f"iteration over hash-ordered container '{site.var}'; use "
                    "det::OrderedMap (common/det_map.h) or FlowTable "
                    "(common/flow_table.h), or suppress with a justification "
                    "if provably order-invariant"))


ACCUM_RE = re.compile(r"\b(\w+)\s*(?:\+=|-=|\*=)")
PLAIN_ACCUM_RE = re.compile(r"\b(\w+)\s*=\s*\1\s*[+*]")


def check_float_accum(findings: list[Finding]) -> None:
    """Float addition is not associative, so accumulating a float or double
    inside a loop over an unordered container is order-dependent even when
    the visited set is identical. Accumulate in integers, iterate in sorted
    order, or restructure the reduction."""
    rule = "float-accum"
    index = symbol_index()
    for src in sources(TREE_DIRS):
        loops = unordered_loops(src)
        if not loops:
            continue
        floats = {m.group(1) for m in FLOAT_DECL_RE.finditer(src.code)}
        for cls in implemented_classes(src, index):
            floats |= index.members(cls, "float_members")
        for site in loops:
            for row in range(site.body_start, site.body_end + 1):
                line = src.code_lines[row]
                names = {m.group(1) for m in ACCUM_RE.finditer(line)}
                names |= {m.group(1) for m in PLAIN_ACCUM_RE.finditer(line)}
                if src.suppressed(rule, row + 1):
                    continue
                for n in sorted(names & floats):
                    findings.append(Finding(
                        rule, src.path, row + 1,
                        f"float accumulation into '{n}' across hash-ordered "
                        f"iteration of '{site.var}': float addition is not "
                        "associative, so the sum is order-dependent — "
                        "accumulate in integers or iterate sorted"))


RULES = {
    "float-accum": check_float_accum,
    "nondet-source": check_nondet_source,
    "packet-copy": check_packet_copy,
    "past-schedule": check_past_schedule,
    "raw-actuator": check_raw_actuator,
    "raw-stdout": check_raw_stdout,
    "raw-unit-param": check_raw_unit_param,
    "std-function-hot-path": check_std_function_hot_path,
    "unordered-iter": check_unordered_iter,
    "unreflected-config": check_unreflected_config,
    "vector-return": check_vector_return,
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rule", action="append", choices=sorted(RULES),
                        help="run only this rule (repeatable; default: all)")
    parser.add_argument("--list-rules", action="store_true", help="list rules and exit")
    parser.add_argument("--root", type=Path, default=None,
                        help="scan this tree instead of the repo (the self-test "
                             "points it at tools/lint/fixtures/)")
    args = parser.parse_args()

    if args.root is not None:
        global REPO_ROOT
        REPO_ROOT = args.root.resolve()

    if args.list_rules:
        for name in sorted(RULES):
            print(name)
        return 0

    findings: list[Finding] = []
    for name in sorted(set(args.rule or RULES)):
        RULES[name](findings)
    findings.sort(key=lambda f: (str(f.path), f.lineno, f.rule))

    for f in findings:
        print(f)
    if findings:
        print(f"ceio_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("ceio_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
