#!/usr/bin/env python3
"""Golden-file self-tests for tools/lint/ceio_lint.py.

Runs the checker over the seeded fixture trees in tools/lint/fixtures/ and
asserts:

  1. the violations tree produces exactly the findings recorded in
     fixtures/expected_findings.txt (every rule fires; the suppressed or
     negative twin of every violation stays silent) and exits 1;
  2. the clean tree produces no findings and exits 0;
  3. --list-rules names exactly the rules of the golden: every golden rule
     is listed, and every listed rule has at least one golden line;
  4. --rule filters to the requested rule only;
  5. `// lint: allow-<rule>` on the line *above* a violation does not
     silence it;
  6. `// lint: allow-<other rule>` on a violating line does not silence it.

Registered as a ctest test (tools.lint-selftest) and run by tools/check.sh,
so a rule regression — a rule going blind, a suppression breaking or
widening, an exit code flipping — fails the gate, not just the fixtures.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
LINT = HERE / "ceio_lint.py"
FIXTURES = HERE / "fixtures"
VIOLATIONS = FIXTURES / "violations"
EXPECTED = FIXTURES / "expected_findings.txt"
FINDING_RE = re.compile(r"^([^:]+):(\d+): \[([a-z-]+)\]")

failures: list[str] = []


def run_lint(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(LINT), *args],
                          capture_output=True, text=True)


def findings(stdout: str) -> list[str]:
    return sorted(line for line in stdout.splitlines() if FINDING_RE.match(line))


def check(name: str, ok: bool, detail: str = "") -> None:
    status = "ok" if ok else "FAIL"
    print(f"  {name}: {status}")
    if not ok:
        failures.append(name)
        if detail:
            print(detail, file=sys.stderr)


def diff(got: list[str], expected: list[str]) -> str:
    return "\n".join([f"  missing:    {l}" for l in expected if l not in got]
                     + [f"  unexpected: {l}" for l in got if l not in expected])


def annotated_copy(tmp: Path, edit) -> Path:
    """Copies the violations tree into `tmp` and rewrites each file's lines
    with `edit(relpath, lines) -> lines`."""
    root = tmp / "violations"
    shutil.copytree(VIOLATIONS, root)
    for path in sorted(root.rglob("*")):
        if path.is_file():
            rel = path.relative_to(root).as_posix()
            lines = path.read_text().splitlines()
            path.write_text("\n".join(edit(rel, lines)) + "\n")
    return root


def main() -> int:
    expected = sorted(line for line in EXPECTED.read_text().splitlines() if line.strip())
    # relpath -> lineno -> rules the golden reports there.
    golden: dict[str, dict[int, set[str]]] = defaultdict(lambda: defaultdict(set))
    for line in expected:
        m = FINDING_RE.match(line)
        golden[m.group(1)][int(m.group(2))].add(m.group(3))
    golden_rules = {r for by_line in golden.values() for rules in by_line.values()
                    for r in rules}

    # 1. Violations tree matches the committed golden, exit code 1.
    proc = run_lint("--root", str(VIOLATIONS))
    got = sorted(line for line in proc.stdout.splitlines() if line.strip())
    check("violations-match-golden", got == expected, diff(got, expected))
    check("violations-exit-1", proc.returncode == 1, f"  exit={proc.returncode}")

    # 2. Clean tree: no findings, exit 0.
    proc = run_lint("--root", str(FIXTURES / "clean"))
    check("clean-exit-0", proc.returncode == 0, f"  exit={proc.returncode}")
    check("clean-reports-clean", "ceio_lint: clean" in proc.stdout,
          f"  stdout={proc.stdout!r}")

    # 3. --list-rules and the golden cover each other.
    proc = run_lint("--list-rules")
    listed = set(proc.stdout.split())
    check("list-rules-complete", golden_rules <= listed and proc.returncode == 0,
          f"  golden rules not listed: {sorted(golden_rules - listed)}")
    check("every-rule-has-a-fixture", listed <= golden_rules,
          f"  listed rules with no golden line: {sorted(listed - golden_rules)}")

    # 4. --rule filters: only raw-stdout findings from the violations tree.
    proc = run_lint("--root", str(VIOLATIONS), "--rule", "raw-stdout")
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    only_stdout = bool(lines) and all("[raw-stdout]" in l for l in lines)
    check("rule-filter", only_stdout and proc.returncode == 1,
          f"  stdout={proc.stdout!r}")

    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)

        # 5. Insert `// lint: allow-<rule>` lines above every violation: all
        # findings survive, each moved down by the lines inserted above it.
        def annotate_above(rel: str, lines: list[str]) -> list[str]:
            out = []
            for lineno, line in enumerate(lines, 1):
                rules = sorted(golden.get(rel, {}).get(lineno, ()))
                if rules:
                    out.append("// " + " ".join(f"lint: allow-{r}" for r in rules))
                out.append(line)
            return out

        def shifted(line: str) -> str:
            m = FINDING_RE.match(line)
            rel, lineno = m.group(1), int(m.group(2))
            inserted = sum(1 for n in golden[rel] if n <= lineno)
            return f"{rel}:{lineno + inserted}:{line[m.end(2) + 1:]}"

        root = annotated_copy(tmp / "above", annotate_above)
        got = findings(run_lint("--root", str(root)).stdout)
        want = sorted(shifted(l) for l in expected)
        check("line-above-does-not-suppress", got == want, diff(got, want))

        # 6. Per rule: annotate each of its violating lines with every *other*
        # rule's suppression; the rule's findings must all survive.
        leaks = []
        for rule in sorted(listed):
            others = " ".join(f"lint: allow-{r}" for r in sorted(listed - {rule}))

            def annotate_others(rel: str, lines: list[str], rule=rule, others=others):
                return [f"{line}  // {others}" if rule in golden.get(rel, {}).get(n, ())
                        else line for n, line in enumerate(lines, 1)]

            root = annotated_copy(tmp / rule, annotate_others)
            got = findings(run_lint("--root", str(root), "--rule", rule).stdout)
            want = [l for l in expected if f"[{rule}]" in l]
            if got != want:
                leaks.append(f"  {rule}:\n{diff(got, want)}")
        check("other-rule-does-not-suppress", not leaks, "\n".join(leaks))

    if failures:
        print(f"test_ceio_lint: FAILED ({', '.join(failures)})", file=sys.stderr)
        return 1
    print("test_ceio_lint: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
