#!/usr/bin/env python3
"""Project-specific lint for the rightsizer codebase (DESIGN.md §13).

AST-free, stdlib-only checks for the bug classes this repo has actually
shipped or explicitly guards against:

  RS001 minmax-label-fold   A raw std::min/std::max fold over a subscripted
                            array in an extended-real (kInf-using) file.
                            std::min's `<` discards NaN (every comparison
                            with NaN is false), so such folds silently
                            launder a poisoned NaN label into a clean-looking
                            minimum — the PR-7 bug class.  Approved
                            branch-free kernels carry a file-level
                            `rs-lint: minmax-audited` marker and their own
                            poison accumulators.
  RS002 float-eq            `==`/`!=` against a floating-point literal.
                            Exact-value contracts (0.0 sentinels, bitwise
                            reconvergence) are legal but must be documented
                            with `rs-lint: float-eq-ok (<why>)`.
  RS003 catch-all           `catch (...)`: a catch-all that neither
                            classifies nor rethrows swallows AuditError and
                            sanitizer reports alike.  Every site must carry
                            `rs-lint: catch-all-ok (<why>)`.
  RS004 eval-row-override   A CostFunction subclass without an eval_row
                            override falls back to the per-point at() loop
                            — a silent O(m) virtual-call regression on every
                            dense row build.  Intentional fallbacks carry
                            `rs-lint: eval-row-ok`.
  RS005 value-key-override  A CostFunction subclass without a value_key_impl
                            override is opaque by default: the fleet form
                            cache and rle_compress fall back to pointer
                            identity and never share it.  Families whose
                            values a key cannot capture carry
                            `rs-lint: opaque-cost`.
  RS006 raw-cost-key        A map or set keyed by a raw `const
                            ...CostFunction*`.  The container does not own
                            the cost, so once the caller drops it a new
                            cost can reuse the address and hit the dead
                            cost's entry (the stale-row bug of the old
                            receding-horizon row cache).  Key on an owned
                            CostPtr or a value key, or annotate a key that
                            something else keeps alive with
                            `rs-lint: pinned-key (<why>)`.
  RS007 problem-solver-entry  A method of an OfflineSolver subclass, or a
                            free solver entry point (a function returning
                            OfflineResult), in src/offline/ that takes
                            `const rs::core::Problem&`.  Every offline
                            solver reads its instance through one
                            core::SlotSource, which a Problem binds to as
                            is, so a Problem overload is a second signature
                            to keep in step.  begin_delta is exempt: a
                            delta session edits its Problem.

Suppressions are read from raw source text (comments included): a file
marker applies anywhere in the file; line annotations apply on the flagged
line or one of the two lines above it.  Matching itself runs on text with
comments and string/char literals stripped, so commented-out code and
message strings never trip a rule.

Exit codes: 0 clean, 1 findings (or self-test failure), 2 usage/IO error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

SOURCE_GLOBS = ("src/**/*.cpp", "src/**/*.hpp")

FILE_MARKER_MINMAX = "rs-lint: minmax-audited"
OK_MINMAX = "rs-lint: minmax-ok"
OK_FLOAT_EQ = "rs-lint: float-eq-ok"
OK_CATCH_ALL = "rs-lint: catch-all-ok"
OK_EVAL_ROW = "rs-lint: eval-row-ok"
OK_OPAQUE_COST = "rs-lint: opaque-cost"
OK_PINNED_KEY = "rs-lint: pinned-key"

# How many lines above a flagged line an annotation still applies.
ANNOTATION_REACH = 2


class Finding:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> list[str]:
    """Source lines with comments and string/char literals blanked.

    Line count and line numbering are preserved (block comments blank in
    place).  A tiny lexer, not a parser: enough C++ lexing to keep rule
    regexes away from prose and message strings; raw strings are treated
    as plain strings (good enough — the repo has none).
    """
    out: list[str] = []
    in_block = False
    for line in text.splitlines():
        result: list[str] = []
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if in_block:
                if ch == "*" and nxt == "/":
                    in_block = False
                    i += 2
                else:
                    i += 1
                continue
            if ch == "/" and nxt == "/":
                break  # rest of line is a comment
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        i += 1
                        break
                    i += 1
                result.append(quote + quote)  # keep tokens apart
                continue
            result.append(ch)
            i += 1
        out.append("".join(result))
    return out


def annotated(raw_lines: list[str], index: int, tag: str) -> bool:
    """True when `tag` appears on raw line `index` or just above it."""
    lo = max(0, index - ANNOTATION_REACH)
    return any(tag in raw_lines[j] for j in range(lo, index + 1))


# A std::min/std::max call whose visible argument text subscripts an array.
MINMAX_FOLD = re.compile(r"std::(?:min|max)\s*\([^;{]*\[")
# ==/!= adjacent to a floating literal (decimal or exponent form), either
# side.  `<=`/`>=` don't match: the character before `=` must be = or !.
FLOAT_LITERAL = r"[-+]?(?:\d+\.\d*|\.\d+|\d+[eE][-+]?\d+)"
FLOAT_EQ = re.compile(
    rf"(?:[=!]=\s*{FLOAT_LITERAL})|(?:{FLOAT_LITERAL}\s*[=!]=)"
)
CATCH_ALL = re.compile(r"catch\s*\(\s*\.\.\.\s*\)")
# An associative container whose first template argument (the key) is a
# raw pointer to a const CostFunction, namespace-qualified or not.
RAW_COST_KEY = re.compile(
    r"\b(?:unordered_)?(?:multi)?(?:map|set)\s*<\s*const\s+"
    r"(?:[\w:]+::)?CostFunction\s*\*"
)
SOLVER_SUBCLASS = re.compile(
    r"\bclass\s+\w+[^;{]*:\s*(?:public\s+)?(?:rs::offline::)?OfflineSolver\b"
)
# A declarator or call: optional OfflineResult return type, optional
# qualifiers, the name, and the parameter text up to the first `)`.
DECLARATOR = re.compile(
    r"(?:\b(OfflineResult)\s+)?((?:\w+::)*)(\w+)\s*\(([^)]*)")
PROBLEM_PARAM = re.compile(r"\bconst\s+(?:rs::)?(?:core::)?Problem\s*&")
OFFLINE_DIR = "src/offline/"
# The one solver member that needs a Problem: a delta session edits it.
PROBLEM_ENTRY_EXEMPT = {"begin_delta"}
COST_SUBCLASS = re.compile(
    r"\bclass\s+(\w+)[^;{]*:\s*(?:public\s+)?(?:rs::core::)?CostFunction\b"
)


def check_minmax_folds(path: str, raw: list[str], code: list[str],
                       findings: list[Finding]) -> None:
    if not any("kInf" in line for line in code):
        return  # not an extended-real file; min/max folds cannot launder
    if any(FILE_MARKER_MINMAX in line for line in raw):
        return  # approved branch-free kernel (poison accumulators audited)
    for i, line in enumerate(code):
        # A fold call can split across lines; join a small window so the
        # opening `std::min(` sees its subscripted arguments.
        window = " ".join(code[i:i + 3])
        if ("std::min" in line or "std::max" in line) and MINMAX_FOLD.search(
                window):
            if annotated(raw, i, OK_MINMAX):
                continue
            findings.append(Finding(
                path, i + 1, "RS001",
                "raw std::min/std::max fold over a label array in an "
                "extended-real file: std::min drops NaN (PR-7 bug class). "
                "Use a poison accumulator + file marker "
                f"'{FILE_MARKER_MINMAX}', or annotate '{OK_MINMAX}'"))


def check_float_eq(path: str, raw: list[str], code: list[str],
                   findings: list[Finding]) -> None:
    for i, line in enumerate(code):
        if FLOAT_EQ.search(line):
            if annotated(raw, i, OK_FLOAT_EQ):
                continue
            findings.append(Finding(
                path, i + 1, "RS002",
                "floating-point ==/!= against a literal: document the "
                f"exact-value contract with '{OK_FLOAT_EQ} (<why>)'"))


def check_catch_all(path: str, raw: list[str], code: list[str],
                    findings: list[Finding]) -> None:
    for i, line in enumerate(code):
        if CATCH_ALL.search(line):
            if annotated(raw, i, OK_CATCH_ALL):
                continue
            findings.append(Finding(
                path, i + 1, "RS003",
                "catch (...) without a classification note: annotate "
                f"'{OK_CATCH_ALL} (<why>)' after confirming the handler "
                "classifies or rethrows"))


def cost_subclasses(raw: list[str], code: list[str], tag: str,
                    member: str):
    """(line index, class name) of each CostFunction subclass whose body
    lacks `member` and whose declaration is not annotated with `tag`."""
    for i, line in enumerate(code):
        match = COST_SUBCLASS.search(line)
        if not match or annotated(raw, i, tag):
            continue
        # The class body runs to the first subsequent line that closes a
        # brace at column 0 (the repo's formatting contract).
        body_end = next(
            (j for j in range(i + 1, len(code))
             if code[j].startswith("};")), len(code))
        if not any(member in body_line for body_line in code[i:body_end]):
            yield i, match.group(1)


def check_eval_row(path: str, raw: list[str], code: list[str],
                   findings: list[Finding]) -> None:
    for i, name in cost_subclasses(raw, code, OK_EVAL_ROW, "eval_row"):
        findings.append(Finding(
            path, i + 1, "RS004",
            f"CostFunction subclass {name} does not override "
            "eval_row: dense row builds fall back to the per-point at() "
            f"loop. Override it, or annotate '{OK_EVAL_ROW}'"))


def check_value_key(path: str, raw: list[str], code: list[str],
                    findings: list[Finding]) -> None:
    for i, name in cost_subclasses(raw, code, OK_OPAQUE_COST,
                                   "value_key_impl"):
        findings.append(Finding(
            path, i + 1, "RS005",
            f"CostFunction subclass {name} does not override "
            "value_key_impl: it is silently opaque, so the form cache and "
            "rle_compress never share it. Override it, or annotate "
            f"'{OK_OPAQUE_COST} (<why>)'"))


def check_raw_cost_key(path: str, raw: list[str], code: list[str],
                       findings: list[Finding]) -> None:
    for i, line in enumerate(code):
        # A declaration can break after `<`, so the next line is joined
        # on; a match is reported on the line where it starts.
        match = RAW_COST_KEY.search(" ".join(code[i:i + 2]))
        if match and match.start() < len(line):
            if annotated(raw, i, OK_PINNED_KEY):
                continue
            findings.append(Finding(
                path, i + 1, "RS006",
                "map/set keyed by a raw const CostFunction*: the key does "
                "not own the cost, so a freed address can alias a new "
                "cost. Key on an owned CostPtr or a value key, or annotate "
                f"'{OK_PINNED_KEY} (<why>)'"))


def check_problem_entry(path: str, raw: list[str], code: list[str],
                        findings: list[Finding]) -> None:
    if not path.startswith(OFFLINE_DIR):
        return
    in_solver = [False] * len(code)
    for i, line in enumerate(code):
        if SOLVER_SUBCLASS.search(line):
            for j in range(i, len(code)):
                in_solver[j] = True
                if code[j].startswith("};"):
                    break
    for i, line in enumerate(code):
        # A parameter list can break across lines; a declarator is
        # reported on the line where it starts.
        window = " ".join(code[i:i + 3])
        for match in DECLARATOR.finditer(window):
            if match.start() >= len(line):
                break
            returns, qualifiers, name, params = match.groups()
            entry = (in_solver[i] or returns is not None
                     or qualifiers.endswith("Solver::"))
            if (entry and name not in PROBLEM_ENTRY_EXEMPT
                    and PROBLEM_PARAM.search(params)):
                findings.append(Finding(
                    path, i + 1, "RS007",
                    f"offline solver entry {name} takes a const Problem&: "
                    "take a const rs::core::SlotSource& instead (a Problem "
                    "binds to it as is)"))


CHECKS = (check_minmax_folds, check_float_eq, check_catch_all,
          check_eval_row, check_value_key, check_raw_cost_key,
          check_problem_entry)


def lint_text(path: str, text: str) -> list[Finding]:
    raw = text.splitlines()
    code = strip_comments_and_strings(text)
    findings: list[Finding] = []
    for check in CHECKS:
        check(path, raw, code, findings)
    return findings


def lint_tree(root: Path) -> list[Finding]:
    findings: list[Finding] = []
    files = sorted({f for glob in SOURCE_GLOBS for f in root.glob(glob)})
    if not files:
        raise FileNotFoundError(f"no sources matched under {root}")
    for path in files:
        rel = path.relative_to(root).as_posix()
        findings.extend(lint_text(rel, path.read_text(encoding="utf-8")))
    return findings


# ---------------------------------------------------------------------------
# Self-test: each rule must fire on its seeded bad snippet and stay quiet
# on the annotated/fixed twin.  The first snippet is the literal PR-7
# NaN-laundering pattern.
# ---------------------------------------------------------------------------

SEEDED_PR7_FOLD = """
#include "util/math_util.hpp"
using rs::util::kInf;
double chat_minimum(const double* cl, int m) {
  double best = kInf;
  for (int x = 0; x <= m; ++x) {
    best = std::min(best, cl[x]);
  }
  return best;
}
"""

FIXED_PR7_FOLD = """
// rs-lint: minmax-audited — poison accumulator below surfaces NaN labels
#include "util/math_util.hpp"
using rs::util::kInf;
double chat_minimum(const double* cl, int m) {
  double best = kInf;
  double poison = 0.0;
  for (int x = 0; x <= m; ++x) {
    poison += cl[x];
    best = std::min(best, cl[x]);
  }
  return std::isnan(poison) ? poison : best;
}
"""

SELF_TESTS = (
    ("RS001 fires on the seeded PR-7 std::min NaN-laundering fold",
     SEEDED_PR7_FOLD, "RS001", True),
    ("RS001 quiet on the poison-accumulator kernel with the file marker",
     FIXED_PR7_FOLD, "RS001", False),
    ("RS001 quiet without kInf (not an extended-real file)",
     "int pick(const int* v) { return std::min(v[0], v[1]); }\n",
     "RS001", False),
    ("RS001 honors a line annotation",
     "using rs::util::kInf;\n"
     "// rs-lint: minmax-ok (ints, not labels)\n"
     "int f(const int* v) { return std::min(v[0], v[1]); }\n",
     "RS001", False),
    ("RS002 fires on float literal equality",
     "bool degenerate(double slope) { return slope == 0.0; }\n",
     "RS002", True),
    ("RS002 quiet when the contract is documented",
     "// rs-lint: float-eq-ok (0.0 is an exact sentinel)\n"
     "bool degenerate(double slope) { return slope == 0.0; }\n",
     "RS002", False),
    ("RS002 quiet on <= and >=",
     "bool f(double x) { return x <= 0.5 || x >= 1.5; }\n",
     "RS002", False),
    ("RS002 quiet inside comments and strings",
     "// a comment saying x == 1.0\n"
     'const char* s = "cost == 0.5";\n',
     "RS002", False),
    ("RS003 fires on a bare catch-all",
     "void f() { try { g(); } catch (...) { } }\n", "RS003", True),
    ("RS003 quiet when classified",
     "void f() {\n"
     "  try { g(); } catch (...) {  // rs-lint: catch-all-ok (rethrows)\n"
     "    throw;\n"
     "  }\n"
     "}\n",
     "RS003", False),
    ("RS004 fires on a CostFunction subclass without eval_row",
     "class Leaky final : public CostFunction {\n"
     " public:\n"
     "  double at(int x) const override { return x; }\n"
     "};\n",
     "RS004", True),
    ("RS004 quiet with the override",
     "class Tight final : public rs::core::CostFunction {\n"
     " public:\n"
     "  double at(int x) const override { return x; }\n"
     "  void eval_row(int m, std::span<double> out) const override;\n"
     "};\n",
     "RS004", False),
    ("RS005 fires on a CostFunction subclass without a value key",
     "class Anonymous final : public CostFunction {\n"
     " public:\n"
     "  double at(int x) const override { return x; }\n"
     "  void eval_row(int m, std::span<double> out) const override;\n"
     "};\n",
     "RS005", True),
    ("RS005 quiet with the override",
     "class Keyed final : public rs::core::CostFunction {\n"
     " public:\n"
     "  double at(int x) const override { return x; }\n"
     "  bool value_key_impl(ValueKey& key) const override;\n"
     "};\n",
     "RS005", False),
    ("RS005 quiet on a declared opaque family",
     "// rs-lint: opaque-cost (wraps a callable)\n"
     "class Callable final : public CostFunction {\n"
     " public:\n"
     "  double at(int x) const override { return fn_(x); }\n"
     "};\n",
     "RS005", False),
    ("RS006 fires on a map keyed by a raw CostFunction pointer",
     "std::unordered_map<const rs::core::CostFunction*,\n"
     "                   std::vector<double>> rows_;\n",
     "RS006", True),
    ("RS006 quiet when the key is annotated as pinned",
     "// rs-lint: pinned-key (entries hold the CostPtr alive)\n"
     "std::map<const CostFunction*, int> seen_;\n",
     "RS006", False),
    ("RS006 quiet on CostPtr keys",
     "std::map<CostPtr, int> seen_;\n"
     "std::unordered_set<rs::core::CostPtr> live_;\n",
     "RS006", False),
    ("RS007 fires on a Problem overload of a solver and a free entry",
     "class GraphSolver final : public OfflineSolver {\n"
     " public:\n"
     "  OfflineResult solve(const rs::core::Problem& p) const override;\n"
     "};\n"
     "OfflineResult solve_windowed(int k,\n"
     "                             const Problem& p);\n",
     "RS007", True),
    ("RS007 quiet on SlotSource entries and begin_delta",
     "class DpSolver final : public OfflineSolver {\n"
     " public:\n"
     "  OfflineResult solve(const rs::core::SlotSource& source) const;\n"
     "  DpDeltaSession begin_delta(const rs::core::Problem& p) const;\n"
     "};\n"
     "DpDeltaSession DpSolver::begin_delta(const rs::core::Problem& p) {\n"
     "  return DpDeltaSession(p);\n"
     "}\n",
     "RS007", False),
)

# Self-test snippets are linted as if they lived here, so path-scoped rules
# (RS007) see them.
SELF_TEST_PATH = OFFLINE_DIR + "self_test.hpp"


def run_self_test() -> int:
    failures = 0
    for name, snippet, rule, should_fire in SELF_TESTS:
        hits = [f for f in lint_text(SELF_TEST_PATH, snippet)
                if f.rule == rule]
        ok = bool(hits) == should_fire
        print(f"{'PASS' if ok else 'FAIL'}: {name}")
        if not ok:
            failures += 1
            for f in hits:
                print(f"  unexpected: {f}")
    print(f"self-test: {len(SELF_TESTS) - failures}/{len(SELF_TESTS)} passed")
    return 0 if failures == 0 else 1


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).parent.parent,
                        help="repository root (default: this script's parent)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded rule fixtures and exit")
    args = parser.parse_args(argv)

    if args.self_test:
        return run_self_test()

    try:
        findings = lint_tree(args.root.resolve())
    except (OSError, FileNotFoundError) as error:
        print(f"lint_rightsizer: {error}", file=sys.stderr)
        return 2
    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_rightsizer: {len(findings)} finding(s)")
        return 1
    print("lint_rightsizer: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
