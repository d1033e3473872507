#!/usr/bin/env python3
"""Repo-invariant linter: mechanical checks the compiler cannot express.

Each rule pins an invariant the codebase relies on for correctness or
determinism (docs/STATIC_ANALYSIS.md documents the "why" per rule):

  kernel-table        every KernelTable field is populated (non-null) by
                      each compiled backend, and the plam namespace
                      defines every entry point kernels.h declares
  raw-thread          std::thread appears only in the thread pool and the
                      serving worker loop — everything else must fan out
                      through ThreadPool so LP_THREADS stays authoritative
  getenv              std::getenv appears only at the three approved
                      process-config sites (LP_KERNEL, LP_APPROX,
                      LP_THREADS), each resolved once
  nondeterminism      no wall-clock or stdlib-randomness source in library
                      code; all randomness goes through util/rng.h
  fault-points        every LP_FAULT_POINT call site uses a string-literal
                      name listed in lp::fault::kRegisteredPoints
                      (fault_injection.h) — a typo'd point is a fault plan
                      that silently never fires
  float-accum         kernel inner loops accumulate in double (no float /
                      packed-single accumulators, no *_ps adds or FMAs) in
                      the kernel sources and headers, and the root build
                      pins -ffp-contract=off
  isa-isolation       only the SIMD TUs include kernels_simd.h, and every
                      definition in it sits in its anonymous namespace, so
                      no ISA's instantiation can link into another tier
  test-registration   every tests/test_*.cpp is registered in
                      tests/CMakeLists.txt (an unregistered test is a
                      test that silently never runs)

Usage:
  lint_invariants.py [--root DIR]   lint a tree (default: repo root)
  lint_invariants.py --self-test    run the rule engine against the
                                    good/bad fixtures in lint_fixtures/

Exit status: 0 clean, 1 violations (or a self-test mismatch), 2 usage /
missing-input errors.
"""

from __future__ import annotations

import argparse
import pathlib
import re
import shutil
import sys
import tempfile

# ---------------------------------------------------------------------------
# Source scanning helpers


def strip_comments_and_strings(text: str) -> str:
    """Blank out comments and string/char literals, preserving line
    numbers, so token scans cannot match prose or log messages."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            out.append("\n" * text.count("\n", i, j + 2))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == quote:
                    break
                j += 1
            out.append(quote + quote)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def cpp_sources(root: pathlib.Path) -> list[pathlib.Path]:
    src = root / "src"
    if not src.is_dir():
        return []
    return sorted(p for p in src.rglob("*") if p.suffix in (".h", ".cpp"))


class Violation:
    def __init__(self, rule: str, path: pathlib.Path, line: int, msg: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.msg = msg

    def __str__(self) -> str:
        loc = f"{self.path}:{self.line}" if self.line else str(self.path)
        return f"[{self.rule}] {loc}: {self.msg}"


def line_of(text: str, offset: int) -> int:
    return text.count("\n", 0, offset) + 1


# ---------------------------------------------------------------------------
# kernel-table


def extract_balanced(text: str, open_idx: int, open_ch: str, close_ch: str) -> str:
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return text[open_idx + 1 : i]
    return text[open_idx + 1 :]


def split_top_level(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for c in text:
        if c in "({[<":
            depth += 1
        elif c in ")}]>":
            depth -= 1
        if c == "," and depth == 0:
            parts.append("".join(cur).strip())
            cur = []
        else:
            cur.append(c)
    tail = "".join(cur).strip()
    if tail:
        parts.append(tail)
    return parts


KERNEL_BACKENDS = (
    "src/kernels/kernels_scalar.cpp",
    "src/kernels/kernels_avx2.cpp",
    "src/kernels/kernels_avx512.cpp",
)


def rule_kernel_table(root: pathlib.Path) -> list[Violation]:
    rule = "kernel-table"
    header = root / "src/kernels/kernels.h"
    out: list[Violation] = []
    if not header.is_file():
        return [Violation(rule, header, 0, "missing kernels.h")]
    htext = strip_comments_and_strings(header.read_text())

    m = re.search(r"struct\s+KernelTable\s*\{", htext)
    if not m:
        return [Violation(rule, header, 0, "no `struct KernelTable` found")]
    body = extract_balanced(htext, m.end() - 1, "{", "}")
    # Function-pointer members come in two spellings: inline
    # `ret (*name)(...)` or via a `using XFn = ret (*)(...)` alias.
    aliases = set(re.findall(r"using\s+(\w+)\s*=[^;]*\(\s*\*\s*\)", htext))
    fn_fields = re.findall(r"\(\s*\*\s*(\w+)\s*\)\s*\(", body)
    for decl in re.finditer(r"\b(\w+)\s+(\w+)\s*;", body):
        if decl.group(1) in aliases:
            fn_fields.append(decl.group(2))
    if not fn_fields:
        return [Violation(rule, header, line_of(htext, m.start()),
                          "KernelTable has no function-pointer fields")]
    want = 1 + len(fn_fields)  # name + one pointer per field

    for rel in KERNEL_BACKENDS:
        path = root / rel
        if not path.is_file():
            out.append(Violation(rule, path, 0, "missing backend source"))
            continue
        text = strip_comments_and_strings(path.read_text())
        km = re.search(r"KernelTable\s+kTable\s*\{", text)
        if not km:
            out.append(Violation(rule, path, 0,
                                 "no `KernelTable kTable{...}` definition"))
            continue
        init = extract_balanced(text, km.end() - 1, "{", "}")
        entries = split_top_level(init)
        lineno = line_of(text, km.start())
        if len(entries) != want:
            out.append(Violation(
                rule, path, lineno,
                f"kTable initializer has {len(entries)} entries, KernelTable "
                f"declares {want} fields (name + {len(fn_fields)} kernels) — "
                "a short initializer value-initializes the tail to nullptr"))
        for e in entries:
            if e == "nullptr" or e == "0":
                out.append(Violation(rule, path, lineno,
                                     f"kTable entry `{e}` leaves a kernel "
                                     "unpopulated"))

    # The plam entry points are not a KernelTable slot; the scalar backend,
    # whose GEMM body plam::gemm instantiates with the Mitchell multiply,
    # must define every entry point the header's `namespace plam` block
    # declares.
    pm = re.search(r"namespace\s+plam\s*\{", htext)
    plam_src = root / "src/kernels/kernels_scalar.cpp"
    if pm:
        pbody = extract_balanced(htext, pm.end() - 1, "{", "}")
        declared = re.findall(r"\b(\w+)\s*\([^;]*\)\s*;", pbody)
        if not plam_src.is_file():
            out.append(Violation(rule, plam_src, 0, "missing plam source"))
        else:
            ptext = strip_comments_and_strings(plam_src.read_text())
            for name in declared:
                if not re.search(r"\b" + re.escape(name) + r"\s*\(", ptext):
                    out.append(Violation(
                        rule, plam_src, 0,
                        f"plam entry point `{name}` declared in kernels.h "
                        "but not defined here"))
    return out


# ---------------------------------------------------------------------------
# raw-thread / getenv / nondeterminism


RAW_THREAD_ALLOWED = {
    "src/util/thread_pool.h",
    "src/util/thread_pool.cpp",
    "src/serve/server.h",
    "src/serve/server.cpp",
}

GETENV_ALLOWED = {  # file -> max call count
    "src/kernels/dispatch.cpp": 2,  # LP_KERNEL, LP_APPROX
    "src/util/thread_pool.cpp": 1,  # LP_THREADS
    "src/util/fault_injection.cpp": 2,  # LP_FAULT (lazy load + load_env())
}

NONDET_TOKENS = (
    "std::rand", "srand", "random_device", "system_clock",
    "mt19937", "minstd_rand", "default_random_engine",
)


def rule_raw_thread(root: pathlib.Path) -> list[Violation]:
    out = []
    for path in cpp_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel in RAW_THREAD_ALLOWED:
            continue
        text = strip_comments_and_strings(path.read_text())
        for m in re.finditer(r"\bstd::thread\b", text):
            out.append(Violation(
                "raw-thread", path, line_of(text, m.start()),
                "raw std::thread outside the thread pool / serving workers "
                "— use lp::ThreadPool so LP_THREADS governs all parallelism"))
    return out


def rule_getenv(root: pathlib.Path) -> list[Violation]:
    out = []
    for path in cpp_sources(root):
        rel = path.relative_to(root).as_posix()
        text = strip_comments_and_strings(path.read_text())
        hits = list(re.finditer(r"\bgetenv\s*\(", text))
        if not hits:
            continue
        cap = GETENV_ALLOWED.get(rel)
        if cap is None:
            for m in hits:
                out.append(Violation(
                    "getenv", path, line_of(text, m.start()),
                    "std::getenv outside the approved process-config sites "
                    "(LP_KERNEL/LP_APPROX in dispatch.cpp, LP_THREADS in "
                    "thread_pool.cpp, LP_FAULT in fault_injection.cpp)"))
        elif len(hits) > cap:
            out.append(Violation(
                "getenv", path, line_of(text, hits[cap].start()),
                f"{len(hits)} getenv calls but only {cap} approved here — "
                "new knobs need an entry in scripts/lint_invariants.py and "
                "docs/STATIC_ANALYSIS.md"))
    return out


def rule_nondeterminism(root: pathlib.Path) -> list[Violation]:
    out = []
    pat = re.compile("|".join(r"\b" + re.escape(t) + r"\b" for t in NONDET_TOKENS))
    for path in cpp_sources(root):
        text = strip_comments_and_strings(path.read_text())
        for m in pat.finditer(text):
            out.append(Violation(
                "nondeterminism", path, line_of(text, m.start()),
                f"`{m.group(0)}` is a nondeterminism source; library code "
                "must use util/rng.h (seeded xoshiro) and steady_clock"))
    return out


# ---------------------------------------------------------------------------
# fault-points


FAULT_MANIFEST = "src/util/fault_injection.h"
# Matched against RAW source text (not the stripped form): the point name
# lives inside a string literal, which strip_comments_and_strings blanks.
FAULT_POINT_CALL = re.compile(r"\bLP_FAULT_POINT\s*\(\s*([^)]*?)\s*\)")


def registered_fault_points(root: pathlib.Path) -> set[str] | None:
    """Parse lp::fault::kRegisteredPoints from the manifest header, or
    None if the header (or the array) is missing."""
    header = root / FAULT_MANIFEST
    if not header.is_file():
        return None
    text = header.read_text()
    m = re.search(r"kRegisteredPoints\s*\[\s*\]\s*=\s*\{", text)
    if not m:
        return None
    body = extract_balanced(text, m.end() - 1, "{", "}")
    return set(re.findall(r'"([^"]*)"', body))


def rule_fault_points(root: pathlib.Path) -> list[Violation]:
    rule = "fault-points"
    manifest = registered_fault_points(root)
    out: list[Violation] = []
    for path in cpp_sources(root):
        rel = path.relative_to(root).as_posix()
        if rel == FAULT_MANIFEST:
            continue  # the macro definition and manifest live here
        text = path.read_text()
        for m in FAULT_POINT_CALL.finditer(text):
            arg = m.group(1)
            lit = re.fullmatch(r'"([^"]*)"', arg)
            if lit is None:
                out.append(Violation(
                    rule, path, line_of(text, m.start()),
                    f"LP_FAULT_POINT({arg}) — the point name must be a "
                    "plain string literal so this rule can check it "
                    "against lp::fault::kRegisteredPoints"))
                continue
            name = lit.group(1)
            if manifest is None:
                out.append(Violation(
                    rule, path, line_of(text, m.start()),
                    f'LP_FAULT_POINT("{name}") but no kRegisteredPoints '
                    f"manifest found in {FAULT_MANIFEST}"))
            elif name not in manifest:
                out.append(Violation(
                    rule, path, line_of(text, m.start()),
                    f'fault point "{name}" is not listed in '
                    "lp::fault::kRegisteredPoints (fault_injection.h) — "
                    "unregistered names make set_plan throw and plans "
                    "silently never fire"))
    return out


# ---------------------------------------------------------------------------
# float-accum


FLOAT_ACC_DECL = re.compile(
    r"\b(?:float|__m128|__m256|__m512)\s+\w*(?:acc|sum)\w*"
    r"|std::vector<\s*float\s*>\s+\w*(?:acc|sum)\w*"
    r"|std::array<\s*float\b[^>]*>\s+\w*(?:acc|sum)\w*")
SINGLE_PREC_ACCUM_OPS = re.compile(
    r"\b_mm(?:256|512)?_(?:add|fmadd|fmsub)_ps\b")


def rule_float_accum(root: pathlib.Path) -> list[Violation]:
    out = []
    kdir = root / "src/kernels"
    paths = (sorted(kdir.glob("kernels_*.cpp")) + sorted(kdir.glob("*.h"))
             if kdir.is_dir() else [])
    for path in paths:
        text = strip_comments_and_strings(path.read_text())
        for m in FLOAT_ACC_DECL.finditer(text):
            out.append(Violation(
                "float-accum", path, line_of(text, m.start()),
                f"float-typed accumulator `{m.group(0).strip()}` — kernel "
                "accumulation must be double (ascending-k, rounded once) "
                "for the cross-backend bit-identity contract"))
        for m in SINGLE_PREC_ACCUM_OPS.finditer(text):
            out.append(Violation(
                "float-accum", path, line_of(text, m.start()),
                f"single-precision accumulate `{m.group(0)}` — use the _pd "
                "form; float rounding per step breaks bit-identity"))
    cml = root / "CMakeLists.txt"
    if not cml.is_file() or "-ffp-contract=off" not in cml.read_text():
        out.append(Violation(
            "float-accum", cml, 0,
            "root CMakeLists.txt must pin -ffp-contract=off build-wide "
            "(FMA contraction changes kernel rounding)"))
    return out


# ---------------------------------------------------------------------------
# isa-isolation


SIMD_HEADER = "src/kernels/kernels_simd.h"
SIMD_TUS = {"src/kernels/kernels_avx2.cpp", "src/kernels/kernels_avx512.cpp"}
INCLUDE_LINE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.M)


def rule_isa_isolation(root: pathlib.Path) -> list[Violation]:
    """The shared SIMD header is compiled once per ISA.  Its code is safe
    only while each instantiation keeps internal linkage (the linker may
    otherwise keep the widest ISA's copy for every caller) and only the
    SIMD TUs compile it."""
    rule = "isa-isolation"
    out = []
    for sub in ("src", "tests", "bench", "examples"):
        d = root / sub
        if not d.is_dir():
            continue
        for path in sorted(d.rglob("*")):
            if path.suffix not in (".h", ".cpp"):
                continue
            rel = path.relative_to(root).as_posix()
            if rel in SIMD_TUS:
                continue
            text = path.read_text()
            for m in INCLUDE_LINE.finditer(text):
                if pathlib.PurePosixPath(m.group(1)).name == "kernels_simd.h":
                    out.append(Violation(
                        rule, path, line_of(text, m.start()),
                        "kernels_simd.h is included only by the SIMD TUs "
                        f"({', '.join(sorted(SIMD_TUS))})"))
    header = root / SIMD_HEADER
    if not header.is_file():
        return out
    text = strip_comments_and_strings(header.read_text())
    code = re.sub(r"^[ \t]*#.*$", "", text, flags=re.M)
    m = re.search(r"\bnamespace\s*\{", code)
    if not m:
        return out + [Violation(rule, header, 0,
                                "no anonymous namespace to hold the kernels")]
    end = m.end() + len(extract_balanced(code, m.end() - 1, "{", "}")) + 1

    def blank(s: str) -> str:  # keeps newlines, so line numbers hold
        return re.sub(r"[^\n]", " ", s)

    # Outside the anonymous namespace only named-namespace braces may stand.
    outside = code[:m.start()] + blank(code[m.start():end]) + code[end:]
    outside = re.sub(r"\bnamespace\s+[\w:]+\s*\{|\}",
                     lambda x: blank(x.group(0)), outside)
    stray = re.search(r"\S", outside)
    if stray:
        out.append(Violation(
            rule, header, line_of(outside, stray.start()),
            "code outside the anonymous namespace has external linkage: "
            "one ISA's copy could be linked into another tier's callers"))
    return out


# ---------------------------------------------------------------------------
# test-registration


def rule_test_registration(root: pathlib.Path) -> list[Violation]:
    rule = "test-registration"
    tdir = root / "tests"
    cml = tdir / "CMakeLists.txt"
    if not tdir.is_dir():
        return []
    if not cml.is_file():
        return [Violation(rule, cml, 0, "tests/ exists without CMakeLists.txt")]
    registered = cml.read_text()
    out = []
    for path in sorted(tdir.glob("test_*.cpp")):
        if not re.search(r"\b" + re.escape(path.stem) + r"\b", registered):
            out.append(Violation(
                rule, path, 0,
                f"{path.name} is not registered in tests/CMakeLists.txt — "
                "it builds nowhere and ctest never runs it"))
    return out


RULES = (
    rule_kernel_table,
    rule_raw_thread,
    rule_getenv,
    rule_nondeterminism,
    rule_fault_points,
    rule_float_accum,
    rule_isa_isolation,
    rule_test_registration,
)


def lint(root: pathlib.Path) -> list[Violation]:
    out: list[Violation] = []
    for rule in RULES:
        out.extend(rule(root))
    return out


# ---------------------------------------------------------------------------
# Self-test


# fixture directory -> rule id expected to fire on it
BAD_FIXTURES = {
    "bad_kernel_table": "kernel-table",
    "bad_raw_thread": "raw-thread",
    "bad_getenv": "getenv",
    "bad_nondeterminism": "nondeterminism",
    "bad_fault_point": "fault-points",
    "bad_float_accum": "float-accum",
    "bad_float_accum_header": "float-accum",
    "bad_isa_include": "isa-isolation",
    "bad_isa_linkage": "isa-isolation",
    "bad_unregistered_test": "test-registration",
}


def overlay(src: pathlib.Path, dst: pathlib.Path) -> None:
    for p in src.rglob("*"):
        if p.is_file():
            target = dst / p.relative_to(src)
            target.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(p, target)


def self_test(fixtures: pathlib.Path) -> int:
    good = fixtures / "good"
    if not good.is_dir():
        print(f"self-test: missing fixture tree {good}", file=sys.stderr)
        return 2
    failures = 0

    violations = lint(good)
    if violations:
        failures += 1
        print("self-test FAIL: good fixture should be clean, got:")
        for v in violations:
            print(f"  {v}")
    else:
        print("self-test ok: good fixture clean")

    for name, expected_rule in sorted(BAD_FIXTURES.items()):
        bad = fixtures / name
        if not bad.is_dir():
            failures += 1
            print(f"self-test FAIL: missing fixture tree {bad}")
            continue
        with tempfile.TemporaryDirectory(prefix="lint_fixture_") as tmp:
            tree = pathlib.Path(tmp)
            overlay(good, tree)
            overlay(bad, tree)
            violations = lint(tree)
        rules_hit = {v.rule for v in violations}
        if expected_rule not in rules_hit:
            failures += 1
            print(f"self-test FAIL: {name} should trigger [{expected_rule}], "
                  f"got {sorted(rules_hit) or 'no violations'}")
        elif rules_hit - {expected_rule}:
            failures += 1
            print(f"self-test FAIL: {name} also triggered "
                  f"{sorted(rules_hit - {expected_rule})}")
        else:
            n = sum(1 for v in violations if v.rule == expected_rule)
            print(f"self-test ok: {name} -> {n} [{expected_rule}] violation(s)")

    if failures:
        print(f"self-test: {failures} fixture check(s) failed")
        return 1
    print("self-test: all fixtures behave as expected")
    return 0


# ---------------------------------------------------------------------------


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent,
                        help="tree to lint (default: repo root)")
    parser.add_argument("--self-test", action="store_true",
                        help="validate the rules against the lint_fixtures/ "
                             "good/bad trees instead of linting --root")
    args = parser.parse_args(argv)

    if args.self_test:
        return self_test(pathlib.Path(__file__).resolve().parent /
                         "lint_fixtures")

    root = args.root.resolve()
    if not root.is_dir():
        print(f"error: no such directory {root}", file=sys.stderr)
        return 2
    violations = lint(root)
    for v in violations:
        print(v)
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)")
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
