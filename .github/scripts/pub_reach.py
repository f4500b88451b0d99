#!/usr/bin/env python3
"""Refuse public functions and constants that nothing outside tests uses.

Usage: python3 .github/scripts/pub_reach.py [REPO_ROOT]

The scan reads every `.rs` file of the workspace as "non-test Rust":
  - files under `tests/` and `crates/*/tests/` are left out, and so are
    `crates/rand` and `crates/proptest`, which stand in for external
    crates, and build output under `target/`;
  - comments are stripped, and every item marked `#[cfg(test)]` (a test
    module, function or impl) is cut out.
Binaries, examples and the benchmark under `crates/bench/src/bin/benchmark/`
are ordinary non-test Rust: they count as callers.

It lists each `pub fn` and `pub const` defined there and fails on each
one whose name occurs nowhere else in that text. A `use` statement is
not a caller (so a re-export reaches nothing), but `use path::name as
alias` makes each occurrence of `alias` count for `name`. The name after
`fn` or `const` in another definition is not a caller either.

`.github/pub_reach_allow.txt` lists the items kept without a caller, one
`path name - reason` per line (`#` starts a comment line). An entry whose
item gained a caller, or is gone, is stale and fails the gate too.

Its limit: this is a scan by name, not by resolution. A name that is
used elsewhere for something else (another type's method, a field, a
local, a word inside a string literal, which counts so that a format
string's `{name}` does) hides an unreached item. So the gate keeps new
dead helpers out; it does not prove that anything is reached.
"""

import os
import re
import sys

SKIP_DIRS = {"target", ".git", ".bench_build", ".bench_run"}
SKIP_PREFIXES = ("crates/rand/", "crates/proptest/", "tests/")
TEST_DIR = re.compile(r"^crates/[^/]+/tests/")
ALLOW_FILE = ".github/pub_reach_allow.txt"

DEF = re.compile(
    r"\bpub\s+(?:(?:const|async|unsafe|extern\s+\"[^\"]*\")\s+)*fn\s+([A-Za-z_]\w*)"
    r"|\bpub\s+const\s+([A-Za-z_]\w*)\s*:"
)
# The name right after `fn`, `static` or `const` is a definition, never a
# caller.
DEF_SITE = re.compile(r"\b(?:fn|static|const(?!\s+fn\b))\s+([A-Za-z_]\w*)")
IDENT = re.compile(r"[A-Za-z_]\w*")
USE = re.compile(r"\b(?:pub(?:\([^)]*\))?\s+)?use\s+[^;]*;")
ALIAS = re.compile(r"\b([A-Za-z_]\w*)\s+as\s+([A-Za-z_]\w*)")
CFG_TEST = re.compile(r"#\[cfg\(test\)\]")
CHAR = re.compile(r"'(?:\\(?:x[0-9a-fA-F]{2}|u\{[0-9a-fA-F]+\}|.)|[^'\\\n])'")
RAW = re.compile(r'r(#*)"')


def blank(text):
    return re.sub(r"[^\n]", " ", text)


def lex(src):
    """Two copies of `src`, both with comments blanked and line numbers
    kept: `code` keeps string and char literals, `shape` blanks their
    contents too, so that braces inside them never count."""
    code, shape = [], []
    i, n = 0, len(src)
    while i < n:
        c = src[i]
        prev = src[i - 1] if i else " "
        raw = RAW.match(src, i) if c == "r" and not (prev.isalnum() or prev == "_") else None
        if src.startswith("//", i):
            j = src.find("\n", i)
            j = n if j < 0 else j
            code.append(blank(src[i:j]))
            shape.append(blank(src[i:j]))
        elif src.startswith("/*", i):
            depth, j = 1, i + 2
            while j < n and depth:
                if src.startswith("/*", j):
                    depth, j = depth + 1, j + 2
                elif src.startswith("*/", j):
                    depth, j = depth - 1, j + 2
                else:
                    j += 1
            code.append(blank(src[i:j]))
            shape.append(blank(src[i:j]))
        elif raw:
            end = src.find('"' + raw.group(1), raw.end())
            j = n if end < 0 else end + 1 + len(raw.group(1))
            code.append(src[i:j])
            shape.append(blank(src[i:j]))
        elif c == '"':
            j = i + 1
            while j < n and src[j] != '"':
                j += 2 if src[j] == "\\" else 1
            j = min(j + 1, n)
            code.append(src[i:j])
            shape.append(blank(src[i:j]))
        elif c == "'" and CHAR.match(src, i):
            j = CHAR.match(src, i).end()
            code.append(src[i:j])
            shape.append(blank(src[i:j]))
        else:
            # a lifetime's quote, or any other character
            j = i + 1
            code.append(c)
            shape.append(c)
        i = j
    return "".join(code), "".join(shape)


def cut_spans(text, spans):
    out, last = [], 0
    for a, b in spans:
        out.append(text[last:a])
        out.append(blank(text[a:b]))
        last = b
    out.append(text[last:])
    return "".join(out)


def strip_cfg_test(code, shape):
    """Blank, in both copies, every item that follows `#[cfg(test)]`: up
    to its `;`, or to the `}` that closes its first `{`."""
    spans = []
    for m in CFG_TEST.finditer(shape):
        if spans and m.start() < spans[-1][1]:
            continue
        depth, j = 0, m.end()
        while j < len(shape):
            c = shape[j]
            if c == "[" and shape[j - 1] == "#":
                j = shape.find("]", j) + 1
                continue
            if c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    break
            elif c == ";" and depth == 0:
                break
            j += 1
        spans.append((m.start(), j + 1))
    return cut_spans(code, spans), cut_spans(shape, spans)


def rust_files(root):
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for f in sorted(filenames):
            if not f.endswith(".rs"):
                continue
            rel = os.path.relpath(os.path.join(dirpath, f), root).replace(os.sep, "/")
            if rel.startswith(SKIP_PREFIXES) or TEST_DIR.match(rel):
                continue
            yield rel


def scan(root):
    """(definitions [(path, line, name)], occurrence count per name)."""
    defs, aliases, bodies = [], {}, []
    for rel in rust_files(root):
        with open(os.path.join(root, rel), encoding="utf-8") as fh:
            code, shape = strip_cfg_test(*lex(fh.read()))
        # Items, `use` statements and definition sites are found in the
        # shape, so text inside a string literal never forms one; names
        # are counted in the code, so a format string's `{name}` counts.
        for m in DEF.finditer(shape):
            name = m.group(1) or m.group(2)
            defs.append((rel, shape.count("\n", 0, m.start()) + 1, name))
        uses = list(USE.finditer(shape))
        # an alias is declared in one file (often a re-export in lib.rs)
        # and used in others
        for m in uses:
            for a in ALIAS.finditer(m.group(0)):
                aliases[a.group(2)] = a.group(1)
        sites = [m.span(1) for m in DEF_SITE.finditer(shape)]
        bodies.append(cut_spans(code, sorted([m.span() for m in uses] + sites)))
    counts = {}
    for body in bodies:
        for m in IDENT.finditer(body):
            name = aliases.get(m.group(0), m.group(0))
            counts[name] = counts.get(name, 0) + 1
    return defs, counts


def read_allow(root):
    allow = {}
    path = os.path.join(root, ALLOW_FILE)
    if not os.path.exists(path):
        return allow
    with open(path, encoding="utf-8") as fh:
        for no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(None, 2)
            if len(parts) < 3 or not parts[2].lstrip("-— ").strip():
                sys.exit(f"{ALLOW_FILE}:{no}: want 'path name - reason', got {line!r}")
            allow[(parts[0], parts[1])] = no
    return allow


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else "."
    defs, uses = scan(root)
    allow = read_allow(root)
    unreached = [(p, line, n) for p, line, n in defs if not uses.get(n)]
    failures = []
    for p, line, n in unreached:
        if (p, n) not in allow:
            failures.append(f"{p}:{line}: pub {n} has no caller outside tests")
    flagged = {(p, n) for p, _, n in unreached}
    for (p, n), no in sorted(allow.items(), key=lambda e: e[1]):
        if (p, n) not in flagged:
            failures.append(
                f"{ALLOW_FILE}:{no}: stale entry: {p} {n} has a caller outside tests or is gone"
            )
    for f in failures:
        print(f)
    print(
        f"pub_reach: {len(defs)} public items scanned, {len(unreached)} without a caller "
        f"({len(allow)} allowlisted), {len(failures)} failure(s)"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
