#!/usr/bin/env python3
"""HARP-specific lints the generic toolchain cannot express.

Usage:
    harp_lint.py [--build-dir build] [paths...]

Walks the first-party translation units from compile_commands.json (plus
every header under src/), strips comments and — where literals would
only confuse the check — string literals, and applies four repo checks
(docs/STATIC_ANALYSIS.md "Concurrency analysis" documents them and the
allowlist policy):

  determinism     Bans nondeterminism primitives in src/: rand()/srand(),
                  std::random_device, time()/clock()/localtime/gmtime,
                  wall-clock now() (steady_clock, system_clock,
                  high_resolution_clock) and the obs::now_ns() wrapper
                  around them. Experiment results must be a pure function
                  of seeds and call order; timing belongs to the
                  allowlisted obs/bench timing sites only. The rt event
                  runtime (src/rt) is covered like every other src/
                  subsystem: its clock is the dispatcher's virtual tick,
                  never the wall (docs/RUNTIME.md).

  raw-primitive   Bans raw std::mutex / std::condition_variable /
                  std::thread (and the std lock holders) outside
                  src/common: every lock in the tree must be a
                  harp::Mutex so it carries thread-safety annotations
                  and a lock rank (common/sync.hpp).

  obs-schema      Every `harp.*` instrument literal in src/ must be
                  documented in docs/OBSERVABILITY.md, and every
                  documented name must still exist in src/ — the doc and
                  the code cannot drift apart in either direction.

  std-function    Bans std::function (and std::move_only_function) in
                  src/rt/, src/fleet/ and src/sim/mgmt_plane.*: the
                  event and fleet data planes and the management-plane
                  delivery path (run on every departure) store tasks as
                  fixed-size InlineFunction callables so steady-state
                  dispatch never allocates (docs/RUNTIME.md "Timer
                  wheel & task storage"). Fat
                  captures must go through rt::boxed_task, which is
                  counted by `harp.rt.task_allocs` and gated to zero on
                  the bench hot path. Cold setup code (a test-only hook
                  installed once per run) may escape with a line allow.

Allowlist: FILE_ALLOW below maps a check to repo-relative paths exempt
from it (each entry says why). A single line can be exempted in place
with a `harp-lint: allow(<check>)` comment. Findings print in compiler
format (path:line: [check] message); exit status 1 if any fired.
"""

import argparse
import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOC = os.path.join(ROOT, "docs", "OBSERVABILITY.md")

FIRST_PARTY = ("src/", "tests/", "bench/", "examples/")

# Repo-relative files exempt from a check, with the reason on record.
FILE_ALLOW = {
    "determinism": (
        # Phase timers: obs timing is reported, never fed back into
        # resource decisions (docs/OBSERVABILITY.md "Timing").
        "src/obs/obs.hpp",
        # Fleet-runner wall_seconds provenance field (throughput report).
        "src/runner/fleet.cpp",
        # Bench harness timing: measuring wall time is the product here.
        "bench/bench_util.hpp",
        "bench/micro_packing.cpp",
    ),
    "raw-primitive": (
        # The wrappers themselves: the one place raw primitives live.
        "src/common/sync.hpp",
        "src/common/sync.cpp",
    ),
    "obs-schema": (),
    "std-function": (),
}

DETERMINISM_PATTERNS = (
    (re.compile(r"\b(?:rand|srand|rand_r)\s*\("), "rand()"),
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"\b(?:time|clock|localtime|gmtime|strftime)\s*\("),
     "wall-clock time()"),
    (re.compile(
        r"\b(?:steady_clock|system_clock|high_resolution_clock)\b"),
     "wall-clock now()"),
    # The obs layer's own clock helper: without this, wrapping the banned
    # clocks in obs::now_ns() would be a one-call laundering hole (the rt
    # runtime in particular must drive everything off its virtual clock —
    # docs/RUNTIME.md "Determinism rules").
    (re.compile(r"\bobs::now_ns\s*\("), "wall-clock now_ns()"),
)

RAW_PRIMITIVE_PATTERN = re.compile(
    r"\bstd::(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|thread|jthread|lock_guard|unique_lock|"
    r"scoped_lock|shared_lock)\b")

STD_FUNCTION_PATTERN = re.compile(
    r"\bstd::(?:function|move_only_function)\b")

OBS_NAME_PATTERN = re.compile(r'"(harp\.[a-z0-9_.]+)"')
ALLOW_MARKER = re.compile(r"harp-lint:\s*allow\(([a-z-]+)\)")

BLOCK_COMMENT = re.compile(r"/\*.*?\*/", re.DOTALL)
STRING_LITERAL = re.compile(r'"(?:[^"\\\n]|\\.)*"' r"|'(?:[^'\\\n]|\\.)*'")


def load_files(build_dir, filters):
    """First-party TUs from the compile database + headers under src/."""
    db_path = os.path.join(build_dir, "compile_commands.json")
    try:
        with open(db_path, encoding="utf-8") as f:
            db = json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: {db_path} not found — configure CMake first "
                 "(compile_commands.json is exported automatically)")
    files = set()
    for entry in db:
        path = os.path.normpath(
            os.path.join(entry.get("directory", build_dir), entry["file"]))
        rel = os.path.relpath(path, start=ROOT)
        if rel.startswith(FIRST_PARTY):
            files.add(rel)
    for dirpath, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if name.endswith((".hpp", ".h")):
                files.add(os.path.relpath(os.path.join(dirpath, name),
                                          start=ROOT))
    if filters:
        files = {f for f in files if any(s in f for s in filters)}
    return sorted(files)


def strip_comments(text):
    """Block + line comments out (newlines kept so line numbers hold),
    allow-markers harvested first: {lineno: check} per marker comment."""
    allows = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        m = ALLOW_MARKER.search(line)
        if m:
            allows[lineno] = m.group(1)
    text = BLOCK_COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)),
                             text)
    lines = []
    for line in text.splitlines():
        idx = line.find("//")
        lines.append(line[:idx] if idx >= 0 else line)
    return lines, allows


def allowed(check, rel, lineno, allows):
    return rel in FILE_ALLOW[check] or allows.get(lineno) == check


def check_determinism(rel, lines, allows, problems):
    if not rel.startswith("src/"):
        return  # tests/benches may time or randomize deliberately
    for lineno, line in enumerate(lines, 1):
        code = STRING_LITERAL.sub('""', line)
        for pattern, label in DETERMINISM_PATTERNS:
            if pattern.search(code) and not allowed("determinism", rel,
                                                    lineno, allows):
                problems.append(
                    f"{rel}:{lineno}: [determinism] {label} is banned in "
                    "src/ — results must be a pure function of seeds "
                    "(allowlist: scripts/harp_lint.py)")


def check_raw_primitive(rel, lines, allows, problems):
    if not rel.startswith("src/") or rel.startswith("src/common/"):
        return  # wrappers live in src/common; tests may spawn raw threads
    for lineno, line in enumerate(lines, 1):
        code = STRING_LITERAL.sub('""', line)
        m = RAW_PRIMITIVE_PATTERN.search(code)
        if m and not allowed("raw-primitive", rel, lineno, allows):
            problems.append(
                f"{rel}:{lineno}: [raw-primitive] {m.group(0)} — use "
                "harp::Mutex/MutexLock/CondVar/Thread (common/sync.hpp) "
                "so the lock carries annotations and a rank")


def check_std_function(rel, lines, allows, problems):
    if not rel.startswith(("src/rt/", "src/fleet/", "src/sim/mgmt_plane.")):
        return  # other subsystems may type-erase freely
    for lineno, line in enumerate(lines, 1):
        code = STRING_LITERAL.sub('""', line)
        m = STD_FUNCTION_PATTERN.search(code)
        if m and not allowed("std-function", rel, lineno, allows):
            problems.append(
                f"{rel}:{lineno}: [std-function] {m.group(0)} is banned "
                "on the rt/fleet/mgmt hot paths — use harp::InlineFunction "
                "(common/inline_task.hpp) or rt::boxed_task for fat "
                "cold-path captures (allowlist: scripts/harp_lint.py)")


def check_obs_schema(files_lines, documented, problems):
    used = {}  # name -> first "rel:lineno"
    for rel, lines in files_lines.items():
        if not rel.startswith("src/"):
            continue
        for lineno, line in enumerate(lines, 1):
            for name in OBS_NAME_PATTERN.findall(line):
                used.setdefault(name, f"{rel}:{lineno}")
    for name in sorted(set(used) - documented):
        problems.append(
            f"{used[name]}: [obs-schema] instrument '{name}' is not "
            f"documented in docs/OBSERVABILITY.md")
    for name in sorted(documented - set(used)):
        problems.append(
            f"docs/OBSERVABILITY.md: [obs-schema] documented instrument "
            f"'{name}' no longer appears in src/")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--build-dir", default="build",
                        help="directory holding compile_commands.json")
    parser.add_argument("paths", nargs="*",
                        help="restrict to files whose path contains any "
                             "of these substrings")
    args = parser.parse_args()

    with open(DOC, encoding="utf-8") as f:
        documented = set(re.findall(r"`(harp\.[a-z0-9_.]+)`", f.read()))
    if not documented:
        sys.exit(f"error: no harp.* names found in {DOC}")

    problems = []
    files_lines = {}
    for rel in load_files(args.build_dir, args.paths):
        with open(os.path.join(ROOT, rel), encoding="utf-8") as f:
            lines, allows = strip_comments(f.read())
        files_lines[rel] = lines
        check_determinism(rel, lines, allows, problems)
        check_raw_primitive(rel, lines, allows, problems)
        check_std_function(rel, lines, allows, problems)
    if not args.paths:  # partial runs cannot judge doc completeness
        check_obs_schema(files_lines, documented, problems)

    for p in sorted(problems):
        print(p)
    print(f"harp_lint: {len(files_lines)} files, {len(problems)} findings",
          file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
