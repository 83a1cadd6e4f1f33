#!/usr/bin/env python3
"""Check observability output against docs/OBSERVABILITY.md.

Usage:
    check_obs_schema.py report.json [trace.jsonl ...]

For each `--json` report: verifies the harp-obs/1 envelope and that every
metric name in the snapshot is documented. The `provenance` block every
bench report carries (git SHA, compiler, build type, job counts —
docs/OBSERVABILITY.md "Report provenance") is validated for required keys
and types. Reports produced by the experiment-fleet runner
(docs/RUNNER.md) additionally carry `fleet`, `trials` and `aggregate`
sections; when present these are validated too (fleet run parameters,
fingerprint format, per-path summary statistics).
A `results.compose_cache` section (benches driving the subtree-interface
memoization) is validated for counter types and hit-rate range.
perf_fleet_scale reports (the multi-tenant control plane,
docs/FLEET.md) get their `results.fleet` ladder checked: per-size
fingerprint format, per-shard-config consistency and throughput fields.
perf_rt_dispatch reports (the event-loop microbench, docs/RUNTIME.md)
get their `results.rt` block checked: positive throughput rates, a
zero `task_allocs` (the allocation-free event-core contract) and a
well-formed determinism fingerprint.
For each `.jsonl` trace: verifies every line parses, every event type is
documented, and any `trial` shard tag is a non-negative integer. Exits
non-zero listing anything undocumented, so the doc and the code cannot
drift apart silently.
"""
import json
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOC = ROOT / "docs" / "OBSERVABILITY.md"


def documented_names(doc_text):
    """Backtick-quoted identifiers in the doc: metric names + event types."""
    metrics = set(re.findall(r"`(harp\.[a-z0-9_.]+)`", doc_text))
    # Event types are the first backticked token of each catalog table row.
    events = set(re.findall(r"^\| `([a-z_]+)` \|", doc_text, re.MULTILINE))
    return metrics, events


FLEET_KEYS = ("trials", "jobs", "base_seed", "fingerprint", "wall_seconds")
SUMMARY_KEYS = ("count", "mean", "stddev", "min", "max", "median", "p95",
                "ci95")
COMPOSE_CACHE_COUNTERS = ("hits", "misses", "invalidations")


def check_compose_cache(path, section, problems):
    """Validates a results.compose_cache summary (emitted by benches that
    drive the subtree-interface memoization, docs/PERFORMANCE.md): the
    three running totals must be non-negative integers and hit_rate a
    fraction in [0, 1]."""
    for key in COMPOSE_CACHE_COUNTERS:
        value = section.get(key)
        if not (isinstance(value, int) and not isinstance(value, bool)
                and value >= 0):
            problems.append(f"{path}: compose_cache.{key} is {value!r}, "
                            "expected a non-negative integer")
    rate = section.get("hit_rate")
    if not (isinstance(rate, (int, float)) and not isinstance(rate, bool)
            and 0.0 <= rate <= 1.0):
        problems.append(f"{path}: compose_cache.hit_rate is {rate!r}, "
                        "expected a number in [0, 1]")
    unknown = set(section) - set(COMPOSE_CACHE_COUNTERS) - {"hit_rate"}
    for key in sorted(unknown):
        problems.append(f"{path}: compose_cache has undocumented key "
                        f"'{key}'")


PROVENANCE_STR_KEYS = ("git_sha", "compiler", "compiler_version",
                       "build_type")
PROVENANCE_INT_KEYS = ("jobs", "hw_threads")


def check_provenance(path, prov, problems):
    """Validates a report's provenance block: which checkout, compiler and
    build type produced the numbers, so a report is never ambiguous about
    its origin."""
    for key in PROVENANCE_STR_KEYS:
        value = prov.get(key)
        if not (isinstance(value, str) and value):
            problems.append(f"{path}: provenance.{key} is {value!r}, "
                            "expected a non-empty string")
    for key in PROVENANCE_INT_KEYS:
        value = prov.get(key)
        if not (isinstance(value, int) and not isinstance(value, bool)
                and value >= 0):
            problems.append(f"{path}: provenance.{key} is {value!r}, "
                            "expected a non-negative integer")
    unknown = set(prov) - set(PROVENANCE_STR_KEYS) - set(PROVENANCE_INT_KEYS)
    for key in sorted(unknown):
        problems.append(f"{path}: provenance has undocumented key '{key}'")


FLEET_SCALE_RATE_KEYS = ("tenants_per_sec", "ops_per_sec")


def check_fleet_scale(path, section, problems):
    """Validates a perf_fleet_scale results.fleet ladder (docs/FLEET.md):
    every tenants_<F> entry carries a well-formed fingerprint, each
    shards_<S> config repeats it exactly (shard-count invariance is part
    of the report, not just the bench's internal assertion) and reports
    positive throughput numbers."""
    if not section:
        problems.append(f"{path}: perf_fleet_scale report has no "
                        "results.fleet entries")
    for size_key, entry in sorted(section.items()):
        if not re.fullmatch(r"tenants_\d+", size_key):
            problems.append(f"{path}: results.fleet key '{size_key}' does "
                            "not match tenants_<F>")
            continue
        fingerprint = entry.get("fingerprint", "")
        if not re.fullmatch(r"[0-9a-f]{16}", str(fingerprint)):
            problems.append(f"{path}: fleet.{size_key}.fingerprint "
                            f"{fingerprint!r} is not 16 lowercase hex "
                            "digits")
        configs = [k for k in entry if re.fullmatch(r"shards_\d+", k)]
        if len(configs) < 2:
            problems.append(f"{path}: fleet.{size_key} has {len(configs)} "
                            "shards_<S> configs, expected at least 2")
        for cfg_key in sorted(configs):
            cfg = entry[cfg_key]
            if cfg.get("fingerprint") != fingerprint:
                problems.append(
                    f"{path}: fleet.{size_key}.{cfg_key}.fingerprint "
                    f"{cfg.get('fingerprint')!r} differs from the size's "
                    f"fingerprint {fingerprint!r} (shard-count invariance)")
            for rate in FLEET_SCALE_RATE_KEYS:
                value = cfg.get(rate)
                if not (isinstance(value, (int, float))
                        and not isinstance(value, bool) and value > 0):
                    problems.append(
                        f"{path}: fleet.{size_key}.{cfg_key}.{rate} is "
                        f"{value!r}, expected a positive number")
        if not isinstance(entry.get("scaling_1_to_8"), (int, float)):
            problems.append(f"{path}: fleet.{size_key}.scaling_1_to_8 is "
                            f"{entry.get('scaling_1_to_8')!r}, expected a "
                            "number")


RT_DISPATCH_RATE_KEYS = ("events_per_sec", "timer_ops_per_sec",
                         "msgs_per_sec")
RT_DISPATCH_COUNT_KEYS = ("rounds", "task_events", "timer_ops",
                          "churn_ops_per_round", "runtime_msgs",
                          "task_allocs")


def check_rt_dispatch(path, section, problems):
    """Validates a perf_rt_dispatch results.rt block (docs/RUNTIME.md):
    the three throughput rates must be positive numbers, the workload
    counts non-negative integers, and the combined determinism
    fingerprint 16 lowercase hex digits (the bench itself checks the
    exact value; this check pins the shape)."""
    for rate in RT_DISPATCH_RATE_KEYS:
        value = section.get(rate)
        if not (isinstance(value, (int, float))
                and not isinstance(value, bool) and value > 0):
            problems.append(f"{path}: rt.{rate} is {value!r}, expected a "
                            "positive number")
    for key in RT_DISPATCH_COUNT_KEYS:
        value = section.get(key)
        if not (isinstance(value, int) and not isinstance(value, bool)
                and value >= 0):
            problems.append(f"{path}: rt.{key} is {value!r}, expected a "
                            "non-negative integer")
    fingerprint = section.get("fingerprint", "")
    if not re.fullmatch(r"[0-9a-f]{16}", str(fingerprint)):
        problems.append(f"{path}: rt.fingerprint {fingerprint!r} is not 16 "
                        "lowercase hex digits")
    # The allocation-free contract: every steady-state round must run
    # without a single boxed task (docs/RUNTIME.md "Timer wheel & task
    # storage"). Exactly zero, not merely small — one boxed task on a hot
    # path multiplies into one malloc per event at scale.
    if section.get("task_allocs") != 0:
        problems.append(f"{path}: rt.task_allocs is "
                        f"{section.get('task_allocs')!r}, expected exactly "
                        "0 (hot paths must not box tasks)")
    unknown = (set(section) - set(RT_DISPATCH_RATE_KEYS)
               - set(RT_DISPATCH_COUNT_KEYS) - {"fingerprint"})
    for key in sorted(unknown):
        problems.append(f"{path}: results.rt has undocumented key '{key}'")


def check_fleet(path, report, problems):
    """Validates the fleet sections (docs/RUNNER.md 'Fleet report')."""
    fleet = report["fleet"]
    for key in FLEET_KEYS:
        if key not in fleet:
            problems.append(f"{path}: fleet section missing '{key}'")
    fingerprint = fleet.get("fingerprint", "")
    if not re.fullmatch(r"[0-9a-f]{16}", str(fingerprint)):
        problems.append(f"{path}: fleet.fingerprint {fingerprint!r} is not "
                        "16 lowercase hex digits")
    trials = report.get("trials")
    if not isinstance(trials, list):
        problems.append(f"{path}: fleet report missing 'trials' array")
    elif "trials" in fleet and len(trials) != fleet["trials"]:
        problems.append(f"{path}: trials array has {len(trials)} entries, "
                        f"fleet.trials says {fleet['trials']}")
    aggregate = report.get("aggregate")
    if not isinstance(aggregate, dict):
        problems.append(f"{path}: fleet report missing 'aggregate' object")
        aggregate = {}
    for dotted, summary in aggregate.items():
        missing = [k for k in SUMMARY_KEYS if k not in summary]
        if missing:
            problems.append(f"{path}: aggregate['{dotted}'] missing "
                            f"{', '.join(missing)}")
    n_trials = len(trials) if isinstance(trials, list) else 0
    print(f"{path}: fleet of {n_trials} trials, "
          f"{len(aggregate)} aggregated paths checked")


def check_report(path, metrics_doc, problems):
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    for key in ("schema", "experiment", "results", "metrics"):
        if key not in report:
            problems.append(f"{path}: missing top-level key '{key}'")
    if report.get("schema") != "harp-obs/1":
        problems.append(f"{path}: schema is {report.get('schema')!r}, "
                        "expected 'harp-obs/1'")
    if "provenance" in report:
        if isinstance(report["provenance"], dict):
            check_provenance(path, report["provenance"], problems)
        else:
            problems.append(f"{path}: provenance is not an object")
    if "fleet" in report:
        check_fleet(path, report, problems)
    if report.get("experiment") == "perf_fleet_scale":
        fleet_scale = report.get("results", {}).get("fleet")
        if isinstance(fleet_scale, dict):
            check_fleet_scale(path, fleet_scale, problems)
        else:
            problems.append(f"{path}: perf_fleet_scale report has no "
                            "results.fleet object")
    if report.get("experiment") == "perf_rt_dispatch":
        rt_section = report.get("results", {}).get("rt")
        if isinstance(rt_section, dict):
            check_rt_dispatch(path, rt_section, problems)
        else:
            problems.append(f"{path}: perf_rt_dispatch report has no "
                            "results.rt object")
    compose_cache = report.get("results", {}).get("compose_cache")
    if isinstance(compose_cache, dict):
        check_compose_cache(path, compose_cache, problems)
    elif compose_cache is not None:
        problems.append(f"{path}: results.compose_cache is not an object")
    snapshot = report.get("metrics", {})
    seen = 0
    for family in ("counters", "gauges", "histograms"):
        for name in snapshot.get(family, {}):
            seen += 1
            if name not in metrics_doc:
                problems.append(f"{path}: metric '{name}' ({family}) not "
                                f"documented in {DOC.name}")
    print(f"{path}: {seen} metrics checked")


def check_trace(path, events_doc, problems):
    seen = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                event = json.loads(line)
            except json.JSONDecodeError as err:
                problems.append(f"{path}:{lineno}: invalid JSON: {err}")
                continue
            seen += 1
            etype = event.get("type")
            if etype not in events_doc:
                problems.append(f"{path}:{lineno}: event type {etype!r} not "
                                f"documented in {DOC.name}")
            if "trial" in event and not (isinstance(event["trial"], int)
                                         and event["trial"] >= 0):
                problems.append(f"{path}:{lineno}: trial tag "
                                f"{event['trial']!r} is not a non-negative "
                                "integer")
    print(f"{path}: {seen} events checked")


def main(argv):
    if len(argv) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    metrics_doc, events_doc = documented_names(DOC.read_text(encoding="utf-8"))
    if not metrics_doc or not events_doc:
        print(f"error: could not extract catalogs from {DOC}", file=sys.stderr)
        return 2
    problems = []
    for arg in argv[1:]:
        if arg.endswith(".jsonl"):
            check_trace(arg, events_doc, problems)
        else:
            check_report(arg, metrics_doc, problems)
    for p in problems:
        print(f"error: {p}", file=sys.stderr)
    if problems:
        return 1
    print("schema check OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
