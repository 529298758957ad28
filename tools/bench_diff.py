#!/usr/bin/env python3
"""Compare two bench JSON records (see bench/perf_core.cpp and
bench/ext_multitenant.cpp).

Usage:
  tools/bench_diff.py BASELINE.json CURRENT.json
      Print a per-scenario comparison table. Throughput units
      (events/s, flows/s, batches/s, queries/s, requests/s, tasks/s,
      tables/s) count higher-is-better; everything else (wall seconds,
      latencies, slowdown ratios) counts lower-is-better. The "speedup" column is >1 when CURRENT is
      faster either way.

  tools/bench_diff.py --merge BASELINE.json CURRENT.json [-o OUT.json]
      Emit the combined baseline record committed as BENCH_<name>.json:
      both raw records plus the speedup map.

  tools/bench_diff.py --threshold 0.99 BASELINE.json CURRENT.json
      Gate: exit 3 if any common key's speedup falls below the ratio.
      --threshold-key KEY=RATIO (repeatable) overrides the floor for
      one key — the standard use is a looser gate for p99 latencies,
      which are noisier than medians even in a deterministic bench.
      --threshold-key without --threshold gates only the named keys.

  tools/bench_diff.py --selftest
      Run the built-in unit checks (used by CI) and exit 0 on success.

Both records must come from the same bench (matching "bench" keys) and
share at least one scenario name; anything else is a usage error and
exits non-zero with a message. Without --threshold* a successful
comparison always exits 0: the harness tracks performance, it does not
gate on it (timings on shared CI runners are too noisy to fail a build
over). Deterministic benches (virtual-time records like BENCH_service)
are the exception — their ratios are exact, so CI gates them with
--threshold.

Exit codes: 0 ok, 2 usage error, 3 threshold regression, 4 baseline
record missing (so CI can tell "no baseline yet" from "regression").
"""

import argparse
import json
import os
import sys
import tempfile

HIGHER_IS_BETTER = {"events/s", "flows/s", "batches/s", "queries/s",
                    "requests/s", "tasks/s", "tables/s"}

EXIT_REGRESSION = 3
EXIT_NO_BASELINE = 4


def load(path, expect_bench=None):
    with open(path) as fh:
        record = json.load(fh)
    bench = record.get("bench")
    if not bench:
        sys.exit(f"{path}: not a bench record (no \"bench\" key)")
    if not isinstance(record.get("results"), list):
        sys.exit(f"{path}: not a bench record (no \"results\" list)")
    if expect_bench is not None and bench != expect_bench:
        sys.exit(f"{path}: bench \"{bench}\" does not match "
                 f"\"{expect_bench}\" — records from different "
                 "benches cannot be compared")
    return record


def by_name(record):
    return {r["name"]: r for r in record["results"]}


def speedups(baseline, current):
    """name -> how much faster CURRENT is (>1 = faster)."""
    base, cur = by_name(baseline), by_name(current)
    out = {}
    for name in base:
        if name not in cur:
            continue
        b, c = base[name], cur[name]
        if b["unit"] != c["unit"] or not b["value"] or not c["value"]:
            continue
        if b["unit"] in HIGHER_IS_BETTER:
            out[name] = c["value"] / b["value"]
        else:
            out[name] = b["value"] / c["value"]
    return out


def geomean(ratios):
    """Geometric mean of a speedup map; None when it is empty.

    The arithmetic mean of ratios over-weights blowups (one 10x key
    drowns nine 0.5x regressions); the geometric mean is symmetric in
    log space, so "half as fast" and "twice as fast" cancel exactly.
    """
    if not ratios:
        return None
    product = 1.0
    for value in ratios.values():
        product *= value
    return product ** (1.0 / len(ratios))


def check_common(baseline, current):
    """Exit non-zero when the records share no scenario names."""
    common = set(by_name(baseline)) & set(by_name(current))
    if not common:
        sys.exit("error: the records share no common benchmark keys "
                 f"(baseline has {sorted(by_name(baseline))}, "
                 f"current has {sorted(by_name(current))}) — "
                 "nothing to compare")


def parse_threshold_keys(pairs):
    """["p99=0.9", ...] -> {"p99": 0.9}; exits 2 on malformed pairs."""
    out = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        try:
            if not sep or not key:
                raise ValueError
            out[key] = float(value)
        except ValueError:
            sys.exit(f"error: --threshold-key expects KEY=RATIO, got "
                     f"\"{pair}\"")
    return out


def gate(ratios, threshold, per_key):
    """[(name, ratio, floor)] for every key below its floor.

    A key's floor is its --threshold-key override if present, else the
    global --threshold (None = ungated). Keys in per_key but absent
    from ratios are ignored: a gate on a key the bench no longer
    reports should not pass silently forever, but dropping a scenario
    already changes the committed record, which review catches.
    """
    regressions = []
    for name in sorted(ratios):
        floor = per_key.get(name, threshold)
        if floor is not None and ratios[name] < floor:
            regressions.append((name, ratios[name], floor))
    return regressions


def fmt(value, unit):
    if unit in HIGHER_IS_BETTER and value >= 1000:
        return f"{value:,.0f}"
    return f"{value:,.3f}"


def print_table(baseline, current):
    base, cur = by_name(baseline), by_name(current)
    ratios = speedups(baseline, current)
    rows = [("scenario", "unit", "baseline", "current", "speedup")]
    for name, b in base.items():
        c = cur.get(name)
        rows.append((
            name,
            b["unit"],
            fmt(b["value"], b["unit"]),
            fmt(c["value"], c["unit"]) if c else "-",
            f"{ratios[name]:.2f}x" if name in ratios else "-",
        ))
    for name in cur:
        if name not in base:
            rows.append((name, cur[name]["unit"], "-",
                         fmt(cur[name]["value"], cur[name]["unit"]), "-"))
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for i, row in enumerate(rows):
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
        if i == 0:
            print("-" * (sum(widths) + 2 * (len(widths) - 1)))
    mean = geomean(ratios)
    if mean is not None:
        print(f"geomean speedup over {len(ratios)} compared "
              f"key(s): {mean:.3f}x")


def selftest():
    """Unit checks for the pure helpers plus the two exit paths."""
    rec = lambda bench, results: {"bench": bench, "results": results}
    row = lambda name, unit, value: {
        "name": name, "unit": unit, "value": value}

    # Higher-is-better vs lower-is-better orientation.
    base = rec("t", [row("tput", "events/s", 100.0),
                     row("rate", "batches/s", 2.0),
                     row("wall", "s", 10.0),
                     row("slow", "x", 2.0)])
    cur = rec("t", [row("tput", "events/s", 200.0),
                    row("rate", "batches/s", 1.0),
                    row("wall", "s", 5.0),
                    row("slow", "x", 4.0)])
    got = speedups(base, cur)
    assert got == {"tput": 2.0, "rate": 0.5, "wall": 2.0,
                   "slow": 0.5}, got

    # Mismatched units and zero values are skipped, missing names too.
    base = rec("t", [row("a", "s", 1.0), row("b", "s", 0.0),
                     row("gone", "s", 1.0)])
    cur = rec("t", [row("a", "events/s", 1.0), row("b", "s", 1.0)])
    assert speedups(base, cur) == {}

    # queries/s counts higher-is-better like the other rates.
    base = rec("t", [row("qps", "queries/s", 10.0)])
    cur = rec("t", [row("qps", "queries/s", 5.0)])
    assert speedups(base, cur) == {"qps": 0.5}

    # Geometric mean: symmetric in log space, empty map is None.
    assert geomean({}) is None
    assert geomean({"a": 4.0}) == 4.0
    assert abs(geomean({"a": 2.0, "b": 0.5}) - 1.0) < 1e-12
    assert abs(geomean({"a": 2.0, "b": 2.0, "c": 2.0}) - 2.0) < 1e-12
    # 10x blowup + two halvings: arithmetic mean would say 3.67x
    # faster; the geomean correctly reports ~1.36x.
    assert abs(geomean({"a": 10.0, "b": 0.5, "c": 0.5})
               - (10.0 * 0.5 * 0.5) ** (1.0 / 3.0)) < 1e-12

    # Threshold gate: global floor, per-key override, ungated default.
    ratios = {"p50": 1.0, "p99": 0.94, "qps": 0.985}
    assert gate(ratios, None, {}) == []
    assert gate(ratios, 0.99, {}) == [("p99", 0.94, 0.99),
                                      ("qps", 0.985, 0.99)]
    assert gate(ratios, 0.99, {"p99": 0.9, "qps": 0.9}) == []
    assert gate(ratios, None, {"p99": 0.95}) == [("p99", 0.94, 0.95)]
    assert gate(ratios, None, {"gone": 0.99}) == []

    # --threshold-key parsing: KEY=RATIO, malformed pairs exit.
    assert parse_threshold_keys(["a=0.9", "b=1.5"]) == {"a": 0.9,
                                                        "b": 1.5}
    for bad_pair in ("a", "=0.9", "a=ratio"):
        try:
            parse_threshold_keys([bad_pair])
        except SystemExit:
            pass
        else:
            raise AssertionError(f"{bad_pair!r} did not exit")

    # check_common: overlapping names pass, disjoint names exit 2.
    check_common(rec("t", [row("a", "s", 1.0)]),
                 rec("t", [row("a", "s", 2.0)]))
    try:
        check_common(rec("t", [row("a", "s", 1.0)]),
                     rec("t", [row("b", "s", 2.0)]))
    except SystemExit as e:
        assert "no common benchmark keys" in str(e.code), e.code
    else:
        raise AssertionError("disjoint records did not exit")

    # load: bench mismatch and malformed records exit with a message.
    def write_tmp(obj):
        fd, path = tempfile.mkstemp(suffix=".json")
        with os.fdopen(fd, "w") as fh:
            json.dump(obj, fh)
        return path

    good = write_tmp(rec("perf_core", []))
    other = write_tmp(rec("multitenant", []))
    bad = write_tmp({"results": []})
    try:
        loaded = load(good)
        assert loaded["bench"] == "perf_core"
        for path, expect in ((other, "perf_core"), (bad, None)):
            try:
                load(path, expect_bench=expect)
            except SystemExit:
                pass
            else:
                raise AssertionError(f"{path}: load did not exit")
    finally:
        for path in (good, other, bad):
            os.unlink(path)

    print("bench_diff selftest: OK")


def main():
    parser = argparse.ArgumentParser(
        description="compare bench JSON records")
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--merge", action="store_true",
                        help="emit the combined baseline record")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in unit checks")
    parser.add_argument("-o", "--output", default=None,
                        help="write merged record here (default stdout)")
    parser.add_argument("--threshold", type=float, default=None,
                        help="exit 3 if any common key's speedup falls "
                             "below this ratio")
    parser.add_argument("--threshold-key", action="append", default=[],
                        metavar="KEY=RATIO",
                        help="per-key floor overriding --threshold "
                             "(repeatable)")
    args = parser.parse_args()

    if args.selftest:
        selftest()
        return
    if not args.baseline or not args.current:
        parser.error("baseline and current records are required")
    per_key = parse_threshold_keys(args.threshold_key)

    if not os.path.exists(args.baseline):
        print(f"{args.baseline}: baseline record missing",
              file=sys.stderr)
        sys.exit(EXIT_NO_BASELINE)
    baseline = load(args.baseline)
    current = load(args.current, expect_bench=baseline["bench"])
    check_common(baseline, current)
    if args.merge:
        merged = {
            "bench": baseline["bench"],
            "mode": current.get("mode"),
            "baseline": baseline,
            "current": current,
            "speedup": {k: round(v, 3)
                        for k, v in speedups(baseline, current).items()},
        }
        text = json.dumps(merged, indent=2) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    else:
        print_table(baseline, current)

    if args.threshold is not None or per_key:
        regressions = gate(speedups(baseline, current),
                           args.threshold, per_key)
        for name, ratio, floor in regressions:
            print(f"REGRESSION: {name} speedup {ratio:.3f} < floor "
                  f"{floor:.3f}", file=sys.stderr)
        if regressions:
            sys.exit(EXIT_REGRESSION)
        print("threshold gate: OK")


if __name__ == "__main__":
    main()
