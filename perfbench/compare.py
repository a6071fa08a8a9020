#!/usr/bin/env python3
"""Compare benchmark records of a base and a new build, metric by metric.

    python3 perfbench/run.py --workload tig_solve --seed 3 --seconds 20 \\
        --trace 0 --record base-3.json            # repeat per seed, per build
    python3 perfbench/compare.py --base base-*.json --new new-*.json

Records come from `run.py ... --record PATH`.  Records whose host or build
fingerprints differ (CPU, ISA flags, core count, resolved evaluation
backends, OpenMP, pool size, compiler, build type) are refused: a
difference there is not a speed-up.  The git sha may differ.

For every workload and metric the report gives each side's median and
the change; with BENCHMARK.json's bound it flags a worsening beyond the
bound, and calls a metric unresolved when the base's own quartile spread
is wider than the bound.  Exit status: 0 no regression, 1 regression,
2 refused or bad input.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
HOST_KEYS = ("cpu", "isa", "nproc", "tig_backend", "dag_backend", "openmp",
             "pool_threads", "compiler", "build_type")


def load(paths):
    records = []
    for path in paths:
        with open(path) as f:
            records.append(json.load(f))
    return records


def host(record):
    return {k: record["fingerprint"].get(k) for k in HOST_KEYS}


def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args()

    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    metric_spec = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(args.base), load(args.new)

    reference = host(base[0])
    for record in base + new:
        if host(record) != reference:
            diff = {k: (reference[k], host(record)[k]) for k in HOST_KEYS
                    if reference[k] != host(record)[k]}
            print(f"refused: fingerprints differ: {diff}", file=sys.stderr)
            return 2

    def by_key(records):
        out = {}
        for r in records:
            if not r["result"]["correct"]:
                print(f"refused: a {r['workload']} record failed its checks", file=sys.stderr)
                sys.exit(2)
            key = (r["workload"], r["trace"])
            for name, m in r["result"]["metrics"].items():
                out.setdefault(key, {}).setdefault(name, []).append(m["value"])
        return out

    b, n = by_key(base), by_key(new)
    regressed = False
    print(f"{'workload':10} {'metric':28} {'base':>12} {'new':>12} {'change':>8}  verdict")
    for key in sorted(set(b) & set(n)):
        for name in sorted(set(b[key]) & set(n[key])):
            m = metric_spec.get(name)
            mb, mn = statistics.median(b[key][name]), statistics.median(n[key][name])
            change = (mn - mb) / abs(mb) if mb else 0.0
            verdict = ""
            if m is not None and "bound" in m:
                worse = change if m["better"] == "lower" else -change
                s = spread(b[key][name])
                if s is not None and s > m["bound"]:
                    verdict = "unresolved (base spread %.3f > bound)" % s
                elif worse > m["bound"]:
                    verdict = "REGRESSION beyond bound %.2f" % m["bound"]
                    regressed = True
                else:
                    verdict = "within bound %.2f" % m["bound"]
            print(f"{key[0]:10} {name:28} {mb:12.6g} {mn:12.6g} {change:+8.1%}  {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
