"""Summarize run records into one JSON document (a BENCH file).

    python3 perfbench/summarize.py [RUNS_DIR] > BENCH_label.json

Reads the records that run.py writes to .perfbench_out/runs/ (or
RUNS_DIR) and prints, per workload: the runs' context, the median,
quartiles and spread (interquartile range over median, as
statistics.quantiles(n=4) gives them) of every end-to-end metric over
the untraced runs, and the per-layer metrics of each traced run.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def summary(values):
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def main():
    runs_dir = sys.argv[1] if len(sys.argv) > 1 else os.path.join(
        os.path.dirname(HERE), ".perfbench_out", "runs")
    by_workload = {}
    for name in sorted(os.listdir(runs_dir)):
        with open(os.path.join(runs_dir, name), encoding="utf-8") as fh:
            record = json.load(fh)
        by_workload.setdefault(record["context"]["workload"], []) \
            .append(record)
    out = {}
    for workload, records in by_workload.items():
        plain = [r for r in records if "per_layer" not in r]
        traced = [r for r in records if "per_layer" in r]
        ctx = dict(records[0]["context"])
        ctx.pop("seed")
        ctx.pop("trace_overhead_s", None)
        entry = {"context": ctx,
                 "seeds": sorted({r["context"]["seed"] for r in records}),
                 "attempted": sum(r["attempted"] for r in records),
                 "failed": sum(r["failed"] for r in records),
                 "probe": sorted({r["probe"]["status"] for r in records})}
        if plain:
            entry["end_to_end"] = {
                key: summary([r["end_to_end"][key] for r in plain])
                for key in plain[0]["end_to_end"]}
            entry["raw_seconds"] = {
                key: summary([r["raw_seconds"][key] for r in plain])
                for key in plain[0]["raw_seconds"]}
        entry["traced"] = [{"seed": r["context"]["seed"],
                            "per_layer": r["per_layer"]} for r in traced]
        out[workload] = entry
    json.dump(out, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
