"""The extcalc benchmark: timed, checked query workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload zg_cohomology --seed 1 \
        --seconds 30 --trace 0

Workloads (see the wl_*.py modules for why each exists):
  zg_cohomology  `extcalc group-cohomology` through cli.main
  sheaf_ext      sheaf Ext (general and fast), internal hom, witness search
  abelian        Ext^1 classes, Baer sums, six-term sequences over Z
  all            every workload in turn, each in its own process

Every query starts from plain data generated from --seed and builds its
own extcalc objects inside its timed region, so no memo survives from
one query to the next.  One warm-up pass (which warms only the
interpreter) is followed by measured passes for --seconds; a query's
latency is its median over the measured passes, and the percentiles are
taken across queries.  Every answer of every pass is checked outside the
timed region, against an independent oracle where one exists and
otherwise against goldens.json.  Seed 1 is the default and the seed of
the traced baseline in baseline_seed.json (whose untraced figures span
ten seeds, as a regression check does); seed 2 is kept back for
re-checking claims on inputs no change was tuned on.

With --trace 1 one more pass runs with extcalc's public functions
wrapped (tracing.py) and the per-layer metrics are reported instead of the
end-to-end ones, with each layer's share of the traced wall time and the
tracing overhead (traced minus untraced wall_s, both host-scaled).

Each run also probes, in a child process with a fixed deadline, one
request the CLI accepts but is known to grind on; it is reported as
PASS/FAIL and is not a timed query.  The last line of standard output is
a JSON object with keys correct, attempted, failed and metrics; a record
of the run with its context goes to .perfbench_out/runs/.
"""

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import wl_abelian  # noqa: E402
import wl_sheaf  # noqa: E402
import wl_zg  # noqa: E402
from common import Raised  # noqa: E402

WORKLOADS = {m.NAME: m for m in (wl_zg, wl_sheaf, wl_abelian)}
PIN_SEED = 1
RECHECK_SEED = 2
SETUP_REPEATS = 7
WARMUP_S = 2.0
PROBE_DEADLINE_S = 4.0
PROBE_MEMORY_BYTES = 2 << 30

END_TO_END = (("wall_s", "s"), ("query_p50_s", "s"), ("query_p90_s", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))

# per-layer metrics taken from the trace: counters, then self times;
# `<layer>.self_s`, `.share` (over the traced wall time) and `.errors`
# are added for every layer
PER_LAYER_COUNTS = (
    "cli.calls", "groupring.group_cohomology.calls",
    "groupring.bar_resolution.calls", "groupring.bar_resolution.rank_total",
    "resolution.free_resolution.rank_total",
    "resolution.hom_complex.gens_total",
    "exactint.elim.calls", "exactint.elim.cells_in", "exactint.elim.nnz_in",
    "exactint.snf.calls", "exactint.snf.cells_in",
    "exactint.solver_build.calls", "exactint.solve.calls",
    "exactint.intmatrix.inits", "fpab.calls", "fpab.coords_of.calls",
    "ses.calls", "poset_sheaf.sheaf_ext.general.calls",
    "poset_sheaf.sheaf_ext.fast.calls",
    "poset_sheaf.presheaf_hom_group.builds", "poset_sheaf.coords_of.calls",
    "poset_sheaf.witness.candidates",
)
COUNT_ALIASES = {
    "poset_sheaf.presheaf_hom_group.builds":
        "poset_sheaf.presheaf_hom_group.calls",
    "poset_sheaf.witness.candidates": "poset_sheaf.witness.calls",
}
PER_LAYER_SELF = (
    "groupring.bar_resolution", "groupring.context",
    "resolution.free_resolution", "resolution.hom_complex",
    "resolution.cohomology_data", "resolution.lift_chain_map",
    "exactint.elim", "exactint.snf", "exactint.solver_build",
    "exactint.solve", "fpab.hom_group", "fpab.kernel",
    "poset_sheaf.sheaf_ext.general", "poset_sheaf.sheaf_ext.fast",
    "poset_sheaf.context", "poset_sheaf.witness_search",
)


def per_layer_units():
    """Unit of every per-layer metric, in the order they are reported."""
    units = {name: "count" for name in PER_LAYER_COUNTS}
    units["exactint.elim.max_bits_out"] = "bits"
    units.update({f"{name}.self_s": "s" for name in PER_LAYER_SELF})
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "ratio"
        units[f"{layer}.errors"] = "count"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


# ---------------------------------------------------------------- set-up

def load_extcalc():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "extcalc", "__init__.py")):
        sys.stderr.write(f"error: no extcalc sources under {src}\n")
        sys.exit(2)
    sys.path.insert(0, src)
    import extcalc
    import extcalc.cli  # noqa: F401  (binds every layer module)
    if not os.path.abspath(extcalc.__file__).startswith(src + os.sep):
        sys.stderr.write(f"error: imported extcalc from {extcalc.__file__}, "
                         f"not from {src}\n")
        sys.exit(2)
    return extcalc


def load_goldens():
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        return json.load(fh)


def setup(workload, seed, workdir):
    """Import, seeded input generation and CLI documents: all before query 1."""
    extcalc = load_extcalc()
    mod = WORKLOADS[workload]
    data = mod.generate(seed)
    items = mod.prepare(data, workdir)
    return extcalc, mod, data, items


def measure_setup(workload, seed):
    """Median host-scaled wall time of fresh processes that set up and exit.

    Returns (median scaled, median raw) seconds.
    """
    calibrator = hostspeed.Calibrator()
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        calibrator.sample(force=True)
        start = time.perf_counter()
        subprocess.run([sys.executable, os.path.abspath(__file__),
                        "--setup-only", "--workload", workload,
                        "--seed", str(seed)], cwd=ROOT, check=True)
        end = time.perf_counter()
        calibrator.sample(force=True)
        raw.append(end - start)
        scaled.append(raw[-1] * calibrator.scale(start, end))
    return statistics.median(scaled), statistics.median(raw)


# ---------------------------------------------------------------- passes

def run_pass(mod, extcalc, data, items, tracer=None, budget=None,
             calibrator=None):
    """Answer every query once (or until `budget` seconds have passed).

    Returns the pass wall time, each query's (start, end) and the
    answers.  With a calibrator, reference samples are taken between
    queries (outside every query's interval).
    """
    intervals, results = [], {}
    clock = time.perf_counter
    start = clock()
    for q, item in zip(data["queries"], items):
        if budget is not None and clock() - start > budget:
            break
        if calibrator is not None:
            calibrator.sample(force=not intervals)
        if tracer is not None:
            tracer.query = q["id"]
        t0 = clock()
        try:
            answer = mod.run(extcalc, item)
        except Exception as exc:  # a failed query is counted, not fatal
            answer = Raised(f"raised {type(exc).__name__}: {exc}")
        intervals.append((t0, clock()))
        results[q["id"]] = answer
    if calibrator is not None:
        calibrator.sample(force=True)
    return clock() - start, intervals, results


def nearest_rank(values, p):
    ordered = sorted(values)
    rank = math.ceil(p * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


def measure(mod, extcalc, data, items, goldens, seconds):
    """Warm-up, then measured passes for `seconds`; checks every answer.

    The warm-up answers queries in list order for WARMUP_S: it warms the
    interpreter only, since every query rebuilds its objects.  Measured
    passes continue while another one is expected to fit in `seconds`
    (at least one always runs).
    """
    start = time.perf_counter()
    reasons = {}
    attempted = failed = 0
    walls, raw, scaled = [], [], []
    for measured in itertools.count():
        if measured > 1 and time.perf_counter() - start \
                + statistics.median(walls) > seconds:
            break
        calibrator = hostspeed.Calibrator()
        wall, intervals, results = run_pass(
            mod, extcalc, data, items, budget=None if measured else WARMUP_S,
            calibrator=calibrator)
        failures = mod.check(data, results, goldens)
        attempted += len(results)
        failed += len(failures)
        for qid, why in failures.items():
            reasons.setdefault(qid, why)
        if measured:
            walls.append(wall)
            raw.append([t1 - t0 for t0, t1 in intervals])
            scaled.append([(t1 - t0) * calibrator.scale(t0, t1)
                           for t0, t1 in intervals])
    return {"walls": walls, "attempted": attempted, "failed": failed,
            "failures": reasons,
            "raw": [statistics.median(col) for col in zip(*raw)],
            "latency": [statistics.median(col) for col in zip(*scaled)]}


def traced_pass(mod, extcalc, data, items, goldens, spans_path):
    """One pass with tracing on.

    trace.wall_s is the raw time inside queries, the base of every
    layer's share; the host-scaled time of the same queries is returned
    as well, for the tracing overhead.
    """
    tracer = tracing.Tracer()
    calibrator = hostspeed.Calibrator()
    tracer.install(extcalc)
    try:
        _, intervals, results = run_pass(mod, extcalc, data, items, tracer,
                                         calibrator=calibrator)
    finally:
        tracer.uninstall()
    wall = sum(t1 - t0 for t0, t1 in intervals)
    scaled = sum((t1 - t0) * calibrator.scale(t0, t1)
                 for t0, t1 in intervals)
    failures = mod.check(data, results, goldens)
    selfs = tracer.self_times()
    metrics = {name: tracer.counts[COUNT_ALIASES.get(name, name)]
               for name in PER_LAYER_COUNTS + ("exactint.elim.max_bits_out",)}
    metrics["fpab.calls"] = sum(v for k, v in tracer.counts.items()
                                if k.startswith("fpab.")
                                and k.endswith(".calls"))
    for name in PER_LAYER_SELF:
        metrics[f"{name}.self_s"] = selfs[name]
    for layer in tracing.LAYERS:
        layer_self = sum(v for k, v in selfs.items()
                         if k.split(".", 1)[0] == layer)
        metrics[f"{layer}.self_s"] = layer_self
        metrics[f"{layer}.share"] = layer_self / wall
        metrics[f"{layer}.errors"] = tracer.counts[f"{layer}.errors"]
    metrics["trace.wall_s"] = wall
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.dump(spans_path)
    other = {"(benchmark)": wall - tracer.top_level_s(),
             "(counting)": selfs["trace.measure"]}
    return metrics, len(intervals), failures, other, scaled


# ----------------------------------------------------------------- probe

def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS,
                       (PROBE_MEMORY_BYTES, PROBE_MEMORY_BYTES))


def probe(workdir):
    """group-cohomology for S3 at --n 5: finish with H^5 = 0 or refuse (5)."""
    os.makedirs(workdir, exist_ok=True)
    doc = os.path.join(workdir, "probe_S3.json")
    with open(doc, "w", encoding="utf-8") as fh:
        json.dump(wl_zg.document("S3", 1), fh)
    argv = [sys.executable, "-m", "extcalc", "group-cohomology", "--input",
            doc, "--G", "S3", "--n", "5", "--format", "machine"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL,
                            preexec_fn=_limit_memory)
    try:
        out, _ = proc.communicate(timeout=PROBE_DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return "FAIL", f"no answer within {PROBE_DEADLINE_S:g} s"
    elapsed = time.perf_counter() - start
    if proc.returncode == 5:
        return "PASS", f"refused up front in {elapsed:.2f} s"
    if proc.returncode == 0 and json.loads(out)["result"] == "0":
        return "PASS", f"H^5(S3; Z) = 0 in {elapsed:.2f} s"
    return "FAIL", f"exit code {proc.returncode} after {elapsed:.2f} s"


# --------------------------------------------------------------- context

def context(workload, seed, n_queries):
    rev = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30)
        rev = got.stdout.strip() or rev
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "extcalc")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_revision": rev, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu_model": cpu, "workload": workload, "seed": seed,
            "queries": n_queries}


# ------------------------------------------------------------------ main

def run_workload(args):
    workdir = os.path.join(OUT, "docs", f"{args.workload}-{args.seed}")
    setup_s, setup_raw = measure_setup(args.workload, args.seed)
    extcalc, mod, data, items = setup(args.workload, args.seed, workdir)
    goldens = load_goldens()[args.workload]
    m = measure(mod, extcalc, data, items, goldens, args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n = len(data["queries"])
    e2e, raw = {}, {}
    for out, lat, setup_time in ((e2e, m["latency"], setup_s),
                                 (raw, m["raw"], setup_raw)):
        out["wall_s"] = sum(lat)
        out["query_p50_s"] = statistics.median(lat)
        out["query_p90_s"], beyond = nearest_rank(lat, 0.9)
        out["setup_s"] = setup_time
    e2e["peak_rss_mb"] = rss_mb
    attempted, failed = m["attempted"], m["failed"]

    print(f"workload {args.workload} ({mod.WHY})")
    print(f"seed {args.seed}: {n} queries, closed loop, one caller; "
          f"{len(m['walls'])} measured passes after a warm-up; "
          f"host-scaled seconds (raw seconds in brackets)")
    for name, unit in END_TO_END[:4]:
        print(f"  {name:<12} {e2e[name]:.6f} {unit}  ({raw[name]:.6f})")
    print(f"  ({beyond} of {n} queries lie above query_p90_s; setup_s is "
          f"the median of {SETUP_REPEATS} fresh processes)")
    print(f"  failed_frac  {failed / attempted:.4f} ratio  "
          f"({failed} of {attempted} attempted)")
    print(f"  peak_rss_mb  {rss_mb:.1f} MB")
    for qid, why in sorted(m["failures"].items())[:10]:
        print(f"  FAILED query {qid}: {why}")

    record = {"context": context(args.workload, args.seed, n),
              "end_to_end": e2e, "raw_seconds": raw,
              "failed_frac": failed / attempted,
              "attempted": attempted, "failed": failed,
              "pass_walls_s": m["walls"], "query_latency_s": m["latency"],
              "query_latency_raw_s": m["raw"],
              "failures": {str(k): v for k, v in m["failures"].items()}}
    metrics = {name: {"value": e2e[name], "unit": unit}
               for name, unit in END_TO_END}

    if args.trace:
        spans = os.path.join(OUT, "spans",
                             f"{args.workload}-{args.seed}.tsv")
        layer, count, tfail, other, scaled = traced_pass(
            mod, extcalc, data, items, goldens, spans)
        attempted += count
        failed += len(tfail)
        layer["trace.overhead_s"] = scaled - e2e["wall_s"]
        record["context"]["trace_overhead_s"] = layer["trace.overhead_s"]
        record["per_layer"] = layer
        units = per_layer_units()
        metrics = {name: {"value": layer[name], "unit": units[name]}
                   for name in units}
        print_layers(layer, e2e["wall_s"], scaled, other)

    status, detail = probe(workdir)
    print(f"probe group-cohomology S3 --n 5 (deadline "
          f"{PROBE_DEADLINE_S:g} s): {status} ({detail})")
    record["probe"] = {"name": "group_cohomology_S3_n5", "status": status,
                       "detail": detail}
    runs = os.path.join(OUT, "runs")
    os.makedirs(runs, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-" \
           f"{time.time_ns()}.json"
    with open(os.path.join(runs, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def print_layers(layer, untraced, traced, other):
    wall = layer["trace.wall_s"]
    print(f"traced pass: {wall:.4f} s raw; host-scaled {traced:.4f} s "
          f"traced, {untraced:.4f} s untraced: tracing overhead "
          f"{layer['trace.overhead_s']:.4f} s")
    print("  layer         self_s    share of traced wall_s")
    for name in tracing.LAYERS:
        print(f"  {name:<12} {layer[name + '.self_s']:9.4f}  "
              f"{layer[name + '.share']:7.1%}")
    for name, value in other.items():
        print(f"  {name:<12} {value:9.4f}  {value / wall:7.1%}")
    for name, value in sorted(layer.items()):
        if not name.endswith(".share"):
            print(f"  {name:<46} {value:.6g}" if isinstance(value, float)
                  else f"  {name:<46} {value}")


def run_all(args):
    """Each workload in its own process; prints one combined table."""
    rows, attempted, failed, metrics = [], 0, 0, {}
    for name in WORKLOADS:
        got = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)], cwd=ROOT, check=True,
            capture_output=True, text=True)
        lines = got.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}.{metric}"] = v
        rows.append((name, result))
    if not args.trace:
        print(f"{'workload':<15}" + "".join(f"{m:>17}" for m, _ in END_TO_END)
              + f"{'failed_frac':>17}")
        for name, result in rows:
            print(f"{name:<15}" + "".join(
                f"{result['metrics'][m]['value']:>12.4f} {u:<4}"
                for m, u in END_TO_END)
                + f"{result['failed'] / result['attempted']:>12.4f} ratio")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        setup(args.workload, args.seed,
              os.path.join(OUT, "setup", args.workload))
        return
    load_extcalc()  # refuse early, before any child process starts
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
