"""Tests of the benchmark itself (not collected by the repository's suite).

    python3 -m pytest -q perfbench/selftest.py

They check that inputs depend only on the seed, that the oracles reject
wrong answers, that answers at the current commit all pass, and that two
traced runs with the same seed give identical per-layer counts.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import wl_abelian  # noqa: E402
import wl_zg  # noqa: E402
from common import Raised  # noqa: E402

COUNT_UNITS = ("count", "bits")


def test_inputs_depend_only_on_the_seed():
    for mod in run.WORKLOADS.values():
        first = json.dumps(mod.generate(run.PIN_SEED), sort_keys=True)
        again = json.dumps(mod.generate(run.PIN_SEED), sort_keys=True)
        other = json.dumps(mod.generate(run.RECHECK_SEED), sort_keys=True)
        assert first == again
        assert first != other
        assert len(mod.generate(run.PIN_SEED)["queries"]) >= 100


def test_closed_forms():
    assert wl_zg.cyclic_cohomology(6, "Z", 4) == "Z/6"
    assert wl_zg.cyclic_cohomology(6, "Z", 3) == "0"
    assert wl_zg.cyclic_cohomology(6, "Z/4", 3) == "Z/2"
    assert wl_zg.cyclic_cohomology(4, "sign", 1) == "Z/2"
    assert wl_zg.cyclic_cohomology(5, "sign", 2) == "Z/5"
    assert wl_abelian.canonical(0, [2, 3, 4]) == [0, [2, 12]]
    assert wl_abelian.ext1_form((0, (4,)), (0, (6,))) == [0, [2]]
    assert wl_abelian.hom_form((1, (2,)), (1, (4,))) == [1, [2, 4]]


def _answers(workload, seed):
    extcalc, mod, data, items = run.setup(
        workload, seed, os.path.join(run.OUT, "selftest", workload))
    _, _, results = run.run_pass(mod, extcalc, data, items)
    return mod, data, results


def test_oracles_reject_wrong_answers():
    goldens = run.load_goldens()
    for workload in run.WORKLOADS:
        mod, data, results = _answers(workload, run.RECHECK_SEED)
        assert mod.check(data, results, goldens[workload]) == {}
        broken = dict(results)
        for qid in list(broken)[:5]:
            broken[qid] = Raised("injected")
        assert len(mod.check(data, broken, goldens[workload])) >= 5
    mod, data, results = _answers("abelian", run.RECHECK_SEED)
    q = next(q for q in data["queries"] if q["kind"] == "ext_n2")
    results[q["id"]] = [0, [2]]
    assert q["id"] in mod.check(data, results, {})


def _traced_counts(workload):
    got = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(run.PIN_SEED), "--seconds", "0",
         "--trace", "1"], cwd=run.ROOT, check=True, capture_output=True,
        text=True)
    result = json.loads(got.stdout.strip().splitlines()[-1])
    assert result["correct"]
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in COUNT_UNITS}


def test_traced_counts_repeat_exactly():
    for workload in run.WORKLOADS:
        first = _traced_counts(workload)
        assert first == _traced_counts(workload), workload
        assert sorted(first) == sorted(
            k for k, u in run.per_layer_units().items() if u in COUNT_UNITS)
