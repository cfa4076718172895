"""Regenerate goldens.json: answers that have no independent oracle.

    python3 perfbench/pin_goldens.py

The pinned answers are keyed by input, not by seed, so they cover every
seed: H^n(G; M) for G in V4 and S3 (cyclic groups have closed forms),
every coefficient module and every degree the zg_cohomology workload
asks for, and witness_search on every (site, c) of the sheaf_ext
workload.  They were pinned once and are compared as canonical forms;
rerun this only to extend the pool, never to make a failing answer pass.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import wl_sheaf  # noqa: E402
import wl_zg  # noqa: E402


def zg_goldens(extcalc):
    out = {}
    for g in ("V4", "S3"):
        masks = (1, 2, 3) if g == "V4" else (1,)
        for mask in masks:
            doc = extcalc.cli.parse_document(json.dumps(
                wl_zg.document(g, mask)))
            G = doc.finite_groups[g]
            modules = {"sign": doc.gmodules["sgn"]}
            if mask == 1:
                modules["Z"] = extcalc.groupring.trivial_module(
                    G, extcalc.fpab.free_abelian(1))
                modules["Z/2"] = doc.gmodules["Z2"]
                modules["Z/3"] = doc.gmodules["Z3"]
            for coeff, module in modules.items():
                if coeff == "sign" and g == "V4":
                    coeff = f"sign{mask}"
                for n in range(4):
                    h = extcalc.groupring.group_cohomology(G, module, n)
                    out[f"{g}|{coeff}|{n}"] = wl_zg.display(
                        *h.canonical_form)
    return out


def witness_goldens(extcalc):
    out = {}
    for site, (size, _) in wl_sheaf.WITNESS_SITES.items():
        for c in range(size):
            q = {"kind": "witness_search", "site": site, "c": c}
            out[f"{site}|{c}"] = wl_sheaf.run(extcalc, (q, None))
    return out


def main():
    extcalc = run.load_extcalc()
    goldens = {"zg_cohomology": zg_goldens(extcalc),
               "sheaf_ext": witness_goldens(extcalc), "abelian": {}}
    with open(os.path.join(HERE, "goldens.json"), "w",
              encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
