"""Command line tests: document parsing, outputs, exit codes."""

import io
import json
import os
import shlex
import subprocess
import sys
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib.resources import files
from pathlib import Path

import pytest

from extcalc import cli, exactint, groupring, poset_sheaf, resolution

SIERPINSKI = str(files("extcalc").joinpath("fixtures/sierpinski.json"))
C2 = str(files("extcalc").joinpath("fixtures/c2_cohomology.json"))
SIX_TERM = str(files("extcalc").joinpath("fixtures/six_term.json"))
SIX_M = " + ".join(["Z/6"] * 8 + ["Z^5"])  # (Z/6)^8 + Z^5
ROOT = Path(__file__).resolve().parents[1]


def crown_document(k):
    """Z^k stalks with zero restrictions on six levels of two elements,
    each below both elements of the next level."""
    below = [(d, c) for d in range(12) for c in range(12) if d // 2 < c // 2]
    zero = [[0] * k for _ in range(k)]
    return json.dumps({
        "posets": {"crown": {"size": 12, "relations": below}},
        "presheaves": {"B": {
            "poset": "crown", "stalks": [f"Z^{k}"] * 12,
            "res": {f"{d}<={c}": zero for d, c in below}}}})


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def ext_request(k):
    """`ext --n 1` of (Z/6)^k + Z^5 by (Z/4)^k + Z^5."""
    return ["ext", "--B", " + ".join(["Z/6"] * k + ["Z^5"]),
            "--A", " + ".join(["Z/4"] * k + ["Z^5"]), "--n", "1"]


# The stdin document of the metered requests: C2 and its module M, chain(8)
# with Z^6 stalks and zero restrictions, and the sequence Z/2 -> Z/4 -> Z/2
_BELOW8 = [(d, c) for c in range(8) for d in range(c)]
METER_DOC = json.dumps({
    "finite_groups": {"C2": "cyclic 2"}, "gmodules": {
        "M": {"group": "C2", "module": "Z/2 + Z/2 + Z/2",
              "action": {"1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}},
    "posets": {"chain8": {"size": 8, "relations": _BELOW8}},
    "presheaves": {"Z6": {
        "poset": "chain8", "stalks": ["Z^6"] * 8,
        "res": {f"{d}<={c}": [[0] * 6] * 6 for d, c in _BELOW8}}},
    "homs": {"i": {"src": "Z/2", "tgt": "Z/4", "matrix": [[2]]},
             "p": {"src": "Z/4", "tgt": "Z/2", "matrix": [[1]]}},
    "sequences": {"s": {"i": "i", "p": "p"}}})

# Requests whose metered totals are pinned, each read with METER_DOC on
# stdin: argv, cells and a piece of the answer.  Running this file as a
# script prints the totals they meter now.
METERED = {
    # H^1(C2; (Z/2)^3): building and checking the gmodule M, the module's
    # setup, the resolution of Z to degree 2, the Hom complex and its
    # cohomology
    "group-cohomology": (["group-cohomology", "--input", "-", "--G", "C2",
                          "--M", "M", "--n", "1"], 316, "Z/2"),
    # Sierpinski quot resolves as ZY(1), ZY(0)+ZY(1), ZY(0) and ends there;
    # degree 2 is the top, whose cocycles are all of Hom(ZY(0), A)
    "sheaf-ext": (["sheaf-ext", "--input", SIERPINSKI, "--B", "quot",
                   "--A", "y0", "--n", "2"], 62, "Z/2"),
    "external-ext": (["external-ext", "--input", SIERPINSKI, "--B", "quot",
                      "--A", "y0", "--n", "2"], 62, "Z/2"),
    # the shorthand sum, the resolution and the Ext^1 cross-check, whose
    # Ext^1 group builds no cover of B until it is read
    "ext": (["ext", "--B", "Z/4 + Z", "--A", "Z/6", "--n", "1"], 73, "Z/2"),
    # the equalizer of y1's one restriction, a 1 x 2 constraint
    "global-sections": (["global-sections", "--input", SIERPINSKI, "--F",
                         "y1"], 19, "Gamma(y1) = Z\n"),
    # chain(8) with Z^6 stalks and zero restrictions: naturality,
    # functoriality and the stalk covers read the 7 covers, not the 28
    # strict pairs
    "sheaf-ext-chain8": (["sheaf-ext", "--input", "-", "--B", "Z6", "--A",
                          "Z6", "--n", "1", "--method", "general"], 2045412,
                         "element 7: Z^252"),
    # Z/2 -> Z/4 -> Z/2 against M = (Z/6)^8 + Z^5: make_ses, three hom
    # groups, three Ext^1 groups, each map in one batch and the report from
    # the maps' solvers, each solve charged for the pivots it passes
    "six-term-co": (["six-term", "--input", "-", "--ses", "s", "--M", SIX_M,
                     "--variance", "co"], 13496, "all exact: yes"),
    "six-term-contra": (["six-term", "--input", "-", "--ses", "s", "--M",
                         SIX_M, "--variance", "contra"], 13697,
                        "all exact: yes"),
}
# README budget requests whose totals are pinned: argv and cells
BUDGET = {"ext-k40": (ext_request(40), 36_285_620),
          "ext-k45": (ext_request(45), 56_551_060)}


def metered_total(argv, stdin=""):
    """(exit code, cells metered) of cli.main(argv) with the cap lifted,
    read off the meter it installs; output is discarded."""
    totals, cap, install = [], cli.WORK_CELL_CAP, cli.work_cap

    @contextmanager
    def recorded(cells):
        with install(cells):
            try:
                yield
            finally:
                totals.append(exactint._meter[0])

    cli.WORK_CELL_CAP, cli.work_cap, stdin_ = 10 ** 12, recorded, sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    finally:
        cli.WORK_CELL_CAP, cli.work_cap, sys.stdin = cap, install, stdin_
    return code, totals[0]


def run_module(*argv):
    """`python -m extcalc` in a child that imports the same extcalc as the tests."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "extcalc", *argv], capture_output=True,
                          text=True, timeout=60, env={**os.environ, "PYTHONPATH": path})


class TestDocumentParsing:
    def test_empty_text_is_a_valid_document(self):
        doc = cli.parse_document("")
        assert doc.raw == {}
        assert cli.parse_document("{}").raw == {}

    def test_sierpinski_fixture_shape(self):
        with open(SIERPINSKI, encoding="utf-8") as fh:
            doc = cli.parse_document(fh.read())
        assert len(doc.posets) == 1
        assert len(doc.presheaves) == 3

    def test_syntax_error_carries_position(self):
        with pytest.raises(cli.CliParseError, match=r"line 2, column"):
            cli.parse_document('{\n  "groups": oops\n}')

    def test_dangling_reference_is_named(self):
        text = '{"homs": {"f": {"src": "mystery", "tgt": "Z", '
        text += '"matrix": [[1]]}}}'
        doc = cli.parse_document(text)
        with pytest.raises(cli.CliParseError, match="mystery"):
            doc.homs["f"]

    def test_unknown_section_rejected(self):
        with pytest.raises(cli.CliParseError, match="unknown sections"):
            cli.parse_document('{"grups": {}}')

    def test_round_trip_reparses_equal(self):
        with open(SIX_TERM, encoding="utf-8") as fh:
            doc = cli.parse_document(fh.read())
        again = cli.parse_document(cli.emit_document(doc))
        assert again.raw == doc.raw
        assert cli.emit_document(again) == cli.emit_document(doc)

    def test_shorthand_expansion(self):
        for text, expected in (("Z/6", (0, (6,))), ("Z^3", (3, ())),
                               ("Z", (1, ())), ("0", (0, ())),
                               ("Z^2 + Z/4 + Z/6", (2, (2, 12)))):
            g = cli.group_from_desc(text, None, "test")
            assert g.canonical_form == expected, text

    def test_presentation_group(self):
        g = cli.group_from_desc({"gens": 2, "relations": [[2, 0], [0, 3]]},
                                None, "test")
        assert g.canonical_form == (0, (6,))

    def test_bad_shorthand_rejected(self):
        with pytest.raises(cli.CliParseError):
            cli.group_from_desc("Z/x", None, "test")
        with pytest.raises(cli.CliParseError):
            cli.group_from_desc("Q", None, "test")

    def test_matrix_entries_must_be_integers(self):
        with pytest.raises(cli.CliParseError, match="integers"):
            cli.parse_document('{"matrices": {"m": [[1.5]]}}').matrices["m"]
        # JSON booleans are not integer entries
        with pytest.raises(cli.CliParseError, match="integers"):
            cli.parse_document('{"matrices": {"m": [[true]]}}').matrices["m"]


class TestGroupCommands:
    def test_ext_z4_z6(self, capsys):
        code, out, _ = run(capsys, "ext", "--B", "Z/4", "--A", "Z/6",
                           "--n", "1")
        assert code == 0
        assert out == "Ext^1(Z/4, Z/6) = Z/2\n"

    def test_ext_free_source_vanishes(self, capsys):
        code, out, _ = run(capsys, "ext", "--B", "Z", "--A", "Z/9",
                           "--n", "1")
        assert code == 0
        assert out.strip().endswith("= 0")

    def test_ext_machine_format(self, capsys):
        code, out, _ = run(capsys, "ext", "--B", "Z/4", "--A", "Z/6",
                           "--n", "1", "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["result"] == "Z/2"
        assert data["status"] == "ok"

    def test_ext_max_deg_table(self, capsys):
        code, out, _ = run(capsys, "ext", "--B", "Z/4", "--A", "Z/6",
                           "--max-deg", "3", "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["results"] == {"0": "Z/2", "1": "Z/2", "2": "0",
                                   "3": "0"}

    def test_group_canonical_form(self, capsys):
        code, out, _ = run(capsys, "group", "--group", "Z^2 + Z/4 + Z/6")
        assert code == 0
        assert "= Z^2 + Z/2 + Z/12" in out

    def test_hom_group(self, capsys):
        code, out, _ = run(capsys, "hom", "--src", "Z/12", "--tgt", "Z/18")
        assert code == 0
        assert out == "Hom(Z/12, Z/18) = Z/6\n"

    def test_snf_from_stdin(self, capsys, monkeypatch):
        doc = '{"matrices": {"m": [[2, 0], [0, 3]]}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "snf", "--input", "-", "--matrix", "m")
        assert code == 0
        assert "diagonal: 1, 6" in out

    def test_baer_law_mode(self, capsys):
        code, out, _ = run(capsys, "baer", "--B", "Z/4", "--A", "Z/6",
                           "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["ext1"] == "Z/2"
        assert all(data[k] for k in ("commutative", "associative",
                                     "identity", "inverses"))

    def test_baer_nonsplit_plus_nonsplit_splits(self, capsys):
        code, out, _ = run(capsys, "baer", "--B", "Z/2", "--A", "Z/2",
                           "--i", "1", "--j", "1", "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["sum"] == [0]
        assert data["sum_splits"] is True

    def test_baer_sum_not_splitting(self, capsys):
        code, out, _ = run(capsys, "baer", "--B", "Z/4", "--A", "Z",
                           "--i", "1", "--j", "1", "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["sum"] == [2]
        assert data["sum_splits"] is False


class TestSequenceCommands:
    def test_six_term_both_variances(self, capsys):
        for variance in ("co", "contra"):
            code, out, _ = run(capsys, "six-term", "--input", SIX_TERM,
                               "--ses", "s", "--M", "M",
                               "--variance", variance,
                               "--format", "machine")
            assert code == 0
            data = json.loads(out)
            assert data["all_exact"] is True
            assert data["interior"] == [True, True, True, True]

    def test_six_term_human_lists_groups(self, capsys):
        code, out, _ = run(capsys, "six-term", "--input", SIX_TERM,
                           "--ses", "s", "--M", "M")
        assert code == 0
        assert "all exact: yes" in out
        assert " -> " in out


class TestGroupRingCommands:
    def test_cohomology_of_c2_is_periodic(self, capsys):
        code, out, _ = run(capsys, "group-cohomology", "--input", C2,
                           "--G", "C2", "--max-deg", "4",
                           "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["results"] == {"0": "Z", "1": "0", "2": "Z/2",
                                   "3": "0", "4": "Z/2"}
        assert data["M"] == "trivial Z"

    def test_cohomology_of_named_module(self, capsys):
        code, out, _ = run(capsys, "group-cohomology", "--input", C2,
                           "--G", "C2", "--M", "signZ", "--n", "1")
        assert code == 0
        assert "= Z/2" in out

    def test_fixed_points(self, capsys):
        code, out, _ = run(capsys, "fixed-points", "--input", C2,
                           "--M", "signZ")
        assert code == 0
        assert "= 0" in out


class TestPresheafCommands:
    def test_sheaf_ext_sierpinski_prints_chain(self, capsys):
        code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                           "--B", "quot", "--A", "y0", "--n", "2")
        assert code == 0
        assert "presheaf: 0 <- Z/2" in out
        assert "element 0: 0" in out
        assert "element 1: Z/2" in out

    def test_sheaf_ext_fast_agrees(self, capsys):
        # raw matrices may differ by presentation; canonical data may not
        outs = []
        for method in ("general", "fast", "auto"):
            code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                               "--B", "quot", "--A", "y0", "--n", "2",
                               "--method", method, "--format", "machine")
            assert code == 0
            data = json.loads(out)
            outs.append((data["stalks"], data["chain_form"]))
        assert outs[0] == outs[1] == outs[2] == (["0", "Z/2"], "0 <- Z/2")

    def test_external_ext_and_global_sections_agree(self, capsys):
        code, out, _ = run(capsys, "external-ext", "--input", SIERPINSKI,
                           "--B", "quot", "--A", "y0", "--n", "2")
        assert code == 0
        assert "= Z/2" in out
        code, out, _ = run(capsys, "global-sections", "--input", SIERPINSKI,
                           "--F", "quot")
        assert code == 0
        assert "= Z/2" in out

    def test_representable_hom_via_sheaf_ext_degree_zero(self, capsys):
        # ihom(Zy(0), Zy(1)) has stalk Zy(1)(0) = Z everywhere
        code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                           "--B", "y0", "--A", "y1", "--n", "0",
                           "--format", "machine")
        assert code == 0
        assert json.loads(out)["stalks"] == ["Z", "Z"]

    def test_witness_search_bowtie_finds(self, capsys):
        doc = json.dumps({"posets": {"bow": {
            "size": 5,
            "relations": [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4]],
        }}})
        with open("/tmp/cli_bowtie.json", "w", encoding="utf-8") as fh:
            fh.write(doc)
        code, out, _ = run(capsys, "witness-search", "--input",
                           "/tmp/cli_bowtie.json", "--poset", "bow",
                           "--c", "3", "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["found"] is True
        assert data["stalk"] in (3, 4)

    def test_witness_search_sierpinski_finds_none(self, capsys):
        code, out, _ = run(capsys, "witness-search", "--input", SIERPINSKI,
                           "--poset", "S", "--c", "0", "--format", "machine")
        assert code == 0
        assert json.loads(out)["found"] is False


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["ext", "--B", "Z/4"])
        assert exc.value.code == 2

    def test_syntax_error_is_parse(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"groups": nope}'))
        code, _, err = run(capsys, "group", "--input", "-", "--group", "Z")
        assert code == cli.EXIT_PARSE
        assert "line 1" in err

    def test_dangling_reference_is_parse(self, capsys):
        code, _, err = run(capsys, "ext", "--B", "ghost", "--A", "Z",
                           "--n", "1")
        assert code == cli.EXIT_PARSE
        assert "ghost" in err

    def test_missing_file_is_parse(self, capsys):
        code, _, err = run(capsys, "snf", "--input", "/no/such/file.json",
                           "--matrix", "m")
        assert code == cli.EXIT_PARSE

    def test_ill_defined_hom_is_validation_and_named(self, capsys,
                                                     monkeypatch):
        doc = '{"homs": {"badhom": {"src": "Z/2", "tgt": "Z/3", '
        doc += '"matrix": [[1]]}}, "sequences": {"s": {"i": "badhom", '
        doc += '"p": "badhom"}}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "six-term", "--input", "-", "--ses", "s",
                           "--M", "Z")
        assert code == cli.EXIT_VALIDATION
        assert "badhom" in err

    def test_bad_group_table_is_validation(self, capsys, monkeypatch):
        doc = '{"finite_groups": {"braid": {"table": [[0, 1], [1, 1]]}}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "braid", "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert "braid" in err

    def test_non_functorial_presheaf_is_validation(self, capsys,
                                                   monkeypatch):
        doc = json.dumps({
            "posets": {"c3": {"size": 3, "relations": [[0, 1], [1, 2]]}},
            "presheaves": {"skew": {
                "poset": "c3",
                "stalks": ["Z", "Z", "Z"],
                "res": {"0<=1": [[1]], "1<=2": [[1]], "0<=2": [[2]]},
            }},
        })
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "global-sections", "--input", "-",
                           "--F", "skew")
        assert code == cli.EXIT_VALIDATION
        assert "skew" in err

    @pytest.mark.parametrize("res,message", [
        ({"0<=1": [[1]], "1<=2": [[1]]}, "missing restriction for (0, 2)"),
        ({"0<=1": [[1]], "1<=2": [[1]], "0<=2": [[1]], "1<=1": [[2]]},
         "restriction at (1, 1) is not the identity"),
    ])
    def test_incomplete_presheaf_is_validation_and_named(
            self, capsys, monkeypatch, res, message):
        doc = json.dumps({
            "posets": {"c3": {"size": 3, "relations": [[0, 1], [1, 2]]}},
            "presheaves": {"holey": {"poset": "c3", "stalks": ["Z"] * 3,
                                     "res": res}},
        })
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "sheaf-ext", "--input", "-",
                           "--B", "holey", "--A", "holey", "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert "holey" in err and message in err

    def test_degree_cap_is_domain(self, capsys):
        code, _, err = run(capsys, "group-cohomology", "--input", C2,
                           "--G", "C2", "--n", "7")
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err

    def test_cohomology_work_cap_refuses_or_finishes(self, capsys,
                                                     monkeypatch):
        # a resolution of (Z/2)^5 runs past the cap by degree 3: refused
        # mid-build; H^5(S3; Z) and H^3(C6; Z) are well inside and answer
        c2_5 = [[i ^ j for j in range(32)] for i in range(32)]
        doc = json.dumps({"finite_groups": {
            "S3": {"table": [list(r) for r in groupring.symmetric3().table]},
            "C6": "cyclic 6", "C2^5": {"table": c2_5}}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "C2^5", "--n", "3")
        assert time.perf_counter() - start < 10
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err
        for g, n, form in (("S3", 5, "0"), ("C6", 3, "0")):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            code, out, _ = run(capsys, "group-cohomology", "--input", "-",
                               "--G", g, "--n", str(n))
            assert code == 0
            assert out == f"H^{n}({g}; trivial Z) = {form}\n"

    @pytest.mark.parametrize("argv,cells,answer", METERED.values(),
                             ids=METERED.keys())
    def test_work_cap_is_the_metered_total(self, capsys, monkeypatch, argv,
                                           cells, answer):
        # a request answers at a cap of exactly the cells it meters and is
        # refused one cell below, whatever part of the work crosses it
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells)
        monkeypatch.setattr(sys, "stdin", io.StringIO(METER_DOC))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and answer in out
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells - 1)
        monkeypatch.setattr(sys, "stdin", io.StringIO(METER_DOC))
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_DOMAIN
        assert f"capped at {cells - 1} cells" in err

    def test_ext_work_cap_refuses_large_shorthand(self, capsys):
        # Ext^1 of (Z/6)^120 + Z^5 by (Z/4)^120 + Z^5 ran out of memory
        # unmetered; under the meter it is refused in under a second
        start = time.perf_counter()
        code, _, err = run(capsys, *ext_request(120))
        assert time.perf_counter() - start < 10
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err

    def ext_answers_at_its_total(self, capsys, monkeypatch, k):
        # Ext^1 of (Z/6)^k + Z^5 by (Z/4)^k + Z^5 is (Z/2)^(k*k) +
        # (Z/6)^(5k): degree 1 is the top of the complete resolution over
        # Z, presented without an identity and without a Smith form
        argv, cells = BUDGET[f"ext-k{k}"]
        assert cells < cli.WORK_CELL_CAP
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert sorted(out.split(" = ")[1].split()[::2]) == (
            ["Z/2"] * (k * k) + ["Z/6"] * (5 * k))
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells - 1)
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_DOMAIN
        assert f"capped at {cells - 1} cells" in err

    def test_ext_k40_answers_under_the_cap(self, capsys, monkeypatch):
        self.ext_answers_at_its_total(capsys, monkeypatch, 40)

    def test_ext_k45_answers_under_the_cap(self, capsys, monkeypatch):
        self.ext_answers_at_its_total(capsys, monkeypatch, 45)

    def test_the_meter_leaves_no_state(self, capsys, monkeypatch):
        # a refused request neither refuses the next one nor caps a
        # library call made after it
        monkeypatch.setattr(cli, "WORK_CELL_CAP", 100)
        code, _, err = run(capsys, "group-cohomology", "--input", C2,
                           "--G", "C2", "--M", "signZ", "--max-deg", "6")
        assert code == cli.EXIT_DOMAIN and "capped" in err
        code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                           "--B", "quot", "--A", "y0", "--n", "2")
        assert code == 0 and "element 1: Z/2" in out
        assert exactint._meter is None
        b = cli.parse_document(crown_document(2)).presheaves["B"]
        with pytest.raises(exactint.WorkCapped):
            with exactint.work_cap(100):
                poset_sheaf.sheaf_ext(b, b, 1)
        assert poset_sheaf.sheaf_ext(b, b, 1).stalk(0).canonical_form \
            == (0, ())

    def test_presheaf_work_cap_refuses_or_finishes(self, capsys,
                                                   monkeypatch):
        # on the crown, at k = 16 external-ext at n = 1 meters 174 M cells
        # and is refused while it works; sheaf-ext at n = 6, whose
        # resolutions end at their first zero kernel, meters 14.5 M cells
        # and answers at k = 16 as at k = 4
        for k, cmd, n, expect in ((16, "external-ext", 1, cli.EXIT_DOMAIN),
                                  (16, "sheaf-ext", 6, 0),
                                  (4, "sheaf-ext", 6, 0)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(crown_document(k)))
            start = time.perf_counter()
            code, _, err = run(capsys, cmd, "--input", "-", "--B", "B",
                               "--A", "B", "--n", str(n))
            assert time.perf_counter() - start < 10
            assert code == expect
            assert ("capped" in err) == (expect == cli.EXIT_DOMAIN)

    def test_auto_answers_on_large_tree_stalks(self, capsys, monkeypatch):
        # Z^8 stalks with zero restrictions on a 12-element binary tree (in
        # heap order, the ancestors of i are (i + 1 >> k) - 1): auto is the
        # general path and answers, where the fast path was refused by the
        # meter after 6 s
        below = [(a, c) for c in range(1, 12) for a in range(c)
                 if any(c + 1 >> k == a + 1 for k in range(1, 4))]
        zero = [[0] * 8 for _ in range(8)]
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps({
            "posets": {"tree": {"size": 12, "relations": below}},
            "presheaves": {"B": {
                "poset": "tree", "stalks": ["Z^8"] * 12,
                "res": {f"{d}<={c}": zero for d, c in below}}}})))
        code, out, _ = run(capsys, "sheaf-ext", "--input", "-", "--B", "B",
                           "--A", "B", "--n", "1", "--method", "auto")
        assert code == 0
        assert "element 1: Z^64" in out and "element 11: Z^192" in out

    def test_poset_size_cap_is_domain(self, capsys, monkeypatch):
        doc = '{"posets": {"long": {"size": 13, "relations": []}}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "witness-search", "--input", "-",
                           "--poset", "long", "--c", "0")
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err

    @pytest.mark.parametrize("argv", [
        ["witness-search", "--poset", "long", "--c", "0"],
        ["global-sections", "--F", "F"],
        ["sheaf-ext", "--B", "F", "--A", "F", "--n", "1"],
    ], ids=lambda argv: argv[0])
    def test_oversized_poset_is_refused_before_its_closure(
            self, capsys, monkeypatch, argv):
        # closing a 2,000-element chain and checking its order laws is
        # O(n^3); its size alone refuses it
        n = 2000
        doc = json.dumps({
            "posets": {"long": {"size": n, "relations": [
                [i, i + 1] for i in range(n - 1)]}},
            "presheaves": {"F": {"poset": "long", "stalks": ["Z"] * n,
                                 "res": {}}}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, argv[0], "--input", "-", *argv[1:])
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_DOMAIN
        assert "capped at 12; got 2000" in err

    @pytest.mark.parametrize("desc", [
        "cyclic 600", {"table": [[0] * 600] * 600}], ids=["cyclic", "table"])
    def test_oversized_finite_group_is_refused_before_its_table_check(
            self, capsys, monkeypatch, desc):
        # checking a table's associativity is cubic in its order, and
        # uncharged: cyclic 600 answered after 10 s; its order refuses it
        doc = json.dumps({"finite_groups": {"G": desc}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        start = time.perf_counter()
        code, _, err = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "G", "--n", "0")
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_DOMAIN
        assert "capped at 200; got 600" in err

    @pytest.mark.parametrize("argv, doc", [
        (["hom", "--src", "Z^30000000", "--tgt", "0"], {}),
        (["group", "--group", "G"], {"groups": {"G": {"gens": 30000000}}}),
    ], ids=["shorthand", "gens"])
    def test_oversized_group_is_refused_before_it_is_built(
            self, capsys, monkeypatch, argv, doc):
        # a matrix with a zero dimension meters no cells: `group` on 30
        # million generators answered after 14 s; their count refuses it
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
        start = time.perf_counter()
        code, _, err = run(capsys, *argv, "--input", "-")
        assert time.perf_counter() - start < 1
        assert code == cli.EXIT_DOMAIN
        assert "capped at 100000; got 30000000" in err

    def test_sums_are_capped_on_their_total(self, capsys):
        code, out, _ = run(capsys, "group", "--group", "Z^50000 + Z^50000")
        assert code == 0 and "Z^100000" in out
        code, _, err = run(capsys, "group", "--group", "Z^50000 + Z^50000 + Z/2")
        assert code == cli.EXIT_DOMAIN
        assert "capped at 100000; got 100001" in err

    def test_witness_search_size_cap(self, capsys, monkeypatch):
        # the candidate family grows as 3^n and is searched in pairs, so
        # a poset one past the cap is refused before any search
        doc = json.dumps({"posets": {
            "wide": {"size": cli.WITNESS_POSET_SIZE_CAP + 1,
                     "relations": []},
            "bow": {"size": 5, "relations": [[0, 1], [0, 2], [1, 3],
                                             [1, 4], [2, 3], [2, 4]]}}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "witness-search", "--input", "-",
                           "--poset", "wide", "--c", "0")
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "witness-search", "--input", "-",
                           "--poset", "bow", "--c", "3",
                           "--format", "machine")
        assert code == 0
        assert json.loads(out)["stalk"] in (3, 4)

    def test_witness_search_at_the_cap_answers_in_budget(self, capsys,
                                                         monkeypatch):
        # the antichain at the cap, and five elements below two tops, the
        # slowest poset of that size measured (its two tops meet in an
        # antichain, so the scan asks about every pair of kinds there)
        n = cli.WITNESS_POSET_SIZE_CAP
        doc = json.dumps({"posets": {
            "anti": {"size": n, "relations": []},
            "wide": {"size": n, "relations": [[i, t] for t in (n - 2, n - 1)
                                              for i in range(n - 2)]}}})
        for poset, c in (("anti", 0), ("wide", n - 2)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            start = time.perf_counter()
            code, out, _ = run(capsys, "witness-search", "--input", "-",
                               "--poset", poset, "--c", str(c))
            assert time.perf_counter() - start < 10
            assert code == 0
            assert "no witness found" in out

    @pytest.mark.parametrize("argv", [
        ["ext", "--B", "Z/4", "--A", "Z/6"],
        ["group-cohomology", "--input", C2, "--G", "C2"],
        ["sheaf-ext", "--input", SIERPINSKI, "--B", "quot", "--A", "y0"],
        ["external-ext", "--input", SIERPINSKI, "--B", "quot", "--A", "y0"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", ["--n", "--max-deg"])
    def test_negative_degree_is_domain(self, capsys, argv, flag):
        code, _, err = run(capsys, *argv, flag, "-1")
        assert code == cli.EXIT_DOMAIN
        assert f"{flag} must be nonnegative" in err

    def test_bad_class_coordinates_are_domain(self, capsys):
        code, _, err = run(capsys, "baer", "--B", "Z/2", "--A", "Z/2",
                           "--i", "1,1", "--j", "1")
        assert code == cli.EXIT_DOMAIN
        assert "entries" in err


def shorthand_sum(*parts):
    """"Z/6 + Z/6 + ... + Z^5" from (count, summand) pairs."""
    return " + ".join(t for k, t in parts for _ in range(k))


class TestZCommandMeter:
    """Each Z command answers one large request and refuses a larger one
    under the work meter (exit 5, "capped") within its 10 s budget."""

    @pytest.mark.parametrize("argv", [
        ["hom", "--src", "B", "--tgt", "A"],
        ["baer", "--B", "B", "--A", "A", "--i", "1", "--j", "1"],
    ], ids=["hom", "baer"])
    def test_refused_past_the_cap(self, capsys, argv):
        # (Z/6)^120 + Z^5 against (Z/4)^120 + Z^5: the Hom-group
        # constraints alone need more than 234 million cells
        sums = {"B": shorthand_sum((120, "Z/6"), (1, "Z^5")),
                "A": shorthand_sum((120, "Z/4"), (1, "Z^5"))}
        start = time.perf_counter()
        code, _, err = run(capsys, *[sums.get(a, a) for a in argv])
        assert time.perf_counter() - start < 10
        assert code == cli.EXIT_DOMAIN and "capped" in err

    def test_hom_charges_its_kernel_before_building_it(self, capsys,
                                                      monkeypatch):
        # Hom(Z^k, Z^k) is all of Z^(k^2): its kernel basis is a k^2 x k^2
        # identity, charged k^4 cells before it is built, so a cap below
        # that refuses the request without building one
        k, built = 4, []
        build = exactint._from_sparse_cols

        def recorded(cols, height):
            built.append((height, len(cols)))
            return build(cols, height)

        monkeypatch.setattr(exactint, "_from_sparse_cols", recorded)
        monkeypatch.setattr(cli, "WORK_CELL_CAP", k ** 4 - 1)
        code, _, err = run(capsys, "hom", "--src", f"Z^{k}", "--tgt",
                           f"Z^{k}")
        assert code == cli.EXIT_DOMAIN and "capped" in err
        assert (k * k, k * k) not in built

    def test_hom_and_baer_answer_below_the_cap(self, capsys):
        b = shorthand_sum((20, "Z/6"), (1, "Z^5"))
        a = shorthand_sum((20, "Z/4"), (1, "Z^5"))
        code, out, _ = run(capsys, "hom", "--src", b, "--tgt", a,
                           "--format", "machine")
        assert code == 0
        assert json.loads(out)["result"] == shorthand_sum(
            (1, "Z^25"), (400, "Z/2"), (100, "Z/4"))
        code, out, _ = run(capsys, "baer", "--B", b, "--A", a,
                           "--format", "machine")
        assert code == 0
        data = json.loads(out)
        assert data["ext1"] == shorthand_sum((400, "Z/2"), (100, "Z/6"))
        assert data["associative"] and data["inverses"]

    def test_six_term(self, capsys, monkeypatch):
        # Z/2 -> Z/4 -> Z/2 against a 125-generator M answers; the split
        # sequence A -> A + Z/2 -> Z/2 with A = (Z/4)^120 + Z^5 against
        # M = (Z/6)^120 + Z^5 needs Hom(M, A), refused as hom is above
        a = shorthand_sum((120, "Z/4"), (1, "Z^5"))
        doc = json.dumps({"homs": {
            "i": {"src": "Z/2", "tgt": "Z/4", "matrix": [[2]]},
            "p": {"src": "Z/4", "tgt": "Z/2", "matrix": [[1]]},
            "inc": {"src": a, "tgt": a + " + Z/2", "matrix": [
                [int(r == c) for c in range(125)] for r in range(126)]},
            "pr": {"src": a + " + Z/2", "tgt": "Z/2",
                   "matrix": [[0] * 125 + [1]]}},
            "sequences": {"s": {"i": "i", "p": "p"},
                          "big": {"i": "inc", "p": "pr"}}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "six-term", "--input", "-", "--ses", "s",
                           "--M", a, "--format", "machine")
        assert code == 0 and json.loads(out)["all_exact"] is True
        m = shorthand_sum((120, "Z/6"), (1, "Z^5"))
        for variance in ("co", "contra"):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            start = time.perf_counter()
            code, _, err = run(capsys, "six-term", "--input", "-", "--ses",
                               "big", "--M", m, "--variance", variance)
            assert time.perf_counter() - start < 10
            assert code == cli.EXIT_DOMAIN and "capped" in err

    def test_snf(self, capsys, monkeypatch):
        # a 1 x n matrix has an n x n transform V, charged before it is
        # built: n = 2000 answers, n = 8000 (64 million cells) is refused
        for n, expect in ((2000, 0), (8000, cli.EXIT_DOMAIN)):
            doc = json.dumps({"matrices": {"row": [list(range(n))]}})
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            start = time.perf_counter()
            code, out, err = run(capsys, "snf", "--input", "-",
                                 "--matrix", "row")
            assert time.perf_counter() - start < 10
            assert code == expect
            if expect:
                assert "capped" in err
            else:
                assert out == "diagonal: 1\nverified: U*A*V = D\n"

    def test_group(self, capsys):
        # (Z/6)^k + (Z/4)^k + Z^5: its canonical form answers at k = 1000;
        # at k = 4000 the sum alone is a dense 8005-generator presentation
        for k, expect in ((1000, 0), (4000, cli.EXIT_DOMAIN)):
            g = shorthand_sum((k, "Z/6"), (k, "Z/4"), (1, "Z^5"))
            start = time.perf_counter()
            code, out, err = run(capsys, "group", "--group", g,
                                 "--format", "machine")
            assert time.perf_counter() - start < 10
            assert code == expect
            if expect:
                assert "capped" in err
            else:
                data = json.loads(out)
                assert data["rank"] == 5
                assert data["torsion"] == [2] * k + [12] * k


class TestLazyDefinitions:
    """A definition is built when a command first reads it, and only then:
    a broken one fails only the commands that read it."""

    BROKEN = json.dumps({
        "finite_groups": {"C2": "cyclic 2"},
        "gmodules": {
            "good": {"group": "C2", "module": "Z", "action": {"1": [[-1]]}},
            "broken": {"group": "C2", "module": "Z/4",
                       "action": {"1": [[2]]}}}})

    def test_a_broken_gmodule_fails_only_its_readers(self, capsys,
                                                     monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.BROKEN))
        code, out, _ = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "C2", "--M", "good", "--n", "1")
        assert code == 0 and out == "H^1(C2; good) = Z/2\n"
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.BROKEN))
        code, _, err = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "C2", "--M", "broken", "--n", "1")
        assert code == cli.EXIT_VALIDATION
        assert "gmodule 'broken'" in err

    def test_handler_checks_come_before_reading(self, capsys, monkeypatch):
        # the degree cap is checked before --M is read
        monkeypatch.setattr(sys, "stdin", io.StringIO(self.BROKEN))
        code, _, err = run(capsys, "group-cohomology", "--input", "-",
                           "--G", "C2", "--M", "broken", "--n", "7")
        assert code == cli.EXIT_DOMAIN and "capped" in err

    def test_sequence_reading_an_ill_defined_hom_names_it(self, capsys,
                                                          monkeypatch):
        doc = json.dumps({
            "homs": {"i24": {"src": "Z/2", "tgt": "Z/4", "matrix": [[2]]},
                     "p42": {"src": "Z/4", "tgt": "Z/2", "matrix": [[1]]},
                     "badp": {"src": "Z/4", "tgt": "Z/3", "matrix": [[1]]}},
            "sequences": {"good": {"i": "i24", "p": "p42"},
                          "bad": {"i": "i24", "p": "badp"}}})
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, "six-term", "--input", "-", "--ses",
                           "good", "--M", "Z/2")
        assert code == 0 and "all exact: yes" in out
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "six-term", "--input", "-", "--ses",
                           "bad", "--M", "Z/2")
        assert code == cli.EXIT_VALIDATION
        assert "sequence 'bad'" in err and "hom 'badp'" in err

    def test_only_the_module_read_is_built(self, capsys, monkeypatch):
        # three modules over C4, as the benchmark's documents hold them;
        # modules from outside are the only ones built with check=True
        built, orig = [], groupring.GModule.__init__

        def count(self, G, M, action, check=True):
            if check:
                built.append(M.canonical_form)
            orig(self, G, M, action, check)
        monkeypatch.setattr(groupring.GModule, "__init__", count)
        trivial = {str(e): [[1]] for e in range(1, 4)}
        doc = json.dumps({
            "finite_groups": {"C4": "cyclic 4"},
            "gmodules": {
                "Z2": {"group": "C4", "module": "Z/2", "action": trivial},
                "Z3": {"group": "C4", "module": "Z/3", "action": trivial},
                "sgn": {"group": "C4", "module": "Z", "action": {
                    "1": [[-1]], "2": [[1]], "3": [[-1]]}}}})
        for module, forms in ((["--M", "Z2"], [(0, (2,))]), ([], [])):
            monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
            code, _, _ = run(capsys, "group-cohomology", "--input", "-",
                             "--G", "C4", *module, "--max-deg", "2")
            assert code == 0
            assert built == forms
            built.clear()

    def test_each_definition_is_built_once(self):
        doc = cli.parse_document(json.dumps({
            "groups": {"G": "Z/4 + Z"},
            "homs": {"f": {"src": "G", "tgt": "G",
                           "matrix": [[1, 0], [0, 1]]}}}))
        assert "f" in doc.homs and "g" not in doc.homs
        assert len(doc.homs) == 1 and list(doc.homs) == ["f"]
        f = doc.homs["f"]
        assert doc.homs["f"] is f
        assert f.src is f.tgt is doc.groups["G"]


TREE = json.dumps({
    "posets": {"T": {"size": 4, "relations": [[0, 1], [0, 2], [1, 3]]}},
    "presheaves": {
        "F": {"poset": "T", "stalks": ["Z/4", "Z/2", "Z", "Z/2"],
              "res": {"0<=1": [[2]], "0<=2": [[1]], "1<=3": [[1]],
                      "0<=3": [[2]]}},
        "G": {"poset": "T", "stalks": ["Z", "Z/3 + Z", "Z/6", "Z^2"],
              "res": {"0<=1": [[0, 2]], "0<=2": [[0]],
                      "1<=3": [[1, 1], [0, 3]], "0<=3": [[0, 6]]}}}})


class TestDegreeTables:
    """A --max-deg table builds each resolution once, to its top degree
    + 1, and lifts each comparison map at most once."""

    @staticmethod
    def counted(monkeypatch, name):
        calls, orig = [], getattr(resolution, name)

        def count(*args):
            calls.append(args)
            return orig(*args)
        monkeypatch.setattr(resolution, name, count)
        return calls

    @staticmethod
    def full_site_covers(monkeypatch):
        # covering steps on the whole site (epi_cover calls, and the
        # cover_kernel calls that find a nonzero kernel): a resolution of
        # length k makes k + 1 of them, and nothing else in a request
        # makes any
        sizes = []
        for name in ("epi_cover", "cover_kernel"):
            orig = getattr(poset_sheaf.PresheafContext, name)

            def count(ctx, b, orig=orig):
                out = orig(ctx, b)
                if out is not None:
                    sizes.append(ctx.site.size)
                return out
            monkeypatch.setattr(poset_sheaf.PresheafContext, name, count)
        return lambda: sizes.count(4)  # TREE has four elements

    @pytest.mark.parametrize("argv,sizes,covers", [
        (["sheaf-ext", "--method", "general"], [3, 2, 1, 2], 0),
        (["sheaf-ext", "--method", "fast"], [4], 2),
        (["sheaf-ext", "--method", "auto"], [3, 2, 1, 2], 0),
        (["external-ext"], [4], 2),
    ], ids=["general", "fast", "auto", "external-ext"])
    def test_one_resolution_per_down_set_or_site(self, capsys, monkeypatch,
                                                 argv, sizes, covers):
        # general, and auto with it, resolves the four down-sets of the
        # tree, and none of them is the whole site; fast and external-ext
        # ask for the site's resolution once, to degree 4, and it ends at
        # degree 1
        calls = self.counted(monkeypatch, "free_resolution")
        full = self.full_site_covers(monkeypatch)
        monkeypatch.setattr(sys, "stdin", io.StringIO(TREE))
        code, out, _ = run(capsys, *argv, "--input", "-", "--B", "F",
                           "--A", "G", "--max-deg", "3")
        assert code == 0 and "Ext^3(F, G)" in out
        assert sorted(b.site.size for (_, b, _) in calls) == sorted(sizes)
        assert [depth for (_, _, depth) in calls] == [4] * len(sizes)
        assert full() == covers

    def test_lifts_stop_at_the_highest_nonzero_degree(self, capsys,
                                                       monkeypatch):
        # Ext^3 vanishes on trees, so no lift of a 0..3 table on one goes
        # past degree 2; the Sierpinski Ext^2 stalk at the bottom is zero,
        # so its one pair is not lifted
        lifts = self.counted(monkeypatch, "lift_chain_map")
        monkeypatch.setattr(sys, "stdin", io.StringIO(TREE))
        code, _, _ = run(capsys, "sheaf-ext", "--input", "-", "--B", "F",
                         "--A", "G", "--max-deg", "3")
        assert code == 0 and lifts
        assert max(q.max_deg for (_, q, _) in lifts) <= 2
        lifts.clear()
        code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                           "--B", "quot", "--A", "y0", "--n", "2")
        assert code == 0 and "element 1: Z/2" in out
        assert lifts == []

    def test_zero_stalks_need_no_lift(self, capsys, monkeypatch):
        # every stalk of Ext^6 on the crown is zero, so no pair is lifted;
        # the table through degree 6 lifts each of the 20 Hasse covers
        # once, and composes the other 40 comparable pairs from them
        lifts = self.counted(monkeypatch, "lift_chain_map")
        for flag, count in (("--n", 0), ("--max-deg", 20)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(crown_document(1)))
            code, _, _ = run(capsys, "sheaf-ext", "--input", "-", "--B", "B",
                             "--A", "B", flag, "6")
            assert code == 0
            assert len(lifts) == count
            lifts.clear()


class TestDeterminism:
    def test_machine_output_is_byte_identical(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "sheaf-ext", "--input", SIERPINSKI,
                               "--B", "quot", "--A", "y0", "--n", "2",
                               "--format", "machine")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_witness_output_is_byte_identical(self, capsys):
        runs = []
        for _ in range(2):
            code, out, _ = run(capsys, "witness-search", "--input",
                               SIERPINSKI, "--poset", "S", "--c", "1",
                               "--format", "machine")
            assert code == 0
            runs.append(out)
        assert runs[0] == runs[1]


class TestEntryPoint:
    def test_reused_parser_matches_a_fresh_process(self, capsys):
        # the parser is built once per process; a usage error must leave
        # nothing behind for the next call
        argv = ["group-cohomology", "--input", C2, "--G", "C2",
                "--M", "signZ", "--max-deg", "3", "--format", "machine"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["group-cohomology", "--input", C2, "--n", "2"])
        assert exc.value.code == 2
        capsys.readouterr()
        code, out, _ = run(capsys, *argv)
        fresh = run_module(*argv)
        assert code == fresh.returncode == 0
        assert out == fresh.stdout
        assert cli._build_parser() is cli._build_parser()

    def test_module_invocation(self):
        proc = run_module("ext", "--B", "Z/4", "--A", "Z/6", "--n", "1")
        assert proc.returncode == 0
        assert proc.stdout == "Ext^1(Z/4, Z/6) = Z/2\n"


def readme_examples():
    """(command, expected stdout lines) of each `$ extcalc` example in the
    README's "Command line" section, continuation lines joined."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    for block in section.split("```")[1::2]:
        for chunk in block.strip("\n").split("\n\n"):
            lines = chunk.split("\n")
            if not lines[0].startswith("$ extcalc "):
                continue
            command = lines.pop(0)[2:]
            while command.endswith("\\"):
                command = command[:-1] + lines.pop(0).strip()
            examples.append((command, lines))
    return examples


class TestReadme:
    def test_examples_are_found(self):
        assert len(readme_examples()) >= 6

    @pytest.mark.parametrize("command,lines", readme_examples(),
                             ids=[c for c, _ in readme_examples()])
    def test_example_prints_what_the_readme_shows(self, capsys, monkeypatch,
                                                  command, lines):
        # a block cut with "..." shows a prefix of the output and its
        # last line
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, *shlex.split(command)[1:])
        assert code == 0
        got = out.rstrip("\n").split("\n")
        if "..." in lines:
            cut = lines.index("...")
            assert got[:cut] == lines[:cut]
            assert got[-1:] == lines[cut + 1:]
        else:
            assert got == lines


if __name__ == "__main__":
    for name, (argv, cells, *_) in {**METERED, **BUDGET}.items():
        code, total = metered_total(argv, METER_DOC)
        print(f"{name}: {total:,} cells metered, {cells:,} pinned, exit {code}")
