"""Command line tests: document parsing, outputs, exit codes."""

import io
import json
import os
import subprocess
import sys
import time
from importlib.resources import files
from pathlib import Path

import pytest

from extcalc import cli, exactint, groupring, poset_sheaf, resolution

SIERPINSKI = str(files("extcalc").joinpath("fixtures/sierpinski.json"))
C2 = str(files("extcalc").joinpath("fixtures/c2_cohomology.json"))
SIX_TERM = str(files("extcalc").joinpath("fixtures/six_term.json"))


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
        with pytest.raises(cli.CliParseError, match="mystery"):
            cli.parse_document(text)

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
            cli.parse_document('{"matrices": {"m": [[1.5]]}}')
        # JSON booleans are not integer entries
        with pytest.raises(cli.CliParseError, match="integers"):
            cli.parse_document('{"matrices": {"m": [[true]]}}')


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
        doc += '"matrix": [[1]]}}}'
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, "hom", "--input", "-", "--src", "Z",
                           "--tgt", "Z")
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

    @pytest.mark.parametrize("argv,cells", [
        # H^1(C2; (Z/2)^3): the module's setup, the resolution of Z to
        # degree 2, the Hom complex and its cohomology
        (["group-cohomology", "--input", "-", "--G", "C2", "--M", "M",
          "--n", "1"], 237),
        # Sierpinski quot resolves as ZY(1), ZY(0)+ZY(1), ZY(0), 0
        (["sheaf-ext", "--input", SIERPINSKI, "--B", "quot", "--A", "y0",
          "--n", "2"], 68),
        (["external-ext", "--input", SIERPINSKI, "--B", "quot", "--A", "y0",
          "--n", "2"], 68),
        # the shorthand sum, the resolution and the Ext^1 cross-check
        (["ext", "--B", "Z/4 + Z", "--A", "Z/6", "--n", "1"], 98),
    ], ids=["group-cohomology", "sheaf-ext", "external-ext", "ext"])
    def test_work_cap_is_the_metered_total(self, capsys, monkeypatch, argv,
                                           cells):
        # a request answers at a cap of exactly the cells it meters and is
        # refused one cell below, whatever part of the work crosses it
        doc = json.dumps({"finite_groups": {"C2": "cyclic 2"}, "gmodules": {
            "M": {"group": "C2", "module": "Z/2 + Z/2 + Z/2",
                  "action": {"1": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}}}})
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells)
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, out, _ = run(capsys, *argv)
        assert code == 0 and "Z/2" in out
        monkeypatch.setattr(cli, "WORK_CELL_CAP", cells - 1)
        monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_DOMAIN
        assert f"capped at {cells - 1} cells" in err

    def test_ext_work_cap_refuses_large_shorthand(self, capsys):
        # Ext^1 of (Z/6)^120 + Z^5 by (Z/4)^120 + Z^5 ran out of memory
        # unmetered; under the meter it is refused in under a second
        b = " + ".join(["Z/6"] * 120 + ["Z^5"])
        a = " + ".join(["Z/4"] * 120 + ["Z^5"])
        start = time.perf_counter()
        code, _, err = run(capsys, "ext", "--B", b, "--A", a, "--n", "1")
        assert time.perf_counter() - start < 10
        assert code == cli.EXIT_DOMAIN
        assert "capped" in err

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
        # on the crown, at k = 16 sheaf-ext at n = 6 took 13.5 s before the
        # cap and is refused while it works; at k = 4 it answers in under
        # a second
        for k, cmd, n, expect in ((16, "sheaf-ext", 6, cli.EXIT_DOMAIN),
                                  (16, "external-ext", 1, cli.EXIT_DOMAIN),
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
        # epi_cover calls on the whole site: a resolution to depth k
        # makes k + 1 of them, and nothing else in a request makes any
        sizes, orig = [], poset_sheaf.PresheafContext.epi_cover

        def count(ctx, b):
            sizes.append(ctx.site.size)
            return orig(ctx, b)
        monkeypatch.setattr(poset_sheaf.PresheafContext, "epi_cover", count)
        return lambda: sizes.count(4)  # TREE has four elements

    @pytest.mark.parametrize("argv,sizes,covers", [
        (["sheaf-ext", "--method", "general"], [3, 2, 1, 2], 0),
        (["sheaf-ext", "--method", "fast"], [4], 5),
        (["sheaf-ext", "--method", "auto"], [3, 2, 1, 2], 0),
        (["external-ext"], [4], 5),
    ], ids=["general", "fast", "auto", "external-ext"])
    def test_one_resolution_per_down_set_or_site(self, capsys, monkeypatch,
                                                 argv, sizes, covers):
        # general, and auto with it, resolves the four down-sets of the
        # tree, and none of them is the whole site; fast and external-ext
        # resolve the site once, to degree 4
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
