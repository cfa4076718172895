"""Pinned stdout and exit code of a fixed corpus of CLI commands.

Every subcommand runs in-process on the documents below, some commands in
both output formats, and each result must match tests/fixtures/
cli_corpus.json byte for byte.  A change that alters printed output
regenerates the fixture with

    PYTHONPATH=src python tests/test_cli_corpus.py

and states in its change notes how many outputs changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from extcalc import cli

FIXTURE = Path(__file__).parent / "fixtures" / "cli_corpus.json"

_BOWTIE_PAIRS = [[0, 1], [0, 2], [1, 3], [1, 4], [2, 3], [2, 4], [0, 3], [0, 4]]

DOCUMENTS = {
    "ab": {
        "groups": {"F": {"gens": 2, "relations": [[2, 4], [0, 6]]},
                   "H": "Z/2 + Z/4"},
        "matrices": {"m": [[2, 4, 4], [-6, 6, 12], [10, -4, -16]],
                     "zero": [[0, 0]]},
        "homs": {"i24": {"src": "Z/2", "tgt": "Z/4", "matrix": [[2]]},
                 "p42": {"src": "Z/4", "tgt": "Z/2", "matrix": [[1]]},
                 "inz": {"src": "Z", "tgt": "Z + Z/2", "matrix": [[1], [0]]},
                 "prz": {"src": "Z + Z/2", "tgt": "Z/2",
                         "matrix": [[0, 1]]}},
        "sequences": {"s4": {"i": "i24", "p": "p42"},
                      "split": {"i": "inz", "p": "prz"}},
    },
    "zg": {
        "finite_groups": {
            "C2": "cyclic 2", "C3": "cyclic 3",
            "V4": {"table": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1],
                             [3, 2, 1, 0]]},
            "S3": {"table": [[0, 1, 2, 3, 4, 5], [1, 0, 4, 5, 2, 3],
                             [2, 3, 0, 1, 5, 4], [3, 2, 5, 4, 0, 1],
                             [4, 5, 1, 0, 3, 2], [5, 4, 3, 2, 1, 0]]}},
        "gmodules": {
            "signZ": {"group": "C2", "module": "Z", "action": {"1": [[-1]]}},
            "neg4": {"group": "C2", "module": "Z/4", "action": {"1": [[3]]}},
            "perm": {"group": "C2", "module": "Z^2",
                     "action": {"1": [[0, 1], [1, 0]]}},
            "chi": {"group": "V4", "module": "Z",
                    "action": {"1": [[-1]], "2": [[1]], "3": [[-1]]}}},
    },
    "bad_gmodule": {
        "finite_groups": {"C2": "cyclic 2"},
        "gmodules": {"two": {"group": "C2", "module": "Z/4",
                             "action": {"1": [[2]]}}},
    },
    "tree": {
        "posets": {"T": {"size": 4, "relations": [[0, 1], [0, 2], [1, 3]]}},
        "presheaves": {
            "F": {"poset": "T", "stalks": ["Z/4", "Z/2", "Z", "Z/2"],
                  "res": {"0<=1": [[2]], "0<=2": [[1]], "1<=3": [[1]],
                          "0<=3": [[2]]}},
            "G": {"poset": "T", "stalks": ["Z", "Z/3 + Z", "Z/6", "Z^2"],
                  "res": {"0<=1": [[0, 2]], "0<=2": [[0]],
                          "1<=3": [[1, 1], [0, 3]], "0<=3": [[0, 6]]}},
        },
    },
    "sierpinski": {
        "posets": {"S": {"size": 2, "relations": [[0, 1]]}},
        "presheaves": {
            "quot": {"poset": "S", "stalks": ["0", "Z/2"],
                     "res": {"0<=1": []}},
            "y0": {"poset": "S", "stalks": ["Z", "0"], "res": {"0<=1": [[]]}},
        },
    },
    "bowtie": {
        "posets": {"B": {"size": 5, "relations": _BOWTIE_PAIRS[:6]},
                   "C3": {"size": 3, "relations": [[0, 1], [1, 2]]},
                   # a second bowtie stacked on the first, tops 3 and 4
                   "BB": {"size": 7, "relations": _BOWTIE_PAIRS[:6] + [
                       [3, 5], [4, 5], [3, 6], [4, 6]]}},
        "presheaves": {
            "K": {"poset": "B", "stalks": ["Z/2"] * 5,
                  "res": {f"{d}<={c}": [[1]] for d, c in _BOWTIE_PAIRS}},
        },
    },
}

# (document, argv, formats)
HUMAN, BOTH = ("human",), ("human", "machine")
COMMANDS = [
    ("ab", ["snf", "--matrix", "m"], BOTH),
    ("ab", ["snf", "--matrix", "zero"], HUMAN),
    ("ab", ["group", "--group", "F"], BOTH),
    ("ab", ["group", "--group", "Z^2 + Z/4 + Z/6"], HUMAN),
    ("ab", ["hom", "--src", "Z/12", "--tgt", "Z/18"], HUMAN),
    ("ab", ["hom", "--src", "F", "--tgt", "H"], BOTH),
    ("ab", ["ext", "--B", "Z/4", "--A", "Z/6"], HUMAN),
    ("ab", ["ext", "--B", "F", "--A", "H", "--max-deg", "2"], BOTH),
    ("ab", ["ext", "--B", "Z", "--A", "Z/9", "--n", "1"], HUMAN),
    ("ab", ["baer", "--B", "Z/4", "--A", "Z/6"], BOTH),
    ("ab", ["baer", "--B", "H", "--A", "Z/2", "--i", "1,0", "--j", "1,1"],
     BOTH),
    ("ab", ["baer", "--B", "Z/4", "--A", "Z/6", "--i", "1"], HUMAN),
    ("ab", ["six-term", "--ses", "s4", "--M", "Z/2"], BOTH),
    ("ab", ["six-term", "--ses", "s4", "--M", "H", "--variance", "contra"],
     HUMAN),
    ("ab", ["six-term", "--ses", "split", "--M", "Z/4"], HUMAN),
    ("ab", ["six-term", "--ses", "nope", "--M", "Z"], HUMAN),
    ("zg", ["group-cohomology", "--G", "C2", "--max-deg", "4"], BOTH),
    ("zg", ["group-cohomology", "--G", "C2", "--M", "neg4", "--n", "2"],
     HUMAN),
    ("zg", ["group-cohomology", "--G", "V4", "--M", "chi", "--n", "3"],
     HUMAN),
    ("zg", ["group-cohomology", "--G", "S3", "--max-deg", "4"], BOTH),
    ("zg", ["group-cohomology", "--G", "C3", "--n", "7"], HUMAN),
    ("zg", ["fixed-points", "--M", "perm"], BOTH),
    ("zg", ["fixed-points", "--M", "signZ"], HUMAN),
    ("bad_gmodule", ["fixed-points", "--M", "two"], HUMAN),
    ("tree", ["sheaf-ext", "--B", "F", "--A", "G", "--n", "1"], BOTH),
    ("tree", ["sheaf-ext", "--B", "G", "--A", "F", "--max-deg", "2",
              "--method", "fast"], BOTH),
    ("tree", ["sheaf-ext", "--B", "F", "--A", "F", "--n", "1",
              "--method", "auto"], BOTH),
    ("tree", ["sheaf-ext", "--B", "G", "--A", "F", "--n", "2"], HUMAN),
    ("sierpinski", ["sheaf-ext", "--B", "quot", "--A", "y0", "--n", "2"],
     BOTH),
    ("bowtie", ["sheaf-ext", "--B", "K", "--A", "K", "--n", "1",
                "--method", "auto"], BOTH),
    ("bowtie", ["sheaf-ext", "--B", "K", "--A", "K", "--n", "1",
                "--method", "fast"], HUMAN),
    ("bowtie", ["sheaf-ext", "--B", "K", "--A", "K", "--max-deg", "2",
                "--method", "general"], BOTH),
    ("bowtie", ["sheaf-ext", "--B", "K", "--A", "K", "--max-deg", "2",
                "--method", "auto"], BOTH),
    ("tree", ["external-ext", "--B", "F", "--A", "G", "--max-deg", "2"],
     BOTH),
    ("sierpinski", ["external-ext", "--B", "quot", "--A", "y0"], HUMAN),
    ("sierpinski", ["external-ext", "--B", "quot", "--A", "y0",
                    "--max-deg", "3"], BOTH),
    ("tree", ["global-sections", "--F", "G"], BOTH),
    ("bowtie", ["global-sections", "--F", "K"], HUMAN),
    # the slowest command: its components show only in machine form
    ("bowtie", ["witness-search", "--poset", "B", "--c", "3"], ("machine",)),
    ("bowtie", ["witness-search", "--poset", "BB", "--c", "3"], ("machine",)),
    ("bowtie", ["witness-search", "--poset", "C3", "--c", "2"], HUMAN),
    ("bowtie", ["witness-search", "--poset", "C3", "--c", "5"], HUMAN),
]


def _runs():
    for doc, argv, formats in COMMANDS:
        for fmt in formats:
            yield doc, argv, fmt


def _key(doc, argv, fmt):
    return " ".join([doc, *argv, "--format", fmt])


def _run(paths, doc, argv, fmt):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([*argv, "--input", str(paths[doc]), "--format", fmt])
    return {"code": code, "stdout": out.getvalue()}


def _write_documents(directory):
    paths = {}
    for name, doc in DOCUMENTS.items():
        paths[name] = Path(directory) / f"{name}.json"
        paths[name].write_text(json.dumps(doc), encoding="utf-8")
    return paths


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    return _write_documents(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_corpus_covers_every_subcommand_and_the_fixture(pinned):
    used = {argv[0] for _, argv, _ in COMMANDS}
    assert used == set(cli._HANDLERS)
    assert set(pinned) == {_key(*run) for run in _runs()}


@pytest.mark.parametrize("doc,argv,fmt", list(_runs()),
                         ids=[_key(*run) for run in _runs()])
def test_output_is_pinned(documents, pinned, doc, argv, fmt):
    assert _run(documents, doc, argv, fmt) == pinned[_key(doc, argv, fmt)]


def _general_argv(argv):
    if "--method" in argv:
        at = argv.index("--method")
        argv = argv[:at] + argv[at + 2:]
    return [*argv, "--method", "general"]


_SHEAF_EXT = sorted({(doc, tuple(_general_argv(argv)))
                     for doc, argv, _ in COMMANDS if argv[0] == "sheaf-ext"})


@pytest.mark.parametrize("doc,argv", _SHEAF_EXT, ids=[
    " ".join([doc, *argv]) for doc, argv in _SHEAF_EXT])
def test_auto_prints_what_general_prints(documents, doc, argv):
    # auto is the general path: the same bytes but for the method field
    auto = [*argv[:-1], "auto"]
    assert (_run(documents, doc, auto, "human")
            == _run(documents, doc, argv, "human"))
    outs = [_run(documents, doc, a, "machine") for a in (auto, argv)]
    assert outs[0]["code"] == outs[1]["code"] == 0
    got, want = (json.loads(out["stdout"]) for out in outs)
    assert (got.pop("method"), want.pop("method")) == ("auto", "general")
    assert got == want


def eager_document(raw):
    """Every definition of a document built in section order, before any
    command runs: the document builder from before sections were lazy,
    kept as the oracle of the lazy one."""
    doc = SimpleNamespace(raw=raw)
    builders = (
        ("groups", "group", lambda doc, name, desc: cli.group_from_desc(
            desc, None, f"group {name!r}")),
        ("matrices", "matrix", lambda doc, name, desc: cli._free_matrix(
            desc, f"matrix {name!r}")),
        ("homs", "hom", cli.Document._hom),
        ("sequences", "sequence", cli.Document._sequence),
        ("finite_groups", "finite group", cli.Document._finite_group),
        ("gmodules", "gmodule", cli.Document._gmodule),
        ("posets", "poset", cli.Document._poset),
        ("presheaves", "presheaf", cli.Document._presheaf),
    )
    for key, label, build in builders:
        store = {}
        setattr(doc, key, store)
        for name, desc in cli._section(raw, key).items():
            try:
                store[name] = build(doc, name, desc)
            except cli._VALIDATION_ERRORS as exc:
                raise type(exc)(f"{label} {name!r}: {exc}") from exc
    return doc


def _comparable(key, value):
    # a sequence has no ==; it is its three groups and two maps
    if key == "sequences":
        return (value.A, value.E, value.B, value.i, value.p)
    return value


_FIXTURES = {path.name: json.loads(path.read_text(encoding="utf-8"))
             for path in sorted((Path(cli.__file__).parent / "fixtures")
                                .glob("*.json"))}
_ORACLE_DOCS = {**DOCUMENTS, **_FIXTURES}


def _read_all(doc):
    """Every definition of a document, read last section first, so that
    each reference is built on demand by the definition that names it."""
    return {key: {n: getattr(doc, key)[n]
                  for n in reversed(list(getattr(doc, key)))}
            for key in reversed(cli._SECTIONS)}


@pytest.mark.parametrize("name", sorted(_ORACLE_DOCS))
def test_lazy_reads_match_the_eager_build(name):
    raw = _ORACLE_DOCS[name]
    try:
        eager = eager_document(raw)
    except cli._VALIDATION_ERRORS as exc:
        assert name == "bad_gmodule"
        with pytest.raises(type(exc)) as lazy:
            _read_all(cli.Document(raw))
        assert type(lazy.value) is type(exc)
        assert str(lazy.value) == str(exc)
        return
    assert name != "bad_gmodule"
    for key, defs in _read_all(cli.Document(raw)).items():
        want = getattr(eager, key)
        assert set(defs) == set(want)
        for n, value in defs.items():
            assert _comparable(key, value) == _comparable(key, want[n]), n


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        paths = _write_documents(tmp)
        outputs = {_key(*run): _run(paths, *run) for run in _runs()}
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.stdout.write(f"wrote {len(outputs)} outputs to {FIXTURE}\n")
