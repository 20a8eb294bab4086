"""The kgraph command: pipelines, report shapes, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kgraphs import errors
from kgraphs.cli import main
from kgraphs.graphs import KGraph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


@pytest.fixture()
def pb2_file(tmp_path, capsys):
    code, out = run(capsys, "gen", "pullback-b2")
    assert code == 0
    path = tmp_path / "pb2.json"
    path.write_text(out)
    return str(path)


@pytest.fixture()
def b2_file(tmp_path, capsys):
    _, out = run(capsys, "gen", "b2")
    path = tmp_path / "b2.json"
    path.write_text(out)
    return str(path)


def test_gen_emits_canonical_graph(capsys):
    code, out = run(capsys, "gen", "b2")
    assert code == 0
    g = KGraph.from_json(out)
    assert g.to_json() == out          # byte-identical round trip
    code2, out2 = run(capsys, "gen", "b2")
    assert out2 == out                 # deterministic


def test_gen_single_vertex(capsys):
    code, out = run(capsys, "gen", "single-vertex", "--loops", "2,2")
    assert code == 0
    assert KGraph.from_json(out).validate().valid
    code, _ = run(capsys, "gen", "single-vertex")
    assert code == 3                   # --loops missing
    code, _ = run(capsys, "gen", "nonsense")
    assert code == 3


def test_validate_pipe(capsys, monkeypatch):
    _, out = run(capsys, "gen", "pullback-b2")
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, doc = run_json(capsys, "validate", "-")
    assert code == 0
    assert doc["valid"] is True


def test_validate_invalid_graph(tmp_path, capsys):
    _, out = run(capsys, "gen", "pullback-b2")
    doc = json.loads(out)
    doc["squares"][0]["blue2"] = "a1" \
        if doc["squares"][0]["blue2"] != "a1" else "a2"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, rep = run_json(capsys, "validate", str(bad))
    assert code == 1
    assert rep["valid"] is False


def test_info_shape(capsys, pb2_file):
    code, doc = run_json(capsys, "info", pb2_file)
    assert code == 0
    assert doc["rho"] == [2, 2]
    assert doc["x"] == {"v": "1"}
    assert doc["per_basis"] == [[1, -1]]
    assert doc["provenance"]["graph_sha256"]
    assert "timestamp" not in json.dumps(doc)


def test_info_deterministic(capsys, pb2_file):
    _, out1 = run(capsys, "info", pb2_file)
    _, out2 = run(capsys, "info", pb2_file)
    assert out1 == out2
    assert out1.endswith("\n")


def test_periodicity_report(capsys, pb2_file):
    code, doc = run_json(capsys, "periodicity", pb2_file)
    assert code == 0
    assert doc["basis"] == [[1, -1]]
    assert doc["rank"] == 1
    assert doc["aperiodic"] is False
    assert doc["bound"] == 2


def test_measure_commands(capsys, b2_file):
    code, doc = run_json(capsys, "measure", "mass", b2_file,
                         "--path", "e1.e2")
    assert code == 0 and doc["mass"] == "1/4"
    code, doc = run_json(capsys, "measure", "consistency", b2_file,
                         "--m", "1", "--n", "3")
    assert code == 0 and doc["passed"] is True and doc["exact"] is True
    code, doc = run_json(capsys, "measure", "shift", b2_file,
                         "--m", "1", "--n", "0", "--level", "3")
    assert code == 0
    assert doc["levels"] == ["1", "1/2", "1/4", "1/8"]
    code, doc = run_json(capsys, "measure", "decay", b2_file,
                         "--mu", "e1", "--nu", "v")
    assert code == 0 and doc["passed"] is True
    assert doc["K"] == "3/4" and doc["a"] == [2]


def test_measure_agreement_cli(capsys, pb2_file):
    code, doc = run_json(capsys, "measure", "agreement", pb2_file,
                         "--mu", "a1", "--nu", "b1", "--level", "3")
    assert code == 0
    assert doc["periodic"] is True and doc["theta_matched"] is True
    assert doc["closed_form"] == "1/2" and doc["level_bound"] == "1/2"


def test_kms_commands(capsys, pb2_file, b2_file):
    code, doc = run_json(capsys, "kms", "eval", pb2_file,
                         "--state", "z=1/4,0", "--mu", "a1", "--nu", "b1")
    assert code == 0
    assert doc["value"] == {"re": "0", "im": "1/2"}
    code, doc = run_json(capsys, "kms", "check", b2_file,
                         "--state", "haar", "--max-degree", "2")
    assert code == 0 and doc["passed"] is True
    assert doc["total_quadruples"] == 2401
    code, doc = run_json(capsys, "kms", "check", b2_file,
                         "--state", "haar", "--max-degree", "2",
                         "--theta-blind")
    assert code == 1 and doc["passed"] is False
    assert doc["failure_count"] > 0


def test_phase_and_toeplitz(capsys, pb2_file):
    code, doc = run_json(capsys, "phase", pb2_file, "--beta", "1")
    assert code == 0
    assert doc["extreme_points"] == "infinite"
    code, doc = run_json(capsys, "phase", pb2_file, "--beta", "3")
    assert doc["extreme_points"] == 1
    code, doc = run_json(capsys, "toeplitz", pb2_file,
                         "--beta", "1", "--r", "0.6931471805599453,"
                         "0.6931471805599453")
    assert code == 0
    assert doc["exists"] is True and doc["factors_through_quotient"] is True


def test_exit_codes(capsys, tmp_path, b2_file, monkeypatch):
    bad = tmp_path / "bad.txt"
    bad.write_text("not json")
    code, _ = run(capsys, "validate", str(bad))
    assert code == 3
    code, _ = run(capsys, "info", str(tmp_path / "missing.json"))
    assert code == 3
    code, _ = run(capsys, "info", b2_file, "--no-such-flag")
    assert code == 3
    code, _ = run(capsys, "measure", "mass", b2_file, "--path", "zzz")
    assert code == 3
    # a wrongly typed graph field is malformed input, not a traceback
    doc = json.loads(Path(b2_file).read_text())
    doc["vertices"] = 5
    bad.write_text(json.dumps(doc))
    code, _ = run(capsys, "validate", str(bad))
    assert code == 3
    # a tiny cap turns an honest computation into a bound failure
    code, _ = run(capsys, "measure", "consistency", b2_file,
                  "--m", "0", "--n", "12", "--cap", "100")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("gen", "single-vertex", "--loops", "x,2"),
    ("gen", "single-vertex", "--loops=-1,2"),
    ("gen", "single-vertex", "--loops", "2,2", "--squares", "[]"),
    ("gen", "single-vertex", "--loops", "2,2", "--squares", '{"1": []}'),
    ("gen", "single-vertex", "--loops", "2,2", "--squares",
     '{"1,2": [[1, 1, 1]]}'),
    ("gen", "single-vertex", "--loops", "2,2", "--squares",
     '{"1,2": [[1, 1, 1, "a"]]}'),
    ("phase", "GRAPH", "--beta", "abc"),
    ("phase", "GRAPH", "--beta", "1/0"),
    ("toeplitz", "GRAPH", "--beta", "1", "--r", "x,y"),
    ("kms", "check", "GRAPH", "--state", "z=1/0,0", "--max-degree", "1,1"),
    ("phase", "GRAPH", "--beta", "nan"),
    ("phase", "GRAPH", "--beta=-inf"),
    ("toeplitz", "GRAPH", "--beta", "inf", "--r", "1,1"),
    ("toeplitz", "GRAPH", "--beta", "1", "--r", "1,nan"),
    # exact literals whose float() would overflow
    ("toeplitz", "GRAPH", "--beta", "1e400", "--r", "1,1"),
    ("toeplitz", "GRAPH", "--beta", "1", "--r", "1e400,1"),
    ("kms", "eval", "GRAPH", "--state", "z=1/3,1e400", "--mu", "a1",
     "--nu", "b1"),
    ("kms", "check", "GRAPH", "--state", "z=inf,0", "--max-degree", "1,1"),
    ("measure", "consistency", "GRAPH", "--m", "1,0", "--n", "1,1",
     "--tol", "nan"),
    ("measure", "consistency", "GRAPH", "--m", "1,0", "--n", "1,1",
     "--tol=-1e-9"),
    ("kms", "check", "GRAPH", "--state", "haar", "--max-degree", "1,1",
     "--theta-blind", "--tol", "nan"),
    ("kms", "check", "GRAPH", "--state", "haar", "--max-degree", "1,1",
     "--tol", "inf"),
    # a negative count or bound would run an empty or meaningless check
    ("measure", "decay", "GRAPH", "--mu", "a1", "--nu", "v", "--j-max", "-1"),
    ("measure", "decay", "GRAPH", "--mu", "a1", "--nu", "v", "--a-max", "-1"),
    ("measure", "shift", "GRAPH", "--m", "1,0", "--n", "0,1", "--level=-1"),
    ("measure", "agreement", "GRAPH", "--mu", "a1", "--nu", "b1",
     "--level", "-1"),
    ("info", "GRAPH", "--cap", "-1"),
    # beta * r_1 overflows to inf, which is not JSON
    ("toeplitz", "GRAPH", "--beta", "1e308", "--r", "1e308,1"),
    # squares for a color pair outside 1 <= i < j <= k
    ("gen", "single-vertex", "--loops", "2,2", "--squares",
     '{"2,1": [[1, 1, 1, 1]]}'),
    ("gen", "single-vertex", "--loops", "2,2", "--squares",
     '{"1,5": [[1, 1, 1, 1]]}'),
    ("gen", "single-vertex", "--loops", "2,2", "--squares", '{"1,2": ['),
], ids=" ".join)
def test_malformed_literals_exit_3(capsys, pb2_file, argv):
    code = main([pb2_file if a == "GRAPH" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("kgraph: input error")


SLICE = """
import contextlib, io, json, sys
from kgraphs.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules
                               if m.startswith("kgraphs."))]))
"""


SLICE_CASES = [
    (("gen", "pullback-b2"), {"kms", "measure", "periodicity"}),
    (("validate", "GRAPH"), {"kms", "measure", "periodicity"}),
    (("info", "GRAPH"), {"kms", "measure"}),
    (("periodicity", "GRAPH"), {"kms", "measure"}),
    (("measure", "mass", "GRAPH", "--path", "a1"), {"kms"}),
    (("measure", "consistency", "GRAPH", "--m", "1,0", "--n", "1,1"),
     {"kms"}),
    (("measure", "shift", "GRAPH", "--m", "1,0", "--n", "0,1"), {"kms"}),
    (("measure", "decay", "GRAPH", "--mu", "a1", "--nu", "v"), {"kms"}),
]


@pytest.mark.parametrize("argv, unused", SLICE_CASES,
                         ids=[" ".join(argv) for argv, _ in SLICE_CASES])
def test_command_imports_only_its_modules(pb2_file, argv, unused):
    # a fresh interpreter, so modules loaded by other tests do not count
    src = Path(__file__).resolve().parent.parent / "src"
    argv = [pb2_file if a == "GRAPH" else a for a in argv]
    out = subprocess.run(
        [sys.executable, "-c", SLICE, json.dumps(argv)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, check=True).stdout
    code, modules = json.loads(out)
    assert code == 0
    assert not {"kgraphs." + name for name in unused} & set(modules)


@pytest.mark.parametrize("command", ["periodicity", "info"])
def test_negative_search_bound_exits_3(capsys, pb2_file, command):
    # an empty search box would report the periodic pullback aperiodic
    code = main([command, pb2_file, "--bound", "-1"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("kgraph: input error")


def test_periodicity_search_box_is_capped(capsys, b2_file):
    # (2 * 10**9 + 1) candidate vectors: refused before any is built
    code = main(["info", b2_file, "--bound", "1000000000"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("kgraph: bound exceeded")


def test_gen_single_vertex_is_capped(capsys):
    # 2,001 loops and 1,001,000 flip squares: refused before any is built
    code = main(["gen", "single-vertex", "--loops", "1001,1000"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("kgraph: bound exceeded")


def test_kms_support_is_capped(capsys, b2_file):
    # b2 at box (2,): the honest support has 93 keys, the theta-blind 299
    argv = ["kms", "check", b2_file, "--state", "haar", "--max-degree", "2",
            "--cap", "200"]
    assert run(capsys, *argv)[0] == 0
    code = main(argv + ["--theta-blind"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("kgraph: bound exceeded")


def test_config_file(capsys, tmp_path, pb2_file):
    cfg = tmp_path / "kgraph.cfg"
    cfg.write_text("# defaults\nbound = 1\n")
    code, doc = run_json(capsys, "periodicity", pb2_file,
                         "--config", str(cfg))
    assert code == 0 and doc["bound"] == 1
    code, doc = run_json(capsys, "periodicity", pb2_file,
                         "--config", str(cfg), "--bound", "2")
    assert doc["bound"] == 2           # explicit flag wins
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery = 1\n")
    code, _ = run(capsys, "periodicity", pb2_file, "--config", str(bad))
    assert code == 3
    decay = ["measure", "decay", pb2_file, "--mu", "a1", "--nu", "v"]
    reader = {"tol": ["measure", "consistency", pb2_file, "--m", "1,0",
                      "--n", "1,1"],
              "bound": ["info", pb2_file], "cap": ["info", pb2_file],
              "level": ["measure", "shift", pb2_file, "--m", "1,0",
                        "--n", "0,1"],
              "a_max": decay, "j_max": decay}
    for key, value in [("tol", "nan")] + [(key, "-1") for key in reader]:
        # every comparison with NaN is false, so a NaN tol passes all
        bad.write_text(f"{key} = {value}\n")
        code = main(reader[key] + ["--config", str(bad)])
        out, err = capsys.readouterr()
        assert code == 3 and out == "", key
        assert err.startswith("kgraph: input error")


@pytest.mark.parametrize("argv", [
    ("validate", "GRAPH", "--cap", "5"),
    ("measure", "mass", "GRAPH", "--path", "a1", "--cap", "5"),
], ids=" ".join)
def test_options_only_where_listed(capsys, pb2_file, argv):
    # a command refuses the options its COMMANDS row does not list
    code = main([pb2_file if a == "GRAPH" else a for a in argv])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert "kgraph: error: unrecognized arguments: --cap 5" in err


EMPTY_GRAPH = '{"k": 1, "vertices": [], "edges": [], "squares": []}'


def test_empty_graph(capsys, tmp_path):
    # valid, but no box sum of its (empty) matrices is entrywise positive
    empty = tmp_path / "empty.json"
    empty.write_text(EMPTY_GRAPH)
    code, doc = run_json(capsys, "validate", str(empty))
    assert code == 0 and doc["valid"] is True
    code = main(["info", str(empty)])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("kgraph: validation failure: no box sum")


# every KGraphError class, the base included, with its exit code: a class
# added without an entry here fails the test below
EXIT_CODES = {
    "KGraphError": 1, "GraphValidationError": 1, "CompositionError": 1,
    "SegmentRangeError": 1, "NotStronglyConnectedError": 1,
    "NotIrreducibleError": 1, "NotPeriodicError": 1,
    "BoundError": 2, "ConvergenceError": 2, "NonConstantRatioError": 2,
    "PeriodicityUndecidedError": 2, "EnumerationCapError": 2,
    "WitnessSearchError": 2,
    "InputFormatError": 3,
}
KINDS = {1: "validation failure", 2: "bound exceeded", 3: "input error"}


def error_classes(cls=errors.KGraphError):
    yield cls
    for sub in cls.__subclasses__():
        yield from error_classes(sub)


def test_every_error_class_has_its_exit_code():
    classes = set(error_classes())
    assert {c.__name__: c.exit_code for c in classes} == EXIT_CODES
    assert all(c.kind == KINDS[c.exit_code] for c in classes)


@pytest.mark.parametrize("argv, code", [
    (("info", "EMPTY"), 1),
    # A^0 = I is positive on one vertex, but the zero A_1 has no Perron data
    (("info", "NO_EDGES"), 1),
    (("periodicity", "GRAPH", "--bound", "99999"), 2),
    (("validate", "NOT_JSON"), 3),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v))
def test_error_exit_code_and_kind(capsys, tmp_path, pb2_file, argv, code):
    files = {"GRAPH": pb2_file, "EMPTY": tmp_path / "empty.json",
             "NO_EDGES": tmp_path / "no-edges.json",
             "NOT_JSON": tmp_path / "bad.json"}
    files["EMPTY"].write_text(EMPTY_GRAPH)
    files["NO_EDGES"].write_text(json.dumps(graph_doc()))
    files["NOT_JSON"].write_text("not json")
    assert main([str(files.get(a, a)) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"kgraph: {KINDS[code]}: ")


def run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def graph_doc(**fields):
    return dict({"k": 1, "vertices": ["v"], "edges": [], "squares": []},
                **fields)


LOOP = {"id": "e", "color": 1, "range": "v", "source": "v"}
# each document trips one refusal of KGraph or KGraph.from_json_dict
REFUSED = {
    "duplicate vertex ids": graph_doc(vertices=["v", "v"]),
    "empty vertex id": graph_doc(vertices=["v", ""]),
    "vertex id with a dot": graph_doc(vertices=["v", "v.w"]),
    "bad edge id": graph_doc(edges=[dict(LOOP, id="e.f")]),
    "id used twice": graph_doc(edges=[LOOP, LOOP]),
    "edge id of a vertex": graph_doc(edges=[dict(LOOP, id="v")]),
    "color outside 1..k": graph_doc(edges=[dict(LOOP, color=2)]),
    "square names an unknown edge": graph_doc(edges=[LOOP], squares=[
        {"blue": "e", "red": "f", "red2": "f", "blue2": "e"}]),
    "not an object": [graph_doc()],
    "unknown fields": graph_doc(colors=1),
}


@pytest.mark.parametrize("doc", REFUSED.values(), ids=REFUSED.keys())
def test_refused_documents_exit_3(tmp_path, doc):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(doc))
    code, out, err = run_quiet(["validate", str(path)])
    assert code == 3 and out == ""
    assert err.startswith("kgraph: input error: ")


def test_oversized_rank_exits_3_at_once(tmp_path):
    # refused before any per-color table is built: a process that builds
    # them is stopped by the timeout, before it can exhaust memory
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_doc(k=99999999999)))
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "kgraphs.cli", "validate", str(path)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
        text=True, timeout=1)
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr.startswith("kgraph: input error: rank k")


def test_cubical_walk_exits_2(tmp_path):
    # every color the 2-cycle u <-> w: a valid graph with 2 C(k, 3) chains
    # of ascending colors, 1,102,600 at k = 150, past the default cap
    k = 150
    edges = [{"id": f"{v}{c}", "color": c, "range": v,
              "source": "w" if v == "u" else "u"}
             for c in range(1, k + 1) for v in "uw"]
    squares = [{"blue": f"{v}{i}", "red": f"{o}{j}", "red2": f"{v}{j}",
                "blue2": f"{o}{i}"}
               for i in range(1, k + 1) for j in range(i + 1, k + 1)
               for v, o in ("uw", "wu")]
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph_doc(k=k, vertices=["u", "w"],
                                         edges=edges, squares=squares)))
    code, out, err = run_quiet(["validate", str(path)])
    assert code == 2 and out == ""
    assert err == ("kgraph: bound exceeded: cubical check walks 1102600 "
                   "chains of ascending colors, exceeds cap 1000000\n")


# ----------------------------------------------------------------------
# fuzzing the boundary: no input ends in a traceback

def assert_clean_exit(argv):
    """main raises nothing and returns 0-3; a nonzero exit is a negative
    verdict reported on stdout or comes with a kgraph line on stderr."""
    code, out, err = run_quiet(argv)
    assert code in (0, 1, 2, 3), argv
    if code and out:
        assert code == 1 and json.loads(out)["provenance"], argv
    elif code:
        assert any(line.startswith("kgraph") for line in err.splitlines()), \
            (argv, err)


# a value of some JSON type other than the field's
WRONG = st.one_of(st.none(), st.booleans(), st.floats(-2, 2),
                  st.text(max_size=2), st.lists(st.integers(0, 2), max_size=2),
                  st.dictionaries(st.text(max_size=1), st.integers(0, 1),
                                  max_size=1))


def field(good):
    """Mostly a value of the right type, sometimes one of the wrong type."""
    return st.one_of(good, good, good, WRONG)


VERTEX = st.sampled_from(["u", "v", "w"])
EDGE_ID = st.sampled_from(["a", "b", "c", "d"])
EDGE = field(st.fixed_dictionaries({
    "id": field(EDGE_ID), "color": field(st.integers(-1, 3)),
    "range": field(VERTEX), "source": field(VERTEX)}))
SQUARE = field(st.fixed_dictionaries(
    {key: field(EDGE_ID) for key in ("blue", "red", "red2", "blue2")}))
# k stays small, so that edge colors often fall in 1..k
DOCUMENTS = st.fixed_dictionaries({
    "k": field(st.integers(-1, 3)),
    "vertices": field(st.lists(VERTEX, max_size=3)),
    "edges": field(st.lists(EDGE, max_size=4)),
    "squares": field(st.lists(SQUARE, max_size=4))})


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=60)
@given(DOCUMENTS)
def test_fuzz_graph_documents(fuzz_dir, doc):
    path = fuzz_dir / "graph.json"
    path.write_text(json.dumps(doc))
    assert_clean_exit(["validate", str(path)])
    assert_clean_exit(["info", str(path), "--bound", "1"])


LITERAL_ARGV = [
    ("kms", "eval", "GRAPH", "--state={}", "--mu", "a1", "--nu", "b1"),
    ("kms", "eval", "GRAPH", "--state", "z=1/4,0", "--mu={}", "--nu", "b1"),
    ("kms", "eval", "GRAPH", "--state", "haar", "--mu", "a1", "--nu={}"),
    ("measure", "mass", "GRAPH", "--path={}"),
    ("toeplitz", "GRAPH", "--beta={}", "--r", "1,1"),
    ("toeplitz", "GRAPH", "--beta", "1", "--r={}"),
    ("phase", "GRAPH", "--beta={}"),
]
LITERALS = st.one_of(
    st.text(st.sampled_from("0123456789-+./,=eEinfazhrb "), max_size=8),
    st.sampled_from(["haar", "z=1/4,0", "z=0.1,1/3", "a1.b2", "v", "inf",
                     "nan", "1e308", "1e308,1e308", "1/0", "-0"]))


@pytest.fixture(scope="module")
def fuzz_graph(fuzz_dir):
    path = fuzz_dir / "pullback-b2.json"
    code, out, _ = run_quiet(["gen", "pullback-b2"])
    path.write_text(out)
    return str(path)


@settings(max_examples=60)
@given(st.sampled_from(LITERAL_ARGV), LITERALS)
def test_fuzz_literals(fuzz_graph, argv, text):
    assert_clean_exit([fuzz_graph if a == "GRAPH" else a.format(text)
                       for a in argv])
