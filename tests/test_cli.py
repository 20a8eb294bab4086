"""The kgraph command: pipelines, report shapes, determinism, exit codes."""

import io
import json

import pytest

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
], ids=" ".join)
def test_malformed_literals_exit_3(capsys, pb2_file, argv):
    code = main([pb2_file if a == "GRAPH" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("kgraph: input error")


def test_periodicity_search_box_is_capped(capsys, b2_file):
    # (2 * 10**9 + 1) candidate vectors: refused before any is built
    code = main(["info", b2_file, "--bound", "1000000000"])
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
