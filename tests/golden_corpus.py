"""Golden corpus for the kgraph CLI: every case's argv, and its exit code,
stdout and stderr rendered as the text kept in tests/golden/<case>.txt.

Needs only the standard library and kgraphs, so it runs on a bare
interpreter:

    PYTHONPATH=src python tests/golden_corpus.py --check

compares every case with its golden file byte for byte, names each case
that differs and exits 1 if any does.  Without ``--check`` it rewrites the
corpus; after an intended output change, do that and review the diff.
"""

import contextlib
import io
import pathlib
import sys
import tempfile

from kgraphs import builders, cli

GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURES = ("b2", "fib", "pullback-b2", "product-b2-c2")
CONFIG = "# golden defaults\nbound = 1\ntol = 0.001\nlevel = 2\n"

# per fixture: mass path, agreement mu/nu, decay mu/nu, kms eval mu/nu
PATHS = {
    "b2": ("e1.e2", ("e1", "e2"), ("e1", "v"), ("e1", "e1")),
    "fib": ("euu.euv", ("euu", "evu"), ("euu", "u"), ("euu", "euu")),
    "pullback-b2": ("a1.b2", ("a1", "b1"), ("a1", "v"), ("a1", "b1")),
    "product-b2-c2": ("e1:w1.v:g1", ("v:g1.v:g2", "v:w1"),
                      ("e1:w1", "v:w1"), ("e1:w1", "e1:w1")),
}


def command_args(command, fixture):
    """The options a command runs with on a fixture (the graph file apart);
    a command missing here runs with none and has no golden file."""
    rank1 = fixture in ("b2", "fib")
    ones, zero, e1 = ("1", "0", "1") if rank1 else ("1,1", "0,0", "1,0")
    path, (amu, anu), (dmu, dnu), (emu, enu) = PATHS[fixture]
    return {
        "validate": [],
        "info": [],
        "periodicity": ["--bound", "2"],
        "measure mass": ["--path", path],
        "measure consistency": ["--m", e1, "--n", "2" if rank1 else "2,2"],
        "measure shift": ["--m", e1, "--n", zero, "--level", "3"],
        "measure agreement": ["--mu", amu, "--nu", anu, "--level", "3"],
        "measure decay": ["--mu", dmu, "--nu", dnu],
        "kms eval": ["--state", "z=1/4" if rank1 else "z=1/4,0",
                     "--mu", emu, "--nu", enu],
        "kms check": ["--state", "haar", "--max-degree", ones],
        "phase": ["--beta", "1"],
        "toeplitz": ["--beta", "1", "--r", "0.7" if rank1 else "0.7,0.7"],
    }.get(command, [])


# argv placeholders for the fixture's graph file and the CONFIG file
GRAPH, CFG = "<graph>", "<config>"


def command_cases(command):
    """Every golden case of one command: one per fixture plus variants."""
    words = command.split()
    slug = "-".join(words)
    cases = []
    for f in FIXTURES:
        base = words + [GRAPH] + command_args(command, f)
        cases.append((f"{slug}/{f}", f, base))
        if command in ("kms eval", "kms check"):
            cases.append((f"{slug}/{f}-theta-blind", f,
                          base + ["--theta-blind"]))
    extra = {
        "info": [("b2-config", "b2", ["--config", CFG])],
        "periodicity": [("pullback-b2-config", "pullback-b2",
                         ["--config", CFG]),
                        ("pullback-b2-flag-beats-config", "pullback-b2",
                         ["--config", CFG, "--bound", "2"]),
                        ("pullback-b2-bound-6", "pullback-b2",
                         ["--bound", "6"])],
        "measure consistency": [("b2-over-cap", "b2",
                                 ["--m", "0", "--n", "12", "--cap", "100"])],
        "measure shift": [("b2-default-level", "b2",
                           ["--m", "1", "--n", "0"]),
                          ("pullback-b2-config", "pullback-b2",
                           ["--m", "1,0", "--n", "0,0", "--config", CFG])],
        "kms check": [("b2-config", "b2",
                       ["--state", "z=1/4", "--max-degree", "1",
                        "--config", CFG]),
                      ("pullback-b2-box-2,2-theta-blind", "pullback-b2",
                       ["--state", "z=1/4,0", "--max-degree", "2,2",
                        "--theta-blind"]),
                      ("product-b2-c2-box-2,2-theta-blind", "product-b2-c2",
                       ["--state", "haar", "--max-degree", "2,2",
                        "--theta-blind"])],
        "phase": [("pullback-b2-beta-fraction", "pullback-b2",
                   ["--beta", "3/2"]),
                  ("fib-beta-float", "fib", ["--beta", "2.5"])],
    }.get(command, [])
    cases += [(f"{slug}/{name}", f, words + [GRAPH] + argv)
              for name, f, argv in extra]
    return cases


def gen_cases():
    return [(f"gen/{f}", None, ["gen", f]) for f in FIXTURES] + [
        ("gen/single-vertex", None,
         ["gen", "single-vertex", "--loops", "2,3"]),
        ("gen/single-vertex-squares", None,
         ["gen", "single-vertex", "--loops", "2,2", "--squares",
          '{"1,2": [[1,1,1,1], [1,2,2,1], [2,1,1,2], [2,2,2,2]]}']),
        ("gen/unknown", None, ["gen", "nonsense"]),
    ]


def all_cases():
    """gen's cases, then every row of the command table on every fixture."""
    return gen_cases() + [c for cmd in cli.COMMANDS
                          for c in command_cases(cmd)]


CASES = all_cases()


def write_inputs(directory):
    """Fixture graph files and the config file; returns their paths."""
    files = {}
    for name in FIXTURES:
        files[name] = directory / f"{name}.json"
        files[name].write_text(builders.FIXTURES[name]().to_json())
    files[CFG] = directory / "golden.cfg"
    files[CFG].write_text(CONFIG)
    return files


def run_case(fixture, argv, files):
    """Run kgraph in process; the result rendered as its golden text."""
    argv = [str(files[fixture]) if a == GRAPH else
            str(files[CFG]) if a == CFG else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n--- stdout\n{out.getvalue()}--- stderr\n" \
           f"{err.getvalue()}"


def regenerate(inputs):
    for case, fixture, argv in CASES:
        target = GOLDEN / f"{case}.txt"
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(run_case(fixture, argv, inputs), encoding="utf-8")
    return 0


def check(inputs):
    differ = []
    for case, fixture, argv in CASES:
        golden = GOLDEN / f"{case}.txt"
        if not golden.exists() or run_case(fixture, argv, inputs) != \
                golden.read_text(encoding="utf-8"):
            print(f"golden case differs: {case}", file=sys.stderr)
            differ.append(case)
    print(f"{len(CASES) - len(differ)} of {len(CASES)} golden cases match")
    return 1 if differ else 0


if __name__ == "__main__":
    if sys.argv[1:] not in ([], ["--check"]):
        sys.exit("usage: golden_corpus.py [--check]")
    with tempfile.TemporaryDirectory() as tmp:
        files = write_inputs(pathlib.Path(tmp))
        sys.exit(check(files) if sys.argv[1:] else regenerate(files))
