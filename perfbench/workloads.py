"""The benchmark's four workloads: their set-up, operations and output checks.

An operation is one public call that returns a report or verdict, or one
`kgraph` invocation.  Each operation carries a check that returns None when
the output is right and a one-line reason when it is wrong.  Fixture outputs
are compared with the values pinned in `pins.py`; outputs on the seeded graph
are checked against invariants that hold for every seed.

Library calls go through module attributes (`perron.perron_data`, not a name
imported once), so the traced run sees the wrappers that `spans.py` installs.
"""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

import numpy as np

from kgraphs import builders, cli, kms, measure, periodicity, perron
from kgraphs.graphs import KGraph

import pins
from seeded import seeded_graph, squares_flag

FIXTURES = ("b2", "fib", "pullback-b2", "product-b2-c2")
RANK3 = "single-vertex-2,2,2"
STATE_BOXES = (("pullback-b2", (2, 2)), ("product-b2-c2", (2, 2)),
               ("fib", (2,)))
CLI_TIMEOUT_S = 120
# kms-cold runs the seven checks that take a quarter second or more once and
# the other nineteen COLD_ROUNDS times, and structure its quick analyses
# STRUCTURE_ROUNDS times per pass: an operation's latency is the median of
# its executions (see summary.end_to_end), and a single timing of a 40 ms
# check follows the machine's speed of the moment
COLD_ONCE = {("pullback-b2", (2, 1)), ("pullback-b2", (2, 2)),
             ("product-b2-c2", (2, 2)), ("seeded", (2, 1))}
COLD_ROUNDS = 4
STRUCTURE_ROUNDS = 4


class SetupError(Exception):
    """The inputs could not be prepared or failed their own checks."""


class Op(NamedTuple):
    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    size: Callable[[object], dict] = lambda result: {}


# ----------------------------------------------------------------------
# checks

def pinned(table, key, digest):
    """A check comparing digest(result) with pins.<table>[key]."""
    def check(result):
        want = getattr(pins, table)[key]
        got = digest(result)
        return None if got == want else f"got {got!r}, pinned {want!r}"
    return check


def _spectral_radii(graph):
    return [max(abs(z) for z in np.linalg.eigvals(np.array(m, dtype=float)))
            for m in graph.coordinate_matrices()]


def check_single_vertex_perron(graph, rho):
    """rho = (rho_1, ..) and x = (1) exactly, and rho matches numpy."""
    def check(pd):
        if pd.rho_exact != tuple(Fraction(r) for r in rho):
            return f"rho {pd.rho_exact} != {rho}"
        if pd.x_exact != (Fraction(1),):
            return f"x {pd.x_exact} != (1,)"
        radii = _spectral_radii(graph)
        if any(abs(a - b) > 1e-9 for a, b in zip(radii, rho)):
            return f"numpy spectral radii {radii} != {rho}"
        return None
    return check


def perron_digest(pd):
    if pd.exact:
        return ("exact", tuple(map(str, pd.rho_exact)),
                tuple(zip(pd.labels, map(str, pd.x_exact))))
    return ("float", tuple(round(v, 9) for v in pd.rho),
            tuple(zip(pd.labels, (round(v, 9) for v in pd.x))))


def kms_digest(rep):
    return (rep.support_size, rep.explicit_checked, rep.failure_count,
            rep.passed)


def kms_size(rep):
    return {"supported_keys": rep.support_size,
            "quadruples_in_box": rep.total_quadruples}


# ----------------------------------------------------------------------
# shared set-up: fixtures, the seeded graph, JSON round trip, validation

def load_graphs(seed):
    """Build every input graph and round-trip it through JSON.

    Returns {name: canonical JSON text}; every text parses back to a valid
    graph that serializes to the same bytes."""
    made = {name: builders.FIXTURES[name]() for name in FIXTURES}
    made["seeded"] = seeded_graph(seed)
    made[RANK3] = builders.make_single_vertex(3, [2, 2, 2])
    texts = {}
    for name, graph in made.items():
        text = graph.to_json()
        back = KGraph.from_json(text)
        if not back.validate().valid:
            raise SetupError(f"{name}: graph fails validation")
        if back.to_json() != text:
            raise SetupError(f"{name}: JSON round trip changed the bytes")
        texts[name] = text
    return texts


def fresh(text):
    """A new graph with empty caches, validated."""
    graph = KGraph.from_json(text)
    graph.require_valid()
    return graph


def boxes(name):
    if name in ("b2", "fib"):
        return ((1,), (2,), (3,))
    return ((1, 1), (2, 1), (2, 2))


# ----------------------------------------------------------------------
# kms-cold: one kms_check per fresh graph and KMSStates, as `kgraph kms
# check` does in each process.

def kms_cold_setup(seed, root):
    return {"texts": load_graphs(seed)}


def cold_check(text, box, theta_blind):
    graph = fresh(text)
    pd = perron.perron_data(perron.MatrixFamily.from_graph(graph))
    group = periodicity.periodicity_group(graph, bound=2)
    states = kms.KMSStates(graph, pd, group=group)
    return pd, states.kms_check(kms.StateSpec.haar(), box,
                                theta_blind=theta_blind)


def check_cold_fixture(name, box, theta_blind):
    def check(result):
        pd, rep = result
        if theta_blind and rep.passed:
            return "the theta-blind control passed"
        want = pins.KMS_COLD[(name, box, theta_blind)]
        if kms_digest(rep) != want:
            return f"report {kms_digest(rep)} != pinned {want}"
        if perron_digest(pd) != pins.PERRON[name]:
            return f"perron {perron_digest(pd)} != pinned {pins.PERRON[name]}"
        return None
    return check


def check_cold_seeded(graph):
    perron_ok = check_single_vertex_perron(graph, (3, 3))

    def check(result):
        pd, rep = result
        if not (rep.passed and rep.exact and rep.failure_count == 0
                and rep.support_size > 0):
            return f"honest check on the seeded graph: {kms_digest(rep)}"
        return perron_ok(pd)
    return check


def kms_cold_ops(ctx, in_process):
    texts = ctx["texts"]
    once, repeated = [], []
    for name in FIXTURES:
        for box in boxes(name):
            for blind in (False, True):
                mode = "theta-blind" if blind else "honest"
                op = Op(f"kms check {name} {box} {mode}",
                        lambda t=texts[name], b=box, bl=blind:
                        cold_check(t, b, bl),
                        check_cold_fixture(name, box, blind),
                        lambda r: kms_size(r[1]))
                (once if (name, box) in COLD_ONCE else repeated).append(op)
    seeded = fresh(texts["seeded"])
    for box in ((1, 1), (2, 1)):
        op = Op(f"kms check seeded {box} honest",
                lambda b=box: cold_check(texts["seeded"], b, False),
                check_cold_seeded(seeded), lambda r: kms_size(r[1]))
        (once if ("seeded", box) in COLD_ONCE else repeated).append(op)
    return interleave([repeated] * COLD_ROUNDS, once)


def interleave(rounds, once):
    """The rounds of repeated operations with the one-off operations
    spread between them, so the repeats of one operation are seconds apart
    rather than back to back."""
    out = []
    per_gap = -(-len(once) // len(rounds))
    for i, ops in enumerate(rounds):
        out += ops
        out += once[i * per_gap:(i + 1) * per_gap]
    return out


# ----------------------------------------------------------------------
# kms-states: many states against one primed KMSStates per graph

def state_suite(k, rng):
    """The averaging state, every quarter-turn character (exact Gaussian
    rationals), seeded non-quarter characters (the complex-float path) and
    seeded rational mixtures."""
    quarter = [tuple(Fraction(a, 4) for a in combo)
               for combo in itertools.product(range(4), repeat=k)]
    states = [kms.StateSpec.haar()]
    states += [kms.StateSpec.character(t) for t in quarter]
    for _ in range(2):
        # n/12 with 3 not dividing n is never a multiple of a quarter turn
        first = Fraction(rng.choice((1, 2, 4, 5, 7, 8, 10, 11)), 12)
        rest = [Fraction(rng.randrange(12), 12) for _ in range(k - 1)]
        states.append(kms.StateSpec.character((first, *rest)))
    for _ in range(2):
        states.append(kms.StateSpec.character(
            tuple(rng.random() for _ in range(k))))
    for size in (2, 3):
        weights = [rng.randint(1, 5) for _ in range(size)]
        comps = rng.sample(quarter, size)
        states.append(kms.StateSpec.mixture(
            [(Fraction(w, sum(weights)), t) for w, t in zip(weights, comps)]))
    states.append(kms.StateSpec.mixture(
        [(Fraction(1, 2), rng.choice(quarter)),
         (Fraction(1, 2), (Fraction(1, 3),) * k)]))
    return states


def kms_states_setup(seed, root):
    texts = load_graphs(seed)
    rng = random.Random(seed)
    suites = {k: state_suite(k, rng) for k in (1, 2)}
    primed = []
    for name, box in STATE_BOXES:
        graph = fresh(texts[name])
        pd = perron.perron_data(perron.MatrixFamily.from_graph(graph))
        group = periodicity.periodicity_group(graph, bound=2)
        states = kms.KMSStates(graph, pd, group=group)
        first = states.kms_check(kms.StateSpec.haar(), box)
        if not first.passed:
            raise SetupError(f"{name}: priming check failed")
        primed.append((name, box, pd.exact, states, suites[graph.k]))
    return {"primed": primed}


def check_state(name, graph_exact, state):
    def check(rep):
        if not rep.passed or rep.failure_count or rep.ck_screen_violations:
            return f"state {state.describe()} failed: {kms_digest(rep)}"
        if rep.exact != (graph_exact and state.is_exact):
            return f"exact flag {rep.exact} for {state.describe()}"
        want = pins.KMS_STATES[name]
        got = (rep.support_size, rep.explicit_checked)
        return None if got == want else f"table {got} != pinned {want}"
    return check


def kms_states_ops(ctx, in_process):
    ops = []
    for name, box, exact, states, suite in ctx["primed"]:
        for state in suite:
            ops.append(Op(f"kms check {name} {state.describe()}",
                          lambda st=states, s=state, b=box: st.kms_check(s, b),
                          check_state(name, exact, state), kms_size))
    return ops


# ----------------------------------------------------------------------
# structure: the non-KMS analyses

def structure_setup(seed, root):
    return {"texts": load_graphs(seed)}


def _decay_digest(rep):
    return (rep.a, str(rep.K), tuple(map(str, rep.masses)), rep.passed)


def _agreement_digest(rep):
    return (rep.periodic, rep.theta_matched, str(rep.closed_form),
            str(rep.level_bound))


def _theta_digest(th):
    table = sorted((k.literal(), v.literal()) for k, v in th.table.items())
    images = {v for _, v in table}
    return (len(table), len(images), table[0], table[-1])


def check_seeded_group(group):
    # Per(Lambda) lies in {g : A^{g+} = A^{g-}}, which for one vertex with
    # three loops per color is {g : g_1 + g_2 = 0}.
    if group.rank > 1 or any(sum(b) != 0 for b in group.basis):
        return f"seeded periodicity basis {group.basis} breaks rho^g = 1"
    return None


def check_exact_consistency(rep):
    return None if rep.passed and rep.exact else \
        f"consistency {rep.m}->{rep.n} failed"


def check_float_consistency(rep):
    return None if rep.passed else f"consistency {rep.m}->{rep.n} failed"


def check_seeded_decay(rep):
    return None if rep.passed and rep.K < 1 else "seeded decay check failed"


def _structure_inputs(texts):
    """Fresh graphs with their Perron data, cylinder measures and the
    pullback-b2 periodicity group at bound 2."""
    g = {name: fresh(text) for name, text in texts.items()}
    pds = {name: perron.perron_data(perron.MatrixFamily.from_graph(graph))
           for name, graph in g.items()}
    cms = {name: measure.CylinderMeasure(g[name], pd)
           for name, pd in pds.items()}
    group_pb2 = periodicity.periodicity_group(g["pullback-b2"], bound=2)
    return g, pds, cms, group_pb2


def structure_quick_ops(texts):
    """The analyses that take milliseconds: Perron data, the consistency
    ladders, agreement masses and decay witnesses."""
    g, _, cms, group_pb2 = _structure_inputs(texts)
    pb2 = g["pullback-b2"]
    ops = []

    for name in FIXTURES:
        ops.append(Op(f"perron_data {name}",
                      lambda gr=g[name]: perron.perron_data(
                          perron.MatrixFamily.from_graph(gr)),
                      pinned("PERRON", name, perron_digest)))
    for name, rho in (("seeded", (3, 3)), (RANK3, (2, 2, 2))):
        ops.append(Op(f"perron_data {name}",
                      lambda gr=g[name]: perron.perron_data(
                          perron.MatrixFamily.from_graph(gr)),
                      check_single_vertex_perron(g[name], rho)))

    ladders = {"b2": 3, "fib": 4, "pullback-b2": 3, "product-b2-c2": 3,
               "seeded": 3}
    for name, top in ladders.items():
        k = g[name].k
        for level in range(1, top + 1):
            m, n = (level - 1,) * k, (level,) * k
            check = check_float_consistency if name == "fib" \
                else check_exact_consistency
            ops.append(Op(f"consistency_check {name} {m}->{n}",
                          lambda c=cms[name], m=m, n=n:
                          measure.consistency_check(c, m, n), check))

    for mu, nu in (("a1", "b1"), ("a1", "b2"), ("a1.b1", "a2.b2")):
        ops.append(Op(f"agreement_mass pullback-b2 {mu}/{nu}",
                      lambda mu=mu, nu=nu: measure.agreement_mass(
                          cms["pullback-b2"], pb2.parse_path(mu),
                          pb2.parse_path(nu), 3, group=group_pb2),
                      pinned("AGREEMENT", (mu, nu), _agreement_digest)))

    witnesses = {}

    def find_witness(name, gvec):
        witnesses[name] = measure.find_decay_witness(cms[name], gvec)
        return witnesses[name]

    for name, gvec, mu in (("pullback-b2", (1, 0), "a1"), ("b2", (1,), "e1"),
                           ("product-b2-c2", (1, 0), "e1:w1"),
                           ("seeded", (1, 0), "a1")):
        mu_path = g[name].parse_path(mu)
        nu_path = g[name].vertex_path(mu_path.source)
        ops.append(Op(f"find_decay_witness {name} {gvec}",
                      lambda n=name, gv=gvec: find_witness(n, gv),
                      lambda w: None if w.K < 1 else "witness K >= 1"))
        # decay_check uses the witness the operation before it found
        check = check_seeded_decay if name == "seeded" else \
            pinned("DECAY", name, _decay_digest)
        ops.append(Op(f"decay_check {name} {mu}",
                      lambda n=name, a=mu_path, b=nu_path: measure.decay_check(
                          cms[n], witnesses[n], a, b, 3), check))
    return ops


def structure_slow_ops(texts):
    """The analyses that take tens of milliseconds or more: periodicity
    groups, mass profiles, theta, the (8,8) enumeration and the unitary
    identities."""
    g, pds, cms, group_pb2 = _structure_inputs(texts)
    pb2 = g["pullback-b2"]
    ops = []

    for name, bound in (("pullback-b2", 5), (RANK3, 4)):
        ops.append(Op(f"periodicity_group {name} bound {bound}",
                      lambda gr=g[name], b=bound:
                      periodicity.periodicity_group(gr, bound=b),
                      pinned("GROUPS", (name, bound), lambda r: r.basis)))
    ops.append(Op("periodicity_group seeded bound 4",
                  lambda: periodicity.periodicity_group(g["seeded"], bound=4),
                  check_seeded_group))

    for name, m, n, level in (("pullback-b2", (1, 0), (0, 1), 5),
                              ("pullback-b2", (1, 0), (0, 0), 10),
                              ("product-b2-c2", (1, 0), (0, 0), 20),
                              ("b2", (1,), (0,), 20)):
        ops.append(Op(f"periodicity_mass_profile {name} {m}/{n} to {level}",
                      lambda c=cms[name], m=m, n=n, lv=level:
                      measure.periodicity_mass_profile(c, m, n, lv),
                      pinned("PROFILES", (name, m, n, level),
                             lambda r: tuple(map(str, r)))))

    for d in range(1, 5):
        ops.append(Op(f"theta pullback-b2 ({d},0)->(0,{d})",
                      lambda d=d: periodicity.theta(pb2, (d, 0), (0, d)),
                      pinned("THETA", d, _theta_digest)))

    big = fresh(texts["pullback-b2"])
    ops.append(Op("paths_of_degree pullback-b2 (8,8)",
                  lambda: big.paths_of_degree((8, 8)),
                  lambda ps: None if len(ps) == 65536 and len(set(ps)) ==
                  65536 else f"{len(ps)} paths of degree (8,8)",
                  lambda ps: {"paths_enumerated": len(ps)}))

    states = kms.KMSStates(pb2, pds["pullback-b2"], group=group_pb2)
    ops.append(Op("unitary_identities pullback-b2 (2,2)",
                  lambda: states.unitary_identities((2, 2)),
                  pinned("UNITARIES", "pullback-b2",
                         lambda r: (r.passed, len(r.checks),
                                    r.group_elements))))
    return ops


def structure_ops(ctx, in_process):
    """STRUCTURE_ROUNDS rounds of the quick analyses, each on fresh graphs,
    with the slow ones spread between them."""
    rounds = [structure_quick_ops(ctx["texts"])
              for _ in range(STRUCTURE_ROUNDS)]
    return interleave(rounds, structure_slow_ops(ctx["texts"]))


# ----------------------------------------------------------------------
# cli: sequential `kgraph` invocations

CLI_ARGS = {
    # name: (mass path, agreement mu/nu, decay mu/nu, kms eval mu/nu)
    "b2": ("e1.e2", ("e1", "e2"), ("e1", "v"), ("e1", "e1")),
    "fib": ("euu.euv", ("euu", "evu"), ("euu", "u"), ("euu", "euu")),
    "pullback-b2": ("a1.b2", ("a1", "b1"), ("a1", "v"), ("a1", "b1")),
    "product-b2-c2": ("e1:w1.v:g1", ("v:g1.v:g2", "v:w1"),
                      ("e1:w1", "v:w1"), ("e1:w1", "e1:w1")),
    "seeded": ("a1.b1", ("a1", "a2"), ("a1", "v"), ("a1", "a1")),
}
BAD_JSON = '{"k": 2, "vertices": ['


def _drop_square(text):
    """The graph with one square removed: its square table is not total."""
    doc = json.loads(text)
    doc["squares"].pop(0)
    return json.dumps(doc)


def cli_setup(seed, root):
    texts = load_graphs(seed)
    workdir = os.path.join(root, ".perfbench_out", f"cli-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    files = {}
    for name in CLI_ARGS:
        files[name] = os.path.join(workdir, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(texts[name])
    for name, body in (("bad-json", BAD_JSON),
                       ("bad-squares", _drop_square(texts["pullback-b2"]))):
        files[name] = os.path.join(workdir, f"{name}.json")
        with open(files[name], "w", encoding="utf-8") as fh:
            fh.write(body)
    seeded = KGraph.from_json(texts["seeded"])
    return {"files": files, "workdir": workdir, "seed": seed,
            "sha": {name: KGraph.from_json(texts[name]).sha256()
                    for name in CLI_ARGS},
            "seeded_basis": periodicity.periodicity_group(seeded,
                                                          bound=2).basis,
            "env": dict(os.environ, PYTHONPATH=os.path.join(root, "src"))}


def cli_close(ctx):
    shutil.rmtree(ctx["workdir"], ignore_errors=True)


class CliResult(NamedTuple):
    code: int
    stdout: str
    stderr: str


def run_subprocess(argv, env):
    proc = subprocess.run([sys.executable, "-m", "kgraphs.cli", *argv],
                          capture_output=True, text=True, env=env,
                          timeout=CLI_TIMEOUT_S)
    return CliResult(proc.returncode, proc.stdout, proc.stderr)


def run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return CliResult(code, out.getvalue(), err.getvalue())


def rounded(value):
    """JSON values with floats rounded to 9 places, for pinned comparison."""
    if isinstance(value, float):
        return round(value, 9)
    if isinstance(value, list):
        return [rounded(v) for v in value]
    if isinstance(value, dict):
        return {k: rounded(v) for k, v in value.items()}
    return value


def cli_check(code, fields=None, verify=None):
    """Exit code, the named JSON fields, and no traceback on stderr."""
    def check(res):
        if "Traceback" in res.stderr:
            return "traceback on stderr"
        if res.code != code:
            return f"exit {res.code}, expected {code}: {res.stderr.strip()}"
        if code == 3:
            return None if res.stderr.startswith("kgraph: ") else \
                "malformed input without a kgraph: message"
        doc = json.loads(res.stdout)
        for key, want in (fields or {}).items():
            if rounded(doc.get(key)) != rounded(want):
                return f"{key} = {doc.get(key)!r}, expected {want!r}"
        return verify(doc) if verify else None
    return check


def cli_pinned(name, command, code):
    """Fixture outputs: the fields pinned in pins.CLI[(name, command)]."""
    def check(res):
        return cli_check(code, pins.CLI[(name, command)])(res)
    return check


def _seeded_basis_ok(want):
    def verify(doc):
        basis = [tuple(b) for b in doc["per_basis" if "per_basis" in doc
                                       else "basis"]]
        if tuple(basis) != want or any(sum(b) != 0 for b in basis):
            return f"seeded basis {basis}, library says {want}"
        return None
    return verify


def _seeded_profile(doc):
    levels = [Fraction(v) for v in doc["levels"]]
    if levels[0] != 1 or any(b > a for a, b in zip(levels, levels[1:])) \
            or levels[-1] >= 1:
        return f"seeded shift profile {doc['levels']} is not decreasing"
    return None


def cli_invocations(ctx):
    """(label, argv, check) for one pass."""
    files, out = ctx["files"], []
    for name, (path, (amu, anu), (dmu, dnu), (emu, enu)) in CLI_ARGS.items():
        f = files[name]
        rank1 = name in ("b2", "fib")
        ones, zero = ("1", "0") if rank1 else ("1,1", "0,0")
        e1 = "1" if rank1 else "1,0"
        state = "z=1/4" if rank1 else "z=1/4,0"
        r = "0.7" if rank1 else "0.7,0.7"
        if name == "seeded":
            gen = ["gen", "single-vertex", "--loops", "3,3",
                   "--squares", squares_flag(ctx["seed"])]
        else:
            gen = ["gen", name]
        sha = ctx["sha"][name]
        commands = [
            ("gen", gen, cli_check(0, verify=lambda doc, sha=sha: None if
                                   KGraph.from_json_dict(doc).sha256() == sha
                                   else "generated graph differs")),
            ("validate", ["validate", f], cli_check(0, {"valid": True})),
            ("info", ["info", f], None),
            ("periodicity", ["periodicity", f, "--bound", "2"], None),
            ("measure mass", ["measure", "mass", f, "--path", path], None),
            ("measure consistency", ["measure", "consistency", f, "--m", e1,
                                     "--n", "2" if rank1 else "2,2"],
             cli_check(0, {"passed": True})),
            ("measure shift", ["measure", "shift", f, "--m", e1, "--n", zero,
                               "--level", "5"], None),
            ("measure agreement", ["measure", "agreement", f, "--mu", amu,
                                   "--nu", anu, "--level", "3"], None),
            ("measure decay", ["measure", "decay", f, "--mu", dmu, "--nu",
                               dnu], cli_check(0, {"passed": True})),
            ("kms eval", ["kms", "eval", f, "--state", state, "--mu", emu,
                          "--nu", enu], None),
            ("kms check", ["kms", "check", f, "--state", "haar",
                           "--max-degree", ones], None),
            ("kms check --theta-blind", ["kms", "check", f, "--state", "haar",
                                         "--max-degree", ones,
                                         "--theta-blind"],
             cli_check(1, {"passed": False})),
            ("phase", ["phase", f, "--beta", "1"], None),
            ("toeplitz", ["toeplitz", f, "--beta", "1", "--r", r], None),
        ]
        for command, argv, check in commands:
            if check is None:
                check = cli_pinned(name, command, 0) if name != "seeded" \
                    else seeded_cli_check(ctx, command)
            out.append((f"kgraph {command} {name}", argv, check))
    pb2 = files["pullback-b2"]
    out += [
        ("kgraph validate bad-json", ["validate", files["bad-json"]],
         cli_check(3)),
        ("kgraph validate bad-squares", ["validate", files["bad-squares"]],
         cli_check(1, {"valid": False})),
        ("kgraph info missing-file", ["info", files["bad-json"] + ".absent"],
         cli_check(3)),
        ("kgraph measure mass bad-path", ["measure", "mass", pb2, "--path",
                                          "zz"], cli_check(3)),
        ("kgraph kms check bad-state", ["kms", "check", pb2, "--state",
                                        "bogus", "--max-degree", "1,1"],
         cli_check(3)),
        ("kgraph gen unknown-fixture", ["gen", "nope"], cli_check(3)),
    ]
    return out


def seeded_cli_check(ctx, command):
    """Invariants of the seeded graph's CLI outputs, for any seed."""
    basis = _seeded_basis_ok(ctx["seeded_basis"])
    rank = len(ctx["seeded_basis"])
    return {
        "info": cli_check(0, {"rho": [3, 3], "x": {"v": "1"},
                              "exact": True}, basis),
        "periodicity": cli_check(0, None, basis),
        "measure mass": cli_check(0, {"mass": "1/9", "exact": True}),
        "measure shift": cli_check(0, None, _seeded_profile),
        "measure agreement": cli_check(0, {"periodic": True,
                                           "theta_matched": False,
                                           "closed_form": "0"}),
        "kms eval": cli_check(0, {"value": {"re": "1/3", "im": "0"},
                                  "exact": True}),
        "kms check": cli_check(0, {"passed": True, "failure_count": 0}),
        "phase": cli_check(0, {"extreme_points":
                               "infinite" if rank else 1}),
        "toeplitz": cli_check(0, {"exists": False}),
    }[command]


def cli_ops(ctx, in_process):
    ops = []
    for label, argv, check in cli_invocations(ctx):
        if in_process:
            call = lambda a=argv: run_in_process(a)
        else:
            call = lambda a=argv: run_subprocess(a, ctx["env"])
        ops.append(Op(label, call, check,
                      lambda r: {"stdout_bytes": len(r.stdout.encode())}))
    return ops


# ----------------------------------------------------------------------

class Workload(NamedTuple):
    setup: Callable
    ops: Callable
    close: Callable = lambda ctx: None


WORKLOADS = {
    "kms-cold": Workload(kms_cold_setup, kms_cold_ops),
    "kms-states": Workload(kms_states_setup, kms_states_ops),
    "structure": Workload(structure_setup, structure_ops),
    "cli": Workload(cli_setup, cli_ops, cli_close),
}
