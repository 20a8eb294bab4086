"""Command-line front end.

One executable, ``kgraph``, with a subcommand per analysis.  Graphs travel
as JSON documents; every command reads one from a file argument (or stdin
when the argument is "-") and writes a canonical JSON report to stdout:
keys sorted, two-space indent, trailing newline, no timestamps, so equal
inputs give byte-identical outputs.

Exit codes: 0 success, 1 a negative verdict, else the ``exit_code`` of
the error's class (see ``errors``): 1 validation or precondition failure,
2 an enumeration or search bound exceeded, 3 malformed input (bad JSON,
bad literals, bad flags).

Reports hold library values; ``jsonable`` is the one place that gives
numbers their dual format: exact rationals as fraction strings ("1/2",
"1"), inexact values as JSON floats.  An optional ``--config`` file
supplies defaults for tolerances and bounds in ``key = value`` lines;
explicit flags win.

Each analysis command is a row of ``COMMANDS``: one runner does the steps
they share, and the parser is generated from the table, with exactly the
options each row lists.  Commands import the analysis modules they use
(periodicity, measure, kms) when they run.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import cached_property, partial

from . import builders
from . import degrees as dg
from .errors import InputFormatError, KGraphError, Record
from .graphs import ENUM_CAP, KGraph, Path
from .perron import MatrixFamily, perron_data
from .scalars import (CONSISTENCY_TOL, KMS_TOL, TOEPLITZ_TOL, QQi,
                      check_tol, format_fraction, parse_number)

DEFAULT_BOUND = 2

# options a command may declare, each read from its flag, else from the
# --config file, else the command's default: name -> (flag type, help)
OPTIONS = {
    "bound": (int, "periodicity search bound"),
    "cap": (int, "path-enumeration guard"),
    "tol": (float, "comparison tolerance"),
    "level": (int, "deepest approximation level"),
    "a_max": (int, "decay-witness search bound"),
    "j_max": (int, "number of decay levels checked"),
}


# ----------------------------------------------------------------------
# serialization

def jsonable(value):
    """json.dumps's fallback for the values it cannot write: a Fraction as
    "p/q" ("n" when integral), a Gaussian rational or complex value as
    {"re": ..., "im": ...}, a path as its literal."""
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, QQi):
        return {"re": value.re, "im": value.im}
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, Path):
        return value.literal()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


# ----------------------------------------------------------------------
# input helpers

def read_text(path, what):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {what} file {path!r}: {exc}")


def read_config(path):
    opts = {}
    for i, line in enumerate(read_text(path, "config").splitlines(), 1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise InputFormatError(
                f"config line {i} is not of the form key = value: {line!r}")
        key, _, value = text.partition("=")
        key = key.strip().replace("-", "_")
        if key not in OPTIONS:
            raise InputFormatError(f"unknown config key {key!r} on line {i}")
        opts[key] = value.strip()
    return opts


def resolve(name, given, config, default):
    """Flag value if given, else config value, else the default."""
    if given is not None:
        return given
    if name not in config:
        return default
    try:
        return OPTIONS[name][0](config[name])
    except ValueError as exc:
        raise InputFormatError(
            f"bad config value for {name}: {config[name]!r}") from exc


def parse_squares(text):
    """The --squares table {"i,j": [[s,t,u,v], ...]} as builders takes it."""
    squares = {}
    try:
        # a JSONDecodeError is a ValueError
        for pair, quads in json.loads(text).items():
            i, j = (int(p) for p in pair.split(","))
            squares[(i, j)] = {(s, t): (u, v) for s, t, u, v in quads}
    except (AttributeError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad --squares table: {exc}") from exc
    return squares


# ----------------------------------------------------------------------
# gen: the one command that reads no graph

def cmd_gen(args):
    if args.name == "single-vertex":
        if args.loops is None:
            raise InputFormatError("single-vertex needs --loops n1,n2,...")
        loops = dg.parse_degree(args.loops, args.loops.count(",") + 1)
        squares = None if args.squares is None \
            else parse_squares(args.squares)
        graph = builders.make_single_vertex(len(loops), loops, squares)
    elif args.name in builders.FIXTURES:
        graph = builders.FIXTURES[args.name]()
    else:
        known = ", ".join(sorted(builders.FIXTURES) + ["single-vertex"])
        raise InputFormatError(
            f"unknown fixture {args.name!r} (know: {known})")
    sys.stdout.write(graph.to_json())
    return 0


# ----------------------------------------------------------------------
# the analysis commands: one report function per table row

class Context:
    """A command's graph and resolved options.  The analysis objects are
    built on first use, so each report pays only for what it reads.  The
    reports that read the states or the group do so before parsing their
    literals, so a blown search bound shows before a bad literal."""

    def __init__(self, graph, opts):
        self.graph = graph
        self.opts = opts

    @cached_property
    def perron(self):
        return perron_data(MatrixFamily.from_graph(self.graph))

    @cached_property
    def measure(self):
        from .measure import CylinderMeasure
        return CylinderMeasure(self.graph, self.perron)

    @cached_property
    def group(self):
        from .periodicity import periodicity_group
        return periodicity_group(self.graph, bound=self.opts["bound"])

    @cached_property
    def states(self):
        from .kms import KMSStates
        return KMSStates(self.graph, self.perron, group=self.group)

    def degree(self, text):
        return dg.parse_degree(text, self.graph.k)


def report_validate(ctx, args):
    report = ctx.graph.validate()
    return vars(report), report.valid


def report_info(ctx, args):
    pd, group = ctx.perron, ctx.group
    return {
        # an integral spectral radius is a JSON int
        "rho": [v.numerator if isinstance(v, Fraction) and v.denominator == 1
                else v for v in pd.rho_values()],
        "x": dict(zip(pd.labels, pd.x_values())),
        "per_basis": group.basis,
        "per_rank": group.rank,
        "exact": pd.exact,
        "F_bound": pd.F_bound,
    }, True


def report_periodicity(ctx, args):
    group = ctx.group
    return {
        "basis": group.basis,
        "rank": group.rank,
        "aperiodic": group.rank == 0,
        "bound": group.search_bound,
        "complete_up_to_bound": group.complete_up_to_bound,
    }, True


def report_mass(ctx, args):
    cm = ctx.measure
    path = ctx.graph.parse_path(args.path)
    return {"path": path, "degree": path.degree, "mass": cm.mass(path),
            "exact": cm.exact}, True


def report_consistency(ctx, args):
    from .measure import consistency_check
    report = consistency_check(ctx.measure, ctx.degree(args.m),
                               ctx.degree(args.n), tol=ctx.opts["tol"])
    return vars(report), report.passed


def report_shift(ctx, args):
    from .measure import periodicity_mass_profile
    m, n = ctx.degree(args.m), ctx.degree(args.n)
    profile = periodicity_mass_profile(ctx.measure, m, n, ctx.opts["level"])
    return {"m": m, "n": n, "levels": profile, "final": profile[-1]}, True


def report_agreement(ctx, args):
    from .measure import agreement_mass
    cm, group = ctx.measure, ctx.group
    return vars(agreement_mass(cm, ctx.graph.parse_path(args.mu),
                               ctx.graph.parse_path(args.nu),
                               ctx.opts["level"], group=group)), True


def report_decay(ctx, args):
    from .measure import decay_check, find_decay_witness
    cm = ctx.measure
    mu, nu = ctx.graph.parse_path(args.mu), ctx.graph.parse_path(args.nu)
    witness = find_decay_witness(cm, dg.sub(mu.degree, nu.degree),
                                 a_max=ctx.opts["a_max"])
    report = decay_check(cm, witness, mu, nu, ctx.opts["j_max"])
    return dict(vars(report), mu=mu, nu=nu,
                tails=witness.tails), report.passed


def report_kms_eval(ctx, args):
    from .kms import parse_state
    states = ctx.states
    state = parse_state(args.state)
    mu, nu = ctx.graph.parse_path(args.mu), ctx.graph.parse_path(args.nu)
    value = states.phi_eval(state, mu, nu, theta_blind=args.theta_blind)
    return {"state": state.describe(), "mu": mu, "nu": nu,
            "grade": dg.sub(mu.degree, nu.degree), "value": value,
            "exact": isinstance(value, QQi)}, True


def report_kms_check(ctx, args):
    from .kms import parse_state
    report = ctx.states.kms_check(parse_state(args.state),
                                  ctx.degree(args.max_degree),
                                  tol=ctx.opts["tol"],
                                  theta_blind=args.theta_blind)
    return vars(report), report.passed


def report_phase(ctx, args):
    return vars(ctx.states.phase_diagram(parse_number(args.beta))), True


def report_toeplitz(ctx, args):
    from .kms import KMSStates
    # the existence test reads no periodicity group, so none is built
    states = KMSStates(ctx.graph, ctx.perron)
    return vars(states.toeplitz_kms_exists(
        parse_number(args.beta), [parse_number(p) for p in args.r.split(",")],
        tol=ctx.opts["tol"])), True


class Command(Record):
    help: str
    report: object        # (Context, args) -> (doc, passed)
    flags: str = ""       # the command's flags beyond its options
    options: dict = {}    # option name -> default, in resolution order
    shown: tuple = ()     # raw argument values recorded in provenance


# keyed by the command name as provenance records it
COMMANDS = {
    "validate": Command("check the graph axioms", report_validate),
    "info": Command("Perron data and periodicity basis", report_info, "",
                    {"bound": DEFAULT_BOUND, "cap": ENUM_CAP}),
    "periodicity": Command("periodicity group of the graph",
                           report_periodicity, "",
                           {"bound": DEFAULT_BOUND, "cap": ENUM_CAP}),
    "measure mass": Command("measure of one cylinder set", report_mass,
                            "--path"),
    "measure consistency": Command(
        "refinement identities between two levels", report_consistency,
        "--m --n", {"cap": ENUM_CAP, "tol": CONSISTENCY_TOL}),
    "measure shift": Command(
        "mass of the shift-agreement set for (m, n)", report_shift,
        "--m --n", {"cap": ENUM_CAP, "level": 5}),
    "measure agreement": Command(
        "measure of infinite paths equalizing two finite paths",
        report_agreement, "--mu --nu",
        {"cap": ENUM_CAP, "bound": DEFAULT_BOUND, "level": 3}),
    "measure decay": Command(
        "geometric decay of non-matching agreement masses", report_decay,
        "--mu --nu", {"cap": ENUM_CAP, "a_max": 6, "j_max": 3}),
    "kms eval": Command(
        "state value on one span term", report_kms_eval,
        "--state --mu --nu --theta-blind",
        {"cap": ENUM_CAP, "bound": DEFAULT_BOUND}, ("theta_blind",)),
    "kms check": Command(
        "exhaustive equilibrium identity check", report_kms_check,
        "--state --max-degree --theta-blind",
        {"cap": ENUM_CAP, "bound": DEFAULT_BOUND, "tol": KMS_TOL}),
    "phase": Command(
        "extreme-point count by inverse temperature", report_phase,
        "--beta", {"cap": ENUM_CAP, "bound": DEFAULT_BOUND}, ("beta",)),
    "toeplitz": Command(
        "equilibrium existence for scaled dynamics", report_toeplitz,
        "--beta --r", {"cap": ENUM_CAP, "tol": TOEPLITZ_TOL}),
}


def run_command(name, args):
    """Load, set options and cap, validate, report, emit with provenance."""
    row = COMMANDS[name]
    config = read_config(args.config) if args.config else {}
    graph = KGraph.from_json(sys.stdin.read() if args.graph == "-"
                             else read_text(args.graph, "graph"))
    opts = {key: resolve(key, getattr(args, key), config, default)
            for key, default in row.options.items()}
    for key, value in opts.items():
        check_tol(value, key)
    graph.cap = opts.get("cap", ENUM_CAP)
    if name != "validate":
        graph.require_valid()
    doc, passed = row.report(Context(graph, opts), args)
    shown = dict(opts, **{key: getattr(args, key) for key in row.shown})
    doc = dict(doc, provenance={"graph_sha256": graph.sha256(),
                                "command": name, "options": shown})
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2,
                                default=jsonable) + "\n")
    return 0 if passed else 1


# ----------------------------------------------------------------------
# parser

GROUP_HELP = {"measure": "cylinder-measure computations",
              "kms": "equilibrium-state computations"}

# flag help; a row's flags are required values, bar the --theta-blind switch
FLAGS = {
    "--path": "path literal",
    "--m": "coarse degree, e.g. 1,0",
    "--n": "fine degree, m <= n",
    "--state": '"haar" or z=<turns>, e.g. z=1/4,0',
    "--max-degree": "per-color degree box, e.g. 2,2",
    "--r": "per-color scale, e.g. 0.7,0",
    "--theta-blind": "negative control: drop the bijection condition",
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kgraph",
        description="Higher-rank graph analysis: Perron data, periodicity, "
                    "cylinder measures, and equilibrium states.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("gen", help="write a named example graph as JSON")
    p.add_argument("name", help=" | ".join([*builders.FIXTURES,
                                            "single-vertex"]))
    p.add_argument("--loops", help="single-vertex: loops per color, e.g. 2,2")
    p.add_argument("--squares",
                   help='single-vertex: JSON {"i,j": [[s,t,u,v], ...]} of '
                        "factorization squares (defaults to the flip)")
    p.set_defaults(func=cmd_gen)

    owners = {"": subs}
    for name, row in COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in owners:
            owners[group] = subs.add_parser(
                group, help=GROUP_HELP[group]).add_subparsers(
                dest=f"{group}_command", required=True)
        p = owners[group].add_parser(leaf, help=row.help)
        p.add_argument("graph", help="graph JSON file, or - for stdin")
        p.add_argument("--config",
                       help="key = value file with option defaults")
        for key in row.options:
            kind, text = OPTIONS[key]
            p.add_argument("--" + key.replace("_", "-"), type=kind, help=text)
        for flag in row.flags.split():
            if flag == "--theta-blind":
                p.add_argument(flag, action="store_true", help=FLAGS[flag])
            else:
                p.add_argument(flag, required=True, help=FLAGS.get(flag))
        p.set_defaults(func=partial(run_command, name))
    return parser


# ----------------------------------------------------------------------
# entry point

def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are malformed input here
        return 3 if exc.code not in (0, None) else 0
    try:
        if [] in vars(args).values():
            # argparse before 3.13 reads --flag=-- as an empty list
            raise InputFormatError("a flag's value is a bare '--'")
        return args.func(args)
    except KGraphError as exc:
        print(f"kgraph: {exc.kind}: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
