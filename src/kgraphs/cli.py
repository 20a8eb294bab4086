"""Command-line front end.

One executable, ``kgraph``, with a subcommand per analysis.  Graphs travel
as JSON documents; every command reads one from a file argument (or stdin
when the argument is "-") and writes a canonical JSON report to stdout:
keys sorted, two-space indent, trailing newline, no timestamps, so equal
inputs give byte-identical outputs.

Exit codes: 0 success, 1 validation or precondition failure (including a
check command whose verdict is negative), 2 an enumeration or search bound
was exceeded, 3 malformed input (bad JSON, bad literals, bad flags).

Numbers are emitted in dual format: exact rationals as fraction strings
("1/2", "1"), inexact values as JSON floats.  An optional ``--config``
file supplies defaults for tolerances and bounds in ``key = value`` lines;
explicit flags win.

Each analysis command is a row of ``COMMANDS``: one runner does the steps
they share, and the parser is generated from the table.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from fractions import Fraction
from functools import cached_property, partial
from typing import Callable, NamedTuple

from . import builders
from . import degrees as dg
from .errors import (CompositionError, ConvergenceError, EnumerationCapError,
                     GraphValidationError, InputFormatError,
                     NonConstantRatioError, NotIrreducibleError,
                     NotPeriodicError, NotStronglyConnectedError,
                     PeriodicityUndecidedError, SegmentRangeError,
                     WitnessSearchError)
from .graphs import ENUM_CAP, KGraph
from .kms import (KMS_TOL, TOEPLITZ_TOL, KMSStates, PhaseQuery, parse_state)
from .measure import (CONSISTENCY_TOL, CylinderMeasure, agreement_mass,
                      consistency_check, decay_check, find_decay_witness,
                      periodicity_mass_profile)
from .periodicity import periodicity_group
from .perron import MatrixFamily, perron_data
from .scalars import QQi, format_fraction, parse_number

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
CONFIG_KEYS = tuple(OPTIONS)


# ----------------------------------------------------------------------
# serialization helpers

def jnum(value):
    """Fractions as "p/q" strings (integers as "n"), floats as floats."""
    if isinstance(value, (int, Fraction)):
        return format_fraction(value)
    return float(value)


def jrho(value):
    """Spectral radii: plain ints when integral, else the dual format."""
    if isinstance(value, (int, Fraction)) and Fraction(value).denominator == 1:
        return int(value)
    return jnum(value)


def jscalar(value):
    """A complex algebra value as {"re": ..., "im": ...}."""
    if isinstance(value, QQi):
        return {"re": jnum(value.re), "im": jnum(value.im)}
    z = complex(value)
    return {"re": z.real, "im": z.imag}


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
        if key not in CONFIG_KEYS:
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
    table, squares = json.loads(text), {}
    try:
        for pair, quads in table.items():
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
        return CylinderMeasure(self.graph, self.perron)

    @cached_property
    def group(self):
        return periodicity_group(self.graph, bound=self.opts["bound"],
                                 cap=self.opts["cap"])

    @cached_property
    def states(self):
        return KMSStates(self.graph, self.perron, measure=self.measure,
                         group=self.group, cap=self.opts["cap"])

    def degree(self, text):
        return dg.parse_degree(text, self.graph.k)


def report_validate(ctx, args):
    report = ctx.graph.validate()
    return report.to_dict(), report.valid


def report_info(ctx, args):
    pd, group = ctx.perron, ctx.group
    return {
        "rho": [jrho(v) for v in pd.rho_values()],
        "x": {lab: jnum(v) for lab, v in zip(pd.labels, pd.x_values())},
        "per_basis": [list(b) for b in group.basis],
        "per_rank": group.rank,
        "exact": pd.exact,
        "F_bound": pd.F_bound,
    }, True


def report_periodicity(ctx, args):
    doc = ctx.group.to_dict()
    doc["aperiodic"] = ctx.group.rank == 0
    doc["bound"] = doc.pop("search_bound")
    return doc, True


def report_mass(ctx, args):
    cm = ctx.measure
    path = ctx.graph.parse_path(args.path)
    return {
        "path": path.literal(),
        "degree": list(path.degree),
        "mass": jnum(cm.mass(path)),
        "exact": cm.exact,
    }, True


def report_consistency(ctx, args):
    report = consistency_check(ctx.measure, ctx.degree(args.m),
                               ctx.degree(args.n),
                               tol=ctx.opts["tol"], cap=ctx.opts["cap"])
    return asdict(report), report.passed


def report_shift(ctx, args):
    cm = ctx.measure
    m, n = ctx.degree(args.m), ctx.degree(args.n)
    profile = periodicity_mass_profile(cm, m, n, ctx.opts["level"],
                                       cap=ctx.opts["cap"])
    return {
        "m": list(m),
        "n": list(n),
        "levels": [jnum(v) for v in profile],
        "final": jnum(profile[-1]),
    }, True


def report_agreement(ctx, args):
    cm, group = ctx.measure, ctx.group
    mu, nu = ctx.graph.parse_path(args.mu), ctx.graph.parse_path(args.nu)
    report = agreement_mass(cm, mu, nu, ctx.opts["level"], group=group,
                            cap=ctx.opts["cap"])
    return {
        "mu": mu.literal(),
        "nu": nu.literal(),
        "periodic": report.periodic,
        "theta_matched": report.theta_matched,
        "closed_form": jnum(report.closed_form),
        "level": report.level,
        "level_bound": jnum(report.level_bound),
    }, True


def report_decay(ctx, args):
    cm, cap = ctx.measure, ctx.opts["cap"]
    mu, nu = ctx.graph.parse_path(args.mu), ctx.graph.parse_path(args.nu)
    witness = find_decay_witness(cm, dg.sub(mu.degree, nu.degree),
                                 a_max=ctx.opts["a_max"], cap=cap)
    report = decay_check(cm, witness, mu, nu, ctx.opts["j_max"], cap=cap)
    return {
        "mu": mu.literal(),
        "nu": nu.literal(),
        "g": list(witness.g),
        "a": list(witness.a),
        "tails": {v: p.literal() for v, p in sorted(witness.tails.items())},
        "K": jnum(witness.K),
        "masses": [jnum(v) for v in report.masses],
        "bounds": [jnum(v) for v in report.bounds],
        "exact": report.exact,
        "passed": report.passed,
    }, report.passed


def report_kms_eval(ctx, args):
    states = ctx.states
    state = parse_state(args.state)
    mu, nu = ctx.graph.parse_path(args.mu), ctx.graph.parse_path(args.nu)
    value = states.phi_eval(state, mu, nu, theta_blind=args.theta_blind)
    return {
        "state": state.describe(),
        "mu": mu.literal(),
        "nu": nu.literal(),
        "grade": list(dg.sub(mu.degree, nu.degree)),
        "value": jscalar(value),
        "exact": ctx.measure.exact and state.is_exact,
    }, True


def report_kms_check(ctx, args):
    report = ctx.states.kms_check(parse_state(args.state),
                                  ctx.degree(args.max_degree),
                                  tol=ctx.opts["tol"],
                                  theta_blind=args.theta_blind)
    return asdict(report), report.passed


def report_phase(ctx, args):
    return ctx.states.phase_diagram(parse_number(args.beta)).to_dict(), True


def report_toeplitz(ctx, args):
    # the existence test reads no periodicity group, so none is built
    states = KMSStates(ctx.graph, ctx.perron, measure=ctx.measure,
                       cap=ctx.opts["cap"])
    query = PhaseQuery(beta=parse_number(args.beta),
                       r=tuple(parse_number(p) for p in args.r.split(",")))
    return asdict(states.toeplitz_kms_exists(query, tol=ctx.opts["tol"])), True


class Command(NamedTuple):
    help: str
    report: Callable      # (Context, args) -> (doc, passed)
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
    """Load, validate, resolve options, report, record provenance, emit."""
    row = COMMANDS[name]
    config = read_config(args.config) if args.config else {}
    graph = KGraph.from_json(sys.stdin.read() if args.graph == "-"
                             else read_text(args.graph, "graph"))
    if name != "validate":
        graph.require_valid()
    opts = {key: resolve(key, getattr(args, key), config, default)
            for key, default in row.options.items()}
    doc, passed = row.report(Context(graph, opts), args)
    shown = dict(opts, **{key: getattr(args, key) for key in row.shown})
    doc["provenance"] = {"graph_sha256": graph.sha256(), "command": name,
                         "options": dict(sorted(shown.items()))}
    sys.stdout.write(json.dumps(doc, sort_keys=True, indent=2) + "\n")
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
        for key in ["cap"] + [k for k in row.options if k != "cap"]:
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

VALIDATION_ERRORS = (GraphValidationError, NotStronglyConnectedError,
                     NotIrreducibleError, CompositionError,
                     SegmentRangeError, NotPeriodicError)
BOUND_ERRORS = (EnumerationCapError, PeriodicityUndecidedError,
                ConvergenceError, NonConstantRatioError, WitnessSearchError)


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are malformed input here
        return 3 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (InputFormatError, json.JSONDecodeError) as exc:
        print(f"kgraph: input error: {exc}", file=sys.stderr)
        return 3
    except VALIDATION_ERRORS as exc:
        print(f"kgraph: validation failure: {exc}", file=sys.stderr)
        return 1
    except BOUND_ERRORS as exc:
        print(f"kgraph: bound exceeded: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
