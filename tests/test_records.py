"""Record behaviour pinned: one instance of each of the library's twenty
record classes, built on the fixtures, with its repr, equality, hash,
immutability and attribute dictionary.  Reports reach the CLI's JSON
through vars(), and sets and dicts of paths iterate in hash order, so
each of these is visible output.
"""

import json
from fractions import Fraction as F

import pytest

from kgraphs import builders
from kgraphs.graphs import ValidationReport
from kgraphs.kms import KMSStates, StateSpec
from kgraphs.measure import (CylinderMeasure, agreement_mass,
                             consistency_check, decay_check,
                             find_decay_witness)
from kgraphs.periodicity import periodicity_group, theta
from kgraphs.perron import (MatrixFamily, perron_data,
                            spectral_radius_power_check, verify_subinvariance)
from kgraphs.scalars import QQi

REPRS = {
    "Edge": "Edge(id='e1', color=1, range='v', source='v')",
    "Square": "Square(blue='a1', red='b1', red2='b1', blue2='a1')",
    "Path": "Path(e1.e2)",
    "ValidationReport": (
        "ValidationReport(valid=True, k=1, vertex_count=1, edge_counts=(2,), "
        "square_failures=(), cubical_checked=False, cubical_failures=(), "
        "strongly_connected=True, no_sources=True, no_sinks=True)"),
    "StateSpec": ("StateSpec(kind='character', "
                  "components=((1, (Fraction(1, 4),)),))"),
    "UnitaryIdentitiesReport": (
        "UnitaryIdentitiesReport(group_elements=((0,),), checks=("
        "('U_0 = 1', True), ('U(0,)* = U(0,)', True), "
        "('U(0,) U(0,) = 1', True), ('U(0,) commutes with s[e1]', True), "
        "('U(0,) commutes with s[e2]', True), ('U(0,) U(0,) = U(0,)', True)"
        "), passed=True)"),
    "KMSCheckReport": (
        "KMSCheckReport(state='haar', max_degree=(1,), exact=True, "
        "theta_blind=False, total_quadruples=81, support_size=13, "
        "explicit_checked=13, failure_count=0, failures=(), "
        "max_deviation=0.0, ck_screen_pairs=9, ck_screen_violations=0, "
        "passed=True)"),
    "ToeplitzReport": (
        "ToeplitzReport(beta=1.0, r=(1.0,), gaps=(0.3068528194400547,), "
        "exists=True, factors_through_quotient=False)"),
    "PhaseReport": ("PhaseReport(beta=1, applicable=True, reason='', "
                    "extreme_points=1)"),
    "ConsistencyReport": (
        "ConsistencyReport(m=(0,), n=(1,), exact=True, "
        "max_refinement_error=0.0, total_mass_error=0.0, passed=True)"),
    "AgreementReport": (
        "AgreementReport(mu=Path(e1), nu=Path(e2), periodic=True, "
        "theta_matched=False, closed_form=Fraction(0, 1), level=2, "
        "level_bound=Fraction(0, 1))"),
    "DecayWitness": ("DecayWitness(g=(1,), a=(2,), tails={'v': Path(e1.e2)}, "
                     "K=Fraction(3, 4))"),
    "DecayReport": (
        "DecayReport(g=(1,), a=(2,), K=Fraction(3, 4), masses=(Fraction(1, 2)"
        ", Fraction(1, 8), Fraction(1, 32)), bounds=(Fraction(1, 2), "
        "Fraction(3, 8), Fraction(9, 32)), exact=True, passed=True)"),
    "ThetaMap": ("ThetaMap(m=(1, 0), n=(0, 1), "
                 "table={Path(a1): Path(b1), Path(a2): Path(b2)})"),
    "PeriodicityGroup": (
        "PeriodicityGroup(k=2, basis=((1, -1),), search_bound=1, "
        "confirmed=((1, -1),), complete_up_to_bound=True)"),
    "MatrixFamily": "MatrixFamily(labels=('v',), matrices=(((2,),),))",
    "PerronData": (
        "PerronData(labels=('v',), rho=(2.0,), x=(1.0,), "
        "rho_exact=(Fraction(2, 1),), x_exact=(Fraction(1, 1),), "
        "F=((0,),), F_bound=0)"),
    "SubinvarianceReport": (
        "SubinvarianceReport(subinvariant=True, violations=(), "
        "y_positive=True, lambda_dominates_rho=True, "
        "equals_eigenvector=True)"),
    "SpectralCheckReport": (
        "SpectralCheckReport(n=(1,), oracle_power=2.0, predicted_power=2.0, "
        "power_error=0.0, oracle_box=2.0, predicted_box=1.0, box_error=1.0)"),
    "QQi": "(1/2+-3i)",
}

# slotted records, which keep no attribute dictionary
SLOTTED = {"Edge", "Square", "Path"}


@pytest.fixture(scope="module")
def records():
    """One record of each class, keyed by class name."""
    b2 = builders.FIXTURES["b2"]()
    pb2 = builders.FIXTURES["pullback-b2"]()
    fam = MatrixFamily.from_graph(b2)
    pd = perron_data(fam)
    cm = CylinderMeasure(b2, pd)
    states = KMSStates(b2, pd, group=periodicity_group(b2, 2))
    e1, e2 = b2.parse_path("e1"), b2.parse_path("e2")
    witness = find_decay_witness(cm, (1,))
    # failures as tuples, so the repr reads the same whatever the field
    # types of the report the graph caches
    rep = ValidationReport(*(tuple(v) if isinstance(v, list) else v
                             for v in vars(b2.validate()).values()))
    found = [
        b2.edges[0], pb2.squares[0], b2.parse_path("e1.e2"), rep,
        StateSpec.character((F(1, 4),)),
        states.unitary_identities((1,)),
        states.kms_check(StateSpec.haar(), (1,)),
        states.toeplitz_kms_exists(1, [1]),
        states.phase_diagram(1),
        consistency_check(cm, (0,), (1,)),
        agreement_mass(cm, e1, e2, 2),
        witness,
        decay_check(cm, witness, e1, b2.parse_path("v"), 2),
        theta(pb2, (1, 0), (0, 1)),
        periodicity_group(pb2, 1),
        fam, pd,
        verify_subinvariance(fam, (F(1),), (F(2),), pd),
        spectral_radius_power_check(fam, (1,), lambda m: 2, pd),
        QQi(F(1, 2), F(-3)),
    ]
    return {type(r).__name__: r for r in found}


def fields(record):
    return tuple(type(record).__annotations__)


def values(record):
    return tuple(getattr(record, name) for name in fields(record))


def test_one_record_of_each_class(records):
    assert sorted(records) == sorted(REPRS)
    assert {name: repr(r) for name, r in records.items()} == REPRS


def test_records_are_frozen(records):
    # ValidationReport: see test_validation.test_cached_report_is_frozen
    for name, r in records.items():
        if name == "ValidationReport":
            continue
        field = fields(r)[0]
        with pytest.raises(AttributeError):
            setattr(r, field, None)
        with pytest.raises(AttributeError):
            delattr(r, field)
        assert getattr(r, field) is values(r)[0], name


def test_equality_and_hash_follow_the_fields(records):
    for name, r in records.items():
        if name == "ValidationReport":
            continue
        twin = type(r)(*values(r))
        assert twin == r and not twin != r, name
        try:
            want = hash(values(r))
        except TypeError:   # a dict field: unhashable, as the record is
            with pytest.raises(TypeError):
                hash(r)
        else:
            assert hash(r) == hash(twin) == want, name
    # equal fields in another class are not equal
    edge, square = records["Edge"], records["Square"]
    assert type(square)(*values(edge)) != edge


def test_reports_keep_their_fields_in_vars(records):
    for name, r in records.items():
        if name in SLOTTED:
            assert not hasattr(r, "__dict__"), name
        elif name != "QQi":
            assert vars(r) == dict(zip(fields(r), values(r))), name


def test_path_hash_is_its_field_tuple_hash(pb2g):
    paths = pb2g.paths_of_degree((2, 2))
    assert len(paths) == 16
    for p in paths:
        assert hash(p) == hash((p.degree, p.edges, p.range, p.source))


def test_path_is_not_a_tuple(pb2g):
    vertex = pb2g.vertex_path(pb2g.vertices[0])
    for p in [vertex, *pb2g.paths_of_degree((1, 1))]:
        as_tuple = (p.degree, p.edges, p.range, p.source)
        assert p != as_tuple and as_tuple != p
        assert p in {p} and as_tuple not in {p}
        with pytest.raises(TypeError):
            json.dumps(p)
