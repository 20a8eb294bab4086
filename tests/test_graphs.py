"""Path category core: factorization, enumeration, common extensions."""

import itertools
import json

import pytest

from kgraphs import degrees as dg
from kgraphs.builders import FIXTURES, make_single_vertex
from kgraphs.errors import (CompositionError, EnumerationCapError,
                            GraphValidationError, InputFormatError,
                            SegmentRangeError)
from kgraphs.graphs import Edge, KGraph
from kgraphs.kms import StateSpec
from kgraphs.measure import agreement_mass


def test_validate_fixtures(graphs):
    for g in graphs.values():
        rep = g.validate()
        assert rep.valid
        assert rep.strongly_connected and rep.no_sources and rep.no_sinks


def test_bad_square_detected(pb2g):
    doc = pb2g.to_json_dict()
    doc["squares"][0]["blue2"] = "a1" \
        if doc["squares"][0]["blue2"] != "a1" else "a2"
    broken = KGraph.from_json_dict(doc)
    rep = broken.validate()
    assert not rep.valid and rep.square_failures
    with pytest.raises(GraphValidationError):
        broken.require_valid()


def _perm_tables(sigma, tau):
    """Single-vertex rank-3 squares from permutations of the color-1 loops:
    x_s.y = y.x_{sigma(s)} and x_s.z = z.x_{tau(s)}."""
    return {
        (1, 2): {(s, 1): (1, sigma[s]) for s in sigma},
        (1, 3): {(s, 1): (1, tau[s]) for s in tau},
        (2, 3): {(1, 1): (1, 1)},
    }


def test_cubical_condition_fails_for_noncommuting_permutations():
    sigma = {1: 2, 2: 1, 3: 3}
    tau = {1: 1, 2: 3, 3: 2}
    rep = make_single_vertex(3, [3, 1, 1],
                             _perm_tables(sigma, tau)).validate()
    assert rep.cubical_checked
    assert not rep.valid
    assert rep.cubical_failures and not rep.square_failures


def test_cubical_condition_holds_for_commuting_permutations():
    sigma = {1: 2, 2: 1, 3: 3}
    assert make_single_vertex(3, [3, 1, 1],
                              _perm_tables(sigma, sigma)).validate().valid
    assert make_single_vertex(3, [2, 2, 2]).validate().valid


def test_counting_identity(graphs):
    for g in graphs.values():
        for n in dg.degrees_below(dg.scale(2, (1,) * g.k)):
            assert g.count_paths(n) == len(g.paths_of_degree(n))


def test_path_counts_pullback(pb2g):
    # degree-(m, n) paths of the pullback are the length-(m + n) base words
    for m, n in itertools.product(range(3), repeat=2):
        assert pb2g.count_paths((m, n)) == 2 ** (m + n)


def test_parse_compose_factorize(pb2g):
    p = pb2g.parse_path("a1.a2.b1")
    assert p.degree == (2, 1)
    assert p.literal() == "a1.a2.b1"
    head, tail = pb2g.factorize(p, (1, 0))
    assert pb2g.compose(head, tail) == p
    assert head.degree == (1, 0) and tail.degree == (1, 1)
    v = pb2g.parse_path("v")
    assert v.is_vertex
    assert pb2g.compose(p, pb2g.vertex_path(p.source)) == p
    assert pb2g.compose(pb2g.vertex_path(p.range), p) == p


def test_factorization_unique_everywhere(pb2g):
    for n in dg.degrees_below((2, 2)):
        for p in pb2g.paths_of_degree(n):
            for m in dg.degrees_below(n):
                head, tail = pb2g.factorize(p, m)
                assert head.degree == m
                assert dg.add(head.degree, tail.degree) == n
                assert pb2g.compose(head, tail) == p


def test_segment(fibg):
    p = fibg.parse_path("euu.euv.evu.euu")
    assert fibg.segment(p, (1,), (3,)).literal() == "euv.evu"
    assert fibg.segment(p, (0,), (4,)) == p
    assert fibg.segment(p, (2,), (2,)).is_vertex
    with pytest.raises(SegmentRangeError):
        fibg.segment(p, (3,), (5,))
    with pytest.raises(SegmentRangeError):
        fibg.segment(p, (2,), (1,))


def test_compose_mismatch(fibg):
    euu = fibg.parse_path("euu")
    euv = fibg.parse_path("euv")
    with pytest.raises(CompositionError):
        fibg.compose(euv, euu)   # source v vs range u
    assert fibg.compose(euu, euv).literal() == "euu.euv"


def test_normal_form_color_order(pb2g):
    # whatever mixed-color word comes in, the stored word is blue-first
    p = pb2g.path_from_edges(["b1", "a2"])
    assert p.degree == (1, 1)
    assert [pb2g.edge(e).color for e in p.edges] == [1, 2]
    # and it equals the square-mate spelled blue-first
    assert p == pb2g.path_from_edges(["a1", "b2"])


def test_lambda_min_symmetry(pb2g):
    paths = [p for n in dg.degrees_below((1, 1))
             for p in pb2g.paths_of_degree(n)]
    for mu, nu in itertools.product(paths, repeat=2):
        fwd = {(a.edges, b.edges) for a, b in pb2g.lambda_min(mu, nu)}
        back = {(b.edges, a.edges) for a, b in pb2g.lambda_min(nu, mu)}
        assert fwd == back
        for a, b in pb2g.lambda_min(mu, nu):
            w = pb2g.compose(mu, a)
            assert w == pb2g.compose(nu, b)
            assert w.degree == dg.join(mu.degree, nu.degree)


def test_lambda_min_distinct_vertices_empty(fibg):
    u, v = fibg.vertex_path("u"), fibg.vertex_path("v")
    assert fibg.lambda_min(u, v) == []
    assert fibg.lambda_min(u, u) == [(u, u)]
    # range mismatch on nontrivial paths too
    euu = fibg.parse_path("euu")
    evu = fibg.parse_path("evu")
    assert fibg.lambda_min(euu, evu) == []


def test_json_roundtrip_and_hash(graphs):
    for g in graphs.values():
        text = g.to_json()
        back = KGraph.from_json(text)
        assert back.to_json() == text
        assert back.sha256() == g.sha256()
        assert text.endswith("\n")


def test_from_json_rejects_garbage(b2g, pb2g):
    with pytest.raises(InputFormatError):
        KGraph.from_json_dict({"k": 1})
    with pytest.raises(InputFormatError):
        KGraph.from_json_dict({
            "k": 1, "vertices": ["v"],
            "edges": [{"id": "e", "color": 1, "range": "v", "source": "w"}],
            "squares": []})
    # wrongly typed fields: each once crashed with a TypeError or was
    # silently read as something else ("uv" as two vertices, true as 1)
    edits = [
        (b2g, ["k"], True),
        (b2g, ["vertices"], "uv"),
        (b2g, ["edges", 0, "color"], True),
        (pb2g, ["vertices"], 5),
        (pb2g, ["vertices"], ["a", 1]),
        (pb2g, ["vertices"], [["v"]]),
        (pb2g, ["edges", 0, "id"], 1),
        (pb2g, ["edges", 0, "range"], ["v"]),
        (pb2g, ["squares", 0, "red2"], ["b"]),
    ]
    for g, where, value in edits:
        doc = json.loads(g.to_json())
        *parents, key = where
        target = doc
        for step in parents:
            target = target[step]
        target[key] = value
        with pytest.raises(InputFormatError):
            KGraph.from_json_dict(doc)


@pytest.mark.parametrize("args", [
    (1, ["a", 1], [], []),
    (1, ["v"], [Edge("e", 1, "v", "v"), Edge(2, 1, "v", "v")], []),
    (True, ["v"], [Edge("e", 1, "v", "v")], []),
    (1, "uv", [], []),
    (1, ["v"], [Edge("e", True, "v", "v")], []),
])
def test_constructor_checks_types(args):
    # each once raised TypeError from a sort or was read as something else
    with pytest.raises(InputFormatError):
        KGraph(*args)


def test_enumeration_cap():
    g = FIXTURES["b2"]()
    g.cap = 1000
    with pytest.raises(EnumerationCapError):
        g.paths_of_degree((30,))


@pytest.mark.parametrize("n", [(1.5, 0), (True, 0), (1,), (1, 0, 0),
                               (-1, 0), [1, 0], 2, "1,0", None])
def test_malformed_degree_is_refused(pb2g, n):
    # a float once reached the matrix power as a bare TypeError, a bool
    # was read as an int, and a short tuple failed as a "bad exponent";
    # count_paths applies the same rule
    for count in (pb2g.paths_of_degree, pb2g.count_paths):
        with pytest.raises(InputFormatError) as err:
            count(n)
        assert str(err.value) == f"degree {n!r} is not in N^2"


def test_foreign_paths_raise_composition_error(pb2g, prodg, measures,
                                               states):
    # product-b2-c2's edge ids are unknown to pullback-b2; Lambda^min and
    # extensions found no path from the foreign vertex v:w1, so
    # agreement_mass reported mass 0, and phi raised a bare KeyError
    p = prodg.parse_path("e1:w1.v:g1")
    mu, nu = prodg.factorize(p, (1, 0))
    for op in (lambda: pb2g.factorize(p, (1, 0)),
               lambda: pb2g.factorize(p, (0, 0)),
               lambda: pb2g.segment(p, (0, 0), (1, 0)),
               lambda: pb2g.compose(mu, nu),
               lambda: pb2g.lambda_min(mu, mu),
               lambda: pb2g.extensions(mu, (1, 1)),
               lambda: agreement_mass(measures["pullback-b2"], mu, mu, 1),
               lambda: states["pullback-b2"].phi_eval(StateSpec.haar(), mu,
                                                      mu)):
        with pytest.raises(CompositionError):
            op()


def test_paths_sorted_and_filtered(prodg):
    paths = prodg.paths_of_degree((1, 1))
    assert paths == sorted(paths, key=lambda p: (p.range, p.edges))
    for v in prodg.vertices:
        sub = prodg.paths_of_degree((1, 1), range=v)
        assert sub == [p for p in paths if p.range == v]
