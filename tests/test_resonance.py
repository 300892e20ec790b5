"""Resonance graph construction, labels, connectivity, and composition."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from rescube.cube_kit import is_median
from rescube.matchings import enumerate_matchings
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.plane_graph import edge_subgraph, elementary_analysis
from rescube.resonance import (
    build_resonance,
    cartesian_compose,
    connectivity_report,
    resonance_to_dot,
    resonance_to_json,
    same_labelled_resonance,
)


def resonance_of(g):
    return build_resonance(g, enumerate_matchings(g))


def pairwise_resonance_edges(g, family) -> tuple:
    """The definitional construction, kept as the oracle for the facial
    twists: every pair of matchings whose symmetric difference is the
    boundary of one finite face, labelled by that face."""
    faces = g.face_by_edge_set
    ms = family.matchings
    return tuple(
        (i, j, faces[ms[i].edges ^ ms[j].edges])
        for i in range(len(ms))
        for j in range(i + 1, len(ms))
        if ms[i].edges ^ ms[j].edges in faces
    )


def assert_twists_match_oracle(g):
    family = enumerate_matchings(g)
    assert build_resonance(g, family).edges == pairwise_resonance_edges(g, family)
    for m in family:
        assert family.by_edges(m.edges) is m
        assert family.by_edges([(v, u) for u, v in m.edges]) is m


def test_twists_match_oracle_on_fixtures(pyrene, nested_rings):
    for g in (pyrene, nested_rings):
        assert_twists_match_oracle(g)


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_twists_match_oracle_on_corpus(shape):
    assert_twists_match_oracle(build_benzenoid(shape))


@lru_cache(maxsize=None)
def small_corpus() -> tuple:
    return tuple(build_benzenoid(c) for c in catacondensed_polyhexes(5))


@st.composite
def matchable_edge_subsets(draw, graphs):
    """An edge subgraph that keeps some perfect matchings: the union of a
    few of them plus random other edges.  One matching alone is a
    disconnected set of edges, a few leave forbidden edges or new faces,
    the spokes of ``nested_rings`` leave it not weakly elementary, and with
    most edges kept the subgraph is often elementary."""
    g = draw(st.sampled_from(graphs))
    family = enumerate_matchings(g)
    picks = draw(st.sets(st.sampled_from(family.matchings), min_size=1, max_size=4))
    extra = draw(st.sets(st.sampled_from(sorted(g.edges))))
    return edge_subgraph(g, frozenset().union(*(m.edges for m in picks)) | extra)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_twists_match_oracle_on_edge_subsets(pyrene, nested_rings, data):
    graphs = small_corpus() + (pyrene, nested_rings)
    assert_twists_match_oracle(data.draw(matchable_edge_subsets(graphs)))


def test_by_edges_misses_raise_key_error(branched5):
    family = enumerate_matchings(branched5)
    m = family[0]
    for edges in (m.edges - {min(m.edges)}, branched5.edges, frozenset()):
        with pytest.raises(KeyError):
            family.by_edges(edges)


def component_parts(g):
    """Resonance graphs of the elementary components, in min-vertex order."""
    analysis = elementary_analysis(g)
    parts = []
    for comp in analysis.elementary_components:
        sub = edge_subgraph(g, [e for e in analysis.allowed_edges if set(e) <= comp])
        parts.append(resonance_of(sub))
    return parts


def test_cycle_gives_one_edge_graph(hexagon):
    r = resonance_of(hexagon)
    assert len(r) == 2
    assert len(r.edges) == 1
    assert r.edges[0][2] == hexagon.finite_faces[0].id


def test_branched_counts_and_labels(branched5, branched5_faces):
    r = resonance_of(branched5)
    assert len(r) == 14
    assert len(r.edges) == 23
    by_face = Counter(fid for _, _, fid in r.edges)
    f1, f2, f3, f4, f5 = branched5_faces
    assert by_face == {f1: 6, f2: 2, f3: 4, f4: 5, f5: 6}


def test_edge_condition_is_single_facial_cycle(branched5):
    r = resonance_of(branched5)
    fam = r.family
    for u, v, fid in r.edges:
        assert fam[u].edges ^ fam[v].edges == branched5.faces[fid].edges


def test_three_ring_prefix():
    g = build_benzenoid([(0, 0), (1, -1), (2, -1)])
    r = resonance_of(g)
    assert len(r) == 5
    assert len(r.edges) == 5


def test_connectivity(branched5, nested_rings, two_hexagons):
    assert connectivity_report(resonance_of(branched5)) == 1
    assert connectivity_report(resonance_of(nested_rings)) == 2
    assert connectivity_report(resonance_of(two_hexagons)) == 1


def test_connectivity_of_composed_graphs(two_hexagons, nested_rings):
    # composed graphs key their adjacency by vertex index, not by id tuple
    assert connectivity_report(cartesian_compose(component_parts(two_hexagons))) == 1
    nested = resonance_of(nested_rings)
    assert connectivity_report(cartesian_compose([nested, nested])) == 4


def test_resonance_bipartite_and_median(branched5):
    metric = resonance_of(branched5).metric()
    assert metric.is_bipartite
    assert is_median(metric)


def test_compose_two_hexagons(two_hexagons):
    direct = resonance_of(two_hexagons)
    composed = cartesian_compose(component_parts(two_hexagons))
    assert len(composed) == 4
    assert len(composed.edges) == 4  # a four-cycle
    assert same_labelled_resonance(direct, composed)


def test_compose_hexagon_with_naphthalene(hexagon_plus_naphthalene):
    direct = resonance_of(hexagon_plus_naphthalene)
    parts = component_parts(hexagon_plus_naphthalene)
    composed = cartesian_compose(parts)
    # one factor is a single edge, the other a three-vertex path: a 3x2 grid
    assert sorted(len(p) for p in parts) == [2, 3]
    assert len(composed) == 6
    assert len(composed.edges) == 7
    assert same_labelled_resonance(direct, composed)


def test_compose_branched_with_hexagon(branched5_plus_hexagon):
    direct = resonance_of(branched5_plus_hexagon)
    composed = cartesian_compose(component_parts(branched5_plus_hexagon))
    assert len(composed) == 28
    assert len(composed.edges) == 2 * 23 + 14
    assert same_labelled_resonance(direct, composed)


def test_compose_single_part_is_identity(branched5):
    r = resonance_of(branched5)
    composed = cartesian_compose([r])
    assert same_labelled_resonance(r, composed)


def test_pendant_graph_resonance(hexagon_with_pendant_path):
    r = resonance_of(hexagon_with_pendant_path)
    assert len(r) == 2
    assert connectivity_report(r) == 1  # weakly elementary despite the bridge


def test_exports_deterministic(branched5):
    r1 = resonance_of(branched5)
    r2 = resonance_of(branched5)
    assert resonance_to_dot(r1) == resonance_to_dot(r2)
    assert resonance_to_json(r1) == resonance_to_json(r2)
    dot = resonance_to_dot(r1, face_names={r1.edges[0][2]: "s1"})
    assert 'face="s1"' in dot


def test_dot_contains_labels(hexagon):
    r = resonance_of(hexagon)
    dot = resonance_to_dot(r, labels={0: "0", 1: "1"})
    assert 'label="M0\\n0"' in dot
