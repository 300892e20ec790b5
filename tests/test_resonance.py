"""Resonance graph construction, labels, connectivity, and the product
structure over elementary components."""

from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescube.cube_kit import MetricGraph, is_median
from rescube.errors import InternalInvariantBroken
from rescube.matchings import (
    MatchingFamily,
    bit_ids,
    enumerate_matchings,
    resonance_columns,
)
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.plane_graph import edge_subgraph, elementary_analysis
from rescube.resonance import (
    ResonanceGraph,
    build_resonance,
    resonance_to_dot,
    resonance_to_json,
)

import cube_oracles as oracle


def resonance_of(g):
    return build_resonance(g, enumerate_matchings(g))


def pairwise_resonance_edges(g, family) -> tuple:
    """The definitional construction, kept as the oracle for the pairing of
    proper with improper resonant matchings: every pair of matchings whose
    symmetric difference is the boundary of one finite face, labelled by
    that face."""
    faces = g.face_by_edge_set
    ms = oracle.matchings(family)
    return tuple(
        (i, j, faces[ms[i].edges ^ ms[j].edges])
        for i in range(len(ms))
        for j in range(i + 1, len(ms))
        if ms[i].edges ^ ms[j].edges in faces
    )


def assert_face_pairing_matches_oracle(g):
    """The pairing gives the definitional edges, and each vertex's matching
    is the one the edge-set enumeration lists under its id."""
    family = enumerate_matchings(g)
    r = build_resonance(g, family)
    assert r.edges == pairwise_resonance_edges(g, family)
    sets = oracle.enumerate_matching_edge_sets(g)
    assert [oracle.matchings(r.family)[mid].edges for mid in r.vertices] == sets


def assert_enumeration_order(g):
    """The two facts the face pairing rests on: ids sort the matchings by
    their sorted edge lists, and twisting the k-th proper resonant matching
    of a face gives its k-th improper resonant one."""
    family = enumerate_matchings(g)
    ms, ids = oracle.matchings(family), oracle.index(family)
    assert list(ms) == sorted(ms, key=lambda m: sorted(m.edges))
    for face in g.finite_faces:
        proper, improper = resonance_columns(g, family, face.id)
        twisted = [ids[ms[k].edges ^ face.edges] for k in bit_ids(proper)]
        assert twisted == bit_ids(improper)


def test_face_pairing_matches_oracle_on_fixtures(pyrene, nested_rings):
    for g in (pyrene, nested_rings):
        assert_face_pairing_matches_oracle(g)


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_face_pairing_matches_oracle_on_corpus(shape):
    assert_face_pairing_matches_oracle(build_benzenoid(shape))


def test_enumeration_order_on_fixtures(pyrene, nested_rings):
    for g in (pyrene, nested_rings):
        assert_enumeration_order(g)


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_enumeration_order_on_corpus(shape):
    assert_enumeration_order(build_benzenoid(shape))


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
    picks = draw(st.sets(st.sampled_from(oracle.matchings(family)), min_size=1, max_size=4))
    extra = draw(st.sets(st.sampled_from(sorted(g.edges))))
    return edge_subgraph(g, frozenset().union(*(m.edges for m in picks)) | extra)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_face_pairing_matches_oracle_on_edge_subsets(pyrene, nested_rings, data):
    graphs = small_corpus() + (pyrene, nested_rings)
    assert_face_pairing_matches_oracle(data.draw(matchable_edge_subsets(graphs)))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_enumeration_order_on_edge_subsets(pyrene, nested_rings, data):
    graphs = small_corpus() + (pyrene, nested_rings)
    assert_enumeration_order(data.draw(matchable_edge_subsets(graphs)))


def test_unpaired_face_breaks_an_invariant(hexagon):
    # a family that lacks one of the hexagon's two matchings leaves its face
    # with a proper resonant matching and no improper one
    family = enumerate_matchings(hexagon)
    half = MatchingFamily({e: col & 1 for e, col in family.columns.items() if col & 1}, 1)
    assert oracle.matchings(half) == oracle.matchings(family)[:1]
    with pytest.raises(InternalInvariantBroken):
        build_resonance(hexagon, half)


def test_pairs_are_the_resonance_columns(branched5):
    """R(G) holds each finite face's proper and improper resonant matchings
    as they are, and lists its edges only once they are read."""
    r = resonance_of(branched5)
    assert set(r.pairs) == {face.id for face in branched5.finite_faces}
    for face in branched5.finite_faces:
        assert r.pairs[face.id] == resonance_columns(branched5, r.family, face.id)
    assert "edges" not in vars(r)
    assert r.edges == pairwise_resonance_edges(branched5, r.family)


def test_unequal_pair_breaks_an_invariant(hexagon):
    # a face class joins the k-th proper to the k-th improper matching, so
    # its two bitsets must be the same size
    r = resonance_of(hexagon)
    fid, (proper, _) = next(iter(r.pairs.items()))
    with pytest.raises(InternalInvariantBroken):
        ResonanceGraph(r.family, {fid: (proper, 0)})


def test_theta_sides_are_the_sides_of_each_face_class(branched5, nested_rings):
    """Every face's class is a Theta class of R(G), mapped once per R(G) to
    the side that, with its complement, makes up R(G) without the class."""
    from cube_oracles import components

    r = resonance_of(branched5)
    assert "theta_sides" not in vars(r)
    assert set(r.theta_sides) == {f.id for f in branched5.finite_faces}
    for fid, side in r.theta_sides.items():
        rest = MetricGraph(r.vertices, [(u, v) for u, v, f in r.edges if f != fid])
        halves = {sum(1 << v for v in part) for part in components(rest)}
        assert halves == {side, r.family.full ^ side}
    # a disconnected R(G) is no partial cube: no face has a side
    assert resonance_of(nested_rings).theta_sides == {}


def component_parts(g):
    """The elementary components with their resonance graphs, as (graph,
    resonance graph) pairs in min-vertex order."""
    analysis = elementary_analysis(g)
    parts = []
    for comp in analysis.elementary_components:
        sub = edge_subgraph(g, [e for e in analysis.allowed_edges if set(e) <= comp])
        parts.append((sub, resonance_of(sub)))
    return parts


def component_count(metric) -> int:
    return len(oracle.components(metric))


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
    ms = oracle.matchings(r.family)
    for u, v, fid in r.edges:
        assert ms[u].edges ^ ms[v].edges == branched5.faces[fid].edges


def test_three_ring_prefix():
    g = build_benzenoid([(0, 0), (1, -1), (2, -1)])
    r = resonance_of(g)
    assert len(r) == 5
    assert len(r.edges) == 5


def test_connectivity(branched5, nested_rings, two_hexagons):
    assert component_count(resonance_of(branched5).metric()) == 1
    assert component_count(resonance_of(nested_rings).metric()) == 2
    assert component_count(resonance_of(two_hexagons).metric()) == 1


def test_connectivity_of_product_graphs(two_hexagons, nested_rings):
    # the product metric's vertices are tuples of part ids, so one part
    # may appear twice
    _, metric = oracle.product_resonance(component_parts(two_hexagons))
    assert component_count(metric) == 1
    nested = (nested_rings, resonance_of(nested_rings))
    _, metric = oracle.product_resonance([nested, nested])
    assert component_count(metric) == 4


def test_resonance_bipartite_and_median(branched5):
    metric = resonance_of(branched5).metric()
    assert metric.is_bipartite
    assert is_median(metric)


def assert_product_of_parts(g):
    """R(G) keyed by content is the product of its components' resonance
    graphs; returns the product's metric graph."""
    product, metric = oracle.product_resonance(component_parts(g))
    assert oracle.keyed_resonance(g, resonance_of(g)) == product
    return product, metric


def test_product_of_two_hexagons(two_hexagons):
    product, metric = assert_product_of_parts(two_hexagons)
    assert len(product.vertices) == 4
    assert len(product.edges) == len(metric.edges) == 4  # a four-cycle


def test_product_of_hexagon_with_naphthalene(hexagon_plus_naphthalene):
    parts = component_parts(hexagon_plus_naphthalene)
    product, _ = assert_product_of_parts(hexagon_plus_naphthalene)
    # one factor is a single edge, the other a three-vertex path: a 3x2 grid
    assert sorted(len(r) for _, r in parts) == [2, 3]
    assert len(product.vertices) == 6
    assert len(product.edges) == 7


def test_product_of_branched_with_hexagon(branched5_plus_hexagon):
    product, _ = assert_product_of_parts(branched5_plus_hexagon)
    assert len(product.vertices) == 28
    assert len(product.edges) == 2 * 23 + 14


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_product_of_parts_on_edge_subsets(pyrene, nested_rings, data):
    g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assume(elementary_analysis(g).is_weakly_elementary)
    assert_product_of_parts(g)


def test_product_of_single_part_is_identity(branched5):
    r = resonance_of(branched5)
    product, _ = oracle.product_resonance([(branched5, r)])
    assert oracle.keyed_resonance(branched5, r) == product


def test_pendant_graph_resonance(hexagon_with_pendant_path):
    r = resonance_of(hexagon_with_pendant_path)
    assert len(r) == 2
    assert component_count(r.metric()) == 1  # weakly elementary despite the bridge


def test_resonance_graph_holds_no_graph_and_no_edge_set_view(branched5):
    """R(G) is its edge list over the family's ids: neither it nor the
    family holds the plane graph, and neither reads a matching's edges."""
    r = resonance_of(branched5)
    assert not hasattr(r, "graph") and not hasattr(r.family, "graph")
    removed = ("vertex_key", "face_key", "labelled_edge_keys", "vertex_keys")
    assert not any(hasattr(ResonanceGraph, name) for name in removed)


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
