"""The bit-vector metric core agrees with the definitional oracles.

The oracles in ``cube_oracles.py`` are the brute-force recognizers: Theta
from four-point tests on every edge pair, medianness from interval triples,
daisy cubes from string orientation flips.  Both sides run on the resonance
graphs of every catacondensed system of up to six rings and on random small
connected graphs, which include odd cycles and graphs that are not partial
cubes.  The flood fill is checked against union-find on random graphs that
may be disconnected and may hold odd cycles.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import cube_oracles as oracle
from rescube import cube_kit as ck
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.matchings import enumerate_matchings
from rescube.resonance import build_resonance


def assert_agree(mg, labels=None):
    assert ck.theta_classes(mg) == oracle.theta_classes(mg)
    fast, slow = ck.is_partial_cube(mg), oracle.is_partial_cube(mg)
    fields = ("ok", "labelling", "idim", "theta_raw_transitive", "reason")
    assert [getattr(fast, f) for f in fields] == [getattr(slow, f) for f in fields]
    assert ck.is_median(mg) == oracle.is_median(mg)
    for method in ("roots", "exhaustive", "auto"):
        assert ck.is_daisy_cube(mg, method) == oracle.is_daisy_cube(mg, method)
    candidates = [labels] if labels else []
    if fast.ok and mg.vertices:
        candidates.append(fast.labelling)
        v = mg.vertices[-1]
        lab = fast.labelling[v]
        if lab:
            bent = dict(fast.labelling)
            bent[v] = ("1" if lab[0] == "0" else "0") + lab[1:]
            candidates.append(bent)
    for cand in candidates:
        assert ck.is_isometric_labelling(mg, cand) == oracle.is_isometric_labelling(
            mg, cand
        )


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_fast_path_matches_oracle_on_resonance_graphs(shape):
    g = build_benzenoid(shape)
    metric = build_resonance(g, enumerate_matchings(g)).metric()
    assert_agree(metric)


def _component_of_first(vertices, edges):
    first = oracle.components(ck.MetricGraph(vertices, edges))[0]
    return sorted(first), [(u, v) for u, v in edges if u in first]


@st.composite
def connected_graphs(draw):
    """A connected graph with up to 16 vertices and a bit-string label per
    vertex: either the component of an induced subgraph of a hypercube
    (often a partial cube, sometimes median or daisy), or a random tree plus
    random chords (often with odd cycles or a non-transitive Theta)."""
    if draw(st.booleans()):
        dim = draw(st.integers(min_value=1, max_value=4))
        chosen = sorted(draw(st.sets(st.integers(0, (1 << dim) - 1), min_size=1)))
        edges = [(u, v) for u, v in combinations(chosen, 2) if (u ^ v).bit_count() == 1]
        vertices, edges = _component_of_first(chosen, edges)
    else:
        n = draw(st.integers(min_value=1, max_value=8))
        vertices = list(range(n))
        edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        chords = draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=2 * n)
        )
        edges += [(u, v) for u, v in chords if u != v]
    width = draw(st.integers(min_value=0, max_value=4))
    label = st.text(alphabet="01", min_size=width, max_size=width)
    labels = {v: draw(label) for v in vertices}
    return ck.MetricGraph(vertices, edges), labels


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_fast_path_matches_oracle_on_random_graphs(case):
    mg, labels = case
    assert_agree(mg, labels)


@st.composite
def any_graphs(draw):
    """Up to 10 vertices in shuffled order and random edges: often
    disconnected, with isolated vertices and odd cycles."""
    n = draw(st.integers(min_value=0, max_value=10))
    vertices = draw(st.permutations(range(n)))
    pairs = []
    if n:
        end = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(end, end), max_size=2 * n))
    return ck.MetricGraph(vertices, [(u, v) for u, v in pairs if u != v])


@settings(max_examples=300, deadline=None)
@given(any_graphs())
def test_flood_matches_oracle_on_random_graphs(mg):
    comps = oracle.components(mg)
    neighbors = mg.adjacency.__getitem__
    assert ck.components(sorted(mg.vertices), neighbors) == comps
    assert mg.is_connected == oracle.is_connected(mg)
    assert mg.is_bipartite == oracle.is_bipartite(mg)
    # roots are the first vertex of each component in the given order, at
    # parity 0; on a bipartite graph every edge joins the two parities
    side = ck.flood(mg.vertices, neighbors)
    first = {v: next(w for w in mg.vertices if w in c) for c in comps for v in c}
    assert {v: root for v, (root, _) in side.items()} == first
    assert all(side[root][1] == 0 for root in first.values())
    if oracle.is_bipartite(mg):
        assert all(side[u][1] != side[v][1] for u, v in mg.edges)
