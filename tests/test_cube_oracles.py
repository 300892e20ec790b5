"""The bit-vector metric core agrees with the definitional oracles.

The oracles in ``cube_oracles.py`` are the brute-force recognizers: Theta
from four-point tests on every edge pair, medianness from interval triples,
daisy cubes from string orientation flips, isometry and convexity from the
distance table.  Both sides run on the resonance graphs of every
catacondensed system of up to six rings and on random small connected
graphs, which include odd cycles and graphs that are not partial cubes.
The flood fill and the label certificate are also checked on random graphs
that may be disconnected.  The decomposition steps' label convexity and
expansion flags are checked against the table convexity and the graph
expansion at every step of the six-ring corpus.
"""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import cube_oracles as oracle
from rescube import cube_kit as ck
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.decomposition import theorem_report
from rescube.matchings import enumerate_matchings
from rescube.plane_graph import is_peripherally_two_colorable
from rescube.resonance import build_resonance


def assert_agree(mg, labels=None):
    assert ck.theta_classes(mg) == oracle.theta_classes(mg)
    fast, slow = ck.is_partial_cube(mg), oracle.is_partial_cube(mg)
    fields = ("ok", "labelling", "idim", "theta_raw_transitive", "reason")
    assert [getattr(fast, f) for f in fields] == [getattr(slow, f) for f in fields]
    assert ck.is_median(mg) == oracle.is_median(mg)
    daisy = ck.is_daisy_cube(mg)
    assert daisy == oracle.is_daisy_cube(mg, "roots")
    assert daisy.ok == oracle.is_daisy_cube(mg, "exhaustive").ok
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


# ---------------------------------------------------------------------------
# the label certificate
# ---------------------------------------------------------------------------


def test_certificate_rejects_gray_cycle():
    """C8 labelled by the 3-bit Gray cycle: distinct labels and one flipped
    bit per edge, but opposite vertices are 4 apart and 2 bits apart."""
    gray = ["000", "001", "011", "010", "110", "111", "101", "100"]
    c8 = ck.MetricGraph(range(8), [(i, (i + 1) % 8) for i in range(8)])
    labels = dict(enumerate(gray))
    assert len(set(gray)) == 8
    assert all(oracle.hamming(labels[u], labels[v]) == 1 for u, v in c8.edges)
    assert not oracle.is_isometric_labelling(c8, labels)
    assert not ck.is_isometric_labelling(c8, labels)


def _flip(label, position):
    return label[:position] + ("1" if label[position] == "0" else "0") + label[position + 1 :]


def assert_certificate_agrees(data, mg, labels):
    """The certificate and the table agree on the labels, on the labels with
    two of them swapped, and on the labels with one bit flipped."""
    candidates = [labels]
    if len(mg.vertices) >= 2:
        u, v = data.draw(st.lists(st.sampled_from(mg.vertices), min_size=2, max_size=2, unique=True))
        swapped = dict(labels)
        swapped[u], swapped[v] = labels[v], labels[u]
        candidates.append(swapped)
    w = data.draw(st.sampled_from(mg.vertices))
    if labels[w]:
        flipped = dict(labels)
        flipped[w] = _flip(labels[w], data.draw(st.integers(0, len(labels[w]) - 1)))
        candidates.append(flipped)
    for cand in candidates:
        assert ck.is_isometric_labelling(mg, cand) == oracle.is_isometric_labelling(mg, cand)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_certificate_matches_oracle_on_connected_graphs(case, data):
    mg, labels = case
    pc = ck.is_partial_cube(mg)
    assert_certificate_agrees(data, mg, pc.labelling if pc.ok else labels)


@st.composite
def disconnected_labelled_graphs(draw):
    """Two components, each an induced connected subgraph of one hypercube
    labelled by its coordinates; the second component's labels are XORed
    with a drawn mask, so labels may repeat across the components or not."""
    dim = draw(st.integers(min_value=1, max_value=4))
    cube = st.sets(st.integers(0, (1 << dim) - 1), min_size=1)
    vertices, edges, labels = [], [], {}
    for side, mask in enumerate((0, draw(st.integers(0, (1 << dim) - 1)))):
        chosen = sorted(draw(cube))
        cube_edges = [(u, v) for u, v in combinations(chosen, 2) if (u ^ v).bit_count() == 1]
        part, part_edges = _component_of_first(chosen, cube_edges)
        vertices += [(side, x) for x in part]
        edges += [((side, u), (side, v)) for u, v in part_edges]
        labels.update({(side, x): format(x ^ mask, f"0{dim}b") for x in part})
    return ck.MetricGraph(vertices, edges), labels


@settings(max_examples=200, deadline=None)
@given(disconnected_labelled_graphs(), st.data())
def test_certificate_matches_oracle_on_disconnected_graphs(case, data):
    mg, labels = case
    assert not ck.is_isometric_labelling(mg, labels)
    assert_certificate_agrees(data, mg, labels)


@settings(max_examples=200, deadline=None)
@given(any_graphs(), st.data())
def test_certificate_matches_oracle_on_random_graphs(mg, data):
    assume(mg.vertices)
    width = data.draw(st.integers(min_value=0, max_value=4))
    label = st.text(alphabet="01", min_size=width, max_size=width)
    labels = {v: data.draw(label) for v in mg.vertices}
    assert_certificate_agrees(data, mg, labels)


# ---------------------------------------------------------------------------
# convexity from labels, and the expansion flags derived from it
# ---------------------------------------------------------------------------


def oracle_expansion_flags(mg, labels, subset):
    """The flags of the peripheral expansion along (all vertices, subset),
    from the graph expansion; no expansion means no flags."""
    labelled = ck.MetricGraph(mg.vertices, mg.edges, labels)
    try:
        result = oracle.expand(labelled, set(mg.vertices), subset)
    except oracle.NotAnExpansion:
        return False
    return result.peripheral and result.convex and result.le


def derived_expansion_flags(mg, bits, labels, subset):
    subset = frozenset(subset)
    convex = ck.is_convex_subset(mg, subset, bits)
    return bool(subset) and convex and ck.operator_o(labels, subset) == subset


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_label_convexity_matches_oracle_on_partial_cubes(case, data):
    mg, _ = case
    pc = ck.is_partial_cube(mg)
    assume(pc.ok)
    for _ in range(3):
        subset = data.draw(st.sets(st.sampled_from(mg.vertices)))
        assert ck.is_convex_subset(mg, subset, pc.bits) == oracle.is_convex_subset(mg, subset)
        assert derived_expansion_flags(
            mg, pc.bits, pc.labelling, subset
        ) == oracle_expansion_flags(mg, pc.labelling, subset)


def _step_subsets(mg, bits, inner):
    """The inner side, and sets that are convex or not: the inner side less
    one member or plus one neighbour, each half-space, and the union of two
    half-spaces."""
    yield inner
    if inner:
        yield inner - {max(inner)}
        u = min(inner)
        yield inner | mg.adjacency[u]
    idim = max(bits.values()).bit_length()
    halves = [frozenset(v for v in mg.vertices if bits[v] >> k & 1) for k in range(idim)]
    yield from halves
    yield from (a | b for a, b in combinations(halves[:4], 2))


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_step_convexity_matches_oracle(shape, monkeypatch):
    """At every step the certificate holds on the previous daisy labels, and
    the report's inner-convex and expansion-flags clauses equal the table
    convexity and the graph expansion's flags."""
    g = build_benzenoid(shape)
    if g.is_cycle_graph() or not is_peripherally_two_colorable(g).ok:
        return
    certified, convex_calls = [], []
    isometric_bits, is_convex_subset = ck.isometric_bits, ck.is_convex_subset

    def bits_spy(mg, labels):
        bits = isometric_bits(mg, labels)
        certified.append((mg, labels, bits))
        return bits

    def convex_spy(mg, subset, bits):
        convex_calls.append(frozenset(subset))
        return is_convex_subset(mg, subset, bits)

    monkeypatch.setattr(ck, "isometric_bits", bits_spy)
    monkeypatch.setattr(ck, "is_convex_subset", convex_spy)
    report = theorem_report(g)
    monkeypatch.undo()

    steps = [report["steps"][k] for k in sorted(report["steps"], key=int)]
    assert len(steps) == len(certified) == len(convex_calls) >= 1
    for clauses, (mg, labels, bits), inner in zip(steps, certified, convex_calls):
        assert bits == {v: int(labels[v][::-1], 2) for v in mg.vertices}
        assert oracle.is_isometric_labelling(mg, labels)
        assert clauses["inner-convex"] == oracle.is_convex_subset(mg, inner)
        assert clauses["expansion-flags"] == oracle_expansion_flags(mg, labels, inner)
        for subset in _step_subsets(mg, bits, inner):
            assert is_convex_subset(mg, subset, bits) == oracle.is_convex_subset(mg, subset)
            assert derived_expansion_flags(
                mg, bits, labels, subset
            ) == oracle_expansion_flags(mg, labels, subset)


# ---------------------------------------------------------------------------
# the expansion oracle
# ---------------------------------------------------------------------------


def path(n):
    return ck.MetricGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return ck.MetricGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def test_expand_k2_to_p3():
    k2 = ck.MetricGraph([0, 1], [(0, 1)])
    result = oracle.expand(k2, {0, 1}, {1})
    assert len(result.graph.vertices) == 3
    assert len(result.graph.edges) == 2
    assert result.peripheral and result.convex


def test_expand_le_flag():
    k2 = ck.MetricGraph([0, 1], [(0, 1)], labels={0: "0", 1: "1"})
    assert oracle.expand(k2, {0, 1}, {0}).le
    assert not oracle.expand(k2, {0, 1}, {1}).le


def test_expand_p3_house():
    result = oracle.expand(path(3), {0, 1, 2}, {1, 2})
    assert len(result.graph.vertices) == 5
    assert len(result.graph.edges) == 5


def test_expand_k1():
    k1 = ck.MetricGraph([0], [])
    result = oracle.expand(k1, {0}, {0})
    assert len(result.graph.vertices) == 2
    assert len(result.graph.edges) == 1


def test_expand_rejections():
    p4 = path(4)
    with pytest.raises(oracle.NotAnExpansion):
        oracle.expand(p4, {0, 1}, {2, 3})  # no intersection
    with pytest.raises(oracle.NotAnExpansion):
        oracle.expand(p4, {0, 1}, {1, 3})  # right side not isometric (disconnected)
    triangle = ck.MetricGraph(range(3), [(0, 1), (1, 2), (0, 2)])
    with pytest.raises(oracle.NotAnExpansion):
        oracle.expand(triangle, {0, 1}, {1, 2})  # the private parts 0 and 2 are joined
    c4 = cycle(4)
    with pytest.raises(oracle.NotAnExpansion):
        oracle.expand(c4, {0, 1}, {1, 2})  # does not cover


def test_expansion_of_partial_cube_stays_partial_cube():
    base = path(3)
    result = oracle.expand(base, {0, 1, 2}, {1, 2})
    assert ck.is_partial_cube(result.graph).ok
