"""The bit-vector metric core agrees with the definitional oracles.

The oracles in ``cube_oracles.py`` are the brute-force recognizers: Theta
from four-point tests on every edge pair, medianness from interval triples,
daisy cubes from string orientation flips, isometry and convexity from the
distance table.  Both sides run on the resonance graphs of every
catacondensed system of up to six rings, on random small connected
graphs, which include odd cycles and graphs that are not partial cubes,
and on induced subgraphs of Q2-Q6 with tied bits, where the daisy root is
a choice.  The flood fill and the label certificate are also checked on
random graphs that may be disconnected.  Convexity read edge by edge from
isometric labels is checked against the table convexity on random partial
cubes.  The decomposition steps' face-pair convexity and expansion flags
are checked against the table convexity and the graph expansion, on the
inner side and on sets around it that are convex or not, and their
lower-cover o-closed test against the downward-closure operator, at every
step of the six-ring corpus; that operator is checked to be a closure.
"""

from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import cube_oracles as oracle
from rescube import cube_kit as ck, decomposition
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.decomposition import auto_rfd, theorem_report
from rescube.errors import NotAPartialCube
from rescube.matchings import bit_ids, enumerate_matchings, handle_column, pack
from rescube.plane_graph import edge_key, is_peripherally_two_colorable
from rescube.resonance import build_resonance


def assert_agree(mg, labels=None):
    """The library and the oracles agree on a connected graph: on a partial
    cube Theta, the labelling and idim, everywhere the verdicts and their
    reasons; off partial cubes the library's Theta raises."""
    theta = oracle.theta_classes(mg)
    assert oracle.theta_from_distance_differences(mg) == theta
    fast, slow = ck.is_partial_cube(mg), oracle.is_partial_cube(mg)
    fields = ("ok", "labelling", "idim", "theta_raw_transitive", "reason")
    assert [getattr(fast, f) for f in fields] == [getattr(slow, f) for f in fields]
    if slow.ok:
        assert ck.theta_classes(mg) == theta
    else:
        with pytest.raises(NotAPartialCube):
            ck.theta_classes(mg)
    assert ck.is_median(mg) == oracle.is_median(mg)
    daisy = ck.is_daisy_cube(mg)
    assert daisy == oracle.is_daisy_cube(mg, "roots")
    assert daisy.ok == oracle.is_daisy_cube(mg, "exhaustive").ok
    candidates = [labels] if labels else []
    if fast.ok and mg.vertices:
        candidates.append(fast.labelling)
        v = mg.vertices[-1]
        if fast.idim:
            bent = dict(fast.labelling)
            bent[v] ^= 1  # position 1 flipped
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
    """A connected graph with up to 16 vertices, a label per vertex drawn as
    a bit string, and the strings' length.  The graph is either the
    component of an induced subgraph of a hypercube (often a partial cube,
    sometimes median or daisy), or a random tree plus random chords (often
    with odd cycles or a non-transitive Theta)."""
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
    labels = {v: oracle.bits(draw(label)) for v in vertices}
    return ck.MetricGraph(vertices, edges), labels, width


@settings(max_examples=300, deadline=None)
@given(connected_graphs())
def test_fast_path_matches_oracle_on_random_graphs(case):
    mg, labels, _ = case
    assert_agree(mg, labels)


@st.composite
def tied_cube_subgraphs(draw):
    """The component of the first vertex, in shuffled order, of an induced
    subgraph of Q_d for 2 <= d <= 6: a set A of Q_(d-1) and its copy across
    one more bit, all XORed with a drawn mask.  That bit is set on exactly
    half the labels (tied), and so is every bit on which A is symmetric.  A
    is a down-set (a daisy cube, cut to its 12 smallest members, which stay
    a down-set) or any set of up to 12 members."""
    dim = draw(st.integers(min_value=2, max_value=6))
    corner = st.integers(0, (1 << (dim - 1)) - 1)
    if draw(st.booleans()):
        tops = draw(st.sets(corner, min_size=1, max_size=3))
        base = [c for c in range(1 << (dim - 1)) if any(c & t == c for t in tops)][:12]
    else:
        base = draw(st.sets(corner, min_size=1, max_size=12))
    tie = draw(st.integers(0, dim - 1))
    mask = draw(st.integers(0, (1 << dim) - 1))
    low = (1 << tie) - 1
    points = [
        ((c & ~low) << 1 | side << tie | c & low) ^ mask for c in base for side in (0, 1)
    ]
    order = draw(st.permutations(points))
    edges = [(u, v) for u, v in combinations(order, 2) if (u ^ v).bit_count() == 1]
    first = oracle.components(ck.MetricGraph(order, edges))[0]
    vertices = [v for v in order if v in first]
    return ck.MetricGraph(vertices, [(u, v) for u, v in edges if u in first])


@settings(max_examples=300, deadline=None)
@given(tied_cube_subgraphs())
def test_fast_path_matches_oracle_on_tied_cube_subgraphs(mg):
    assert_agree(mg)


def test_k23_theta_is_not_transitive():
    k23 = ck.MetricGraph(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
    assert not oracle.theta_classes(k23).raw_transitive
    assert not oracle.theta_from_distance_differences(k23).raw_transitive
    assert_agree(k23)


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
    labels = {k: oracle.bits(s) for k, s in enumerate(gray)}
    assert len(set(gray)) == 8
    assert all(oracle.hamming(gray[u], gray[v]) == 1 for u, v in c8.edges)
    assert not oracle.is_isometric_labelling(c8, labels)
    assert not ck.is_isometric_labelling(c8, labels)


def assert_certificate_agrees(data, mg, labels, width):
    """The certificate and the table agree on the labels, on the labels with
    two of them swapped, and on the labels with one of their ``width`` bits
    flipped."""
    candidates = [labels]
    if len(mg.vertices) >= 2:
        u, v = data.draw(st.lists(st.sampled_from(mg.vertices), min_size=2, max_size=2, unique=True))
        swapped = dict(labels)
        swapped[u], swapped[v] = labels[v], labels[u]
        candidates.append(swapped)
    w = data.draw(st.sampled_from(mg.vertices))
    if width:
        flipped = dict(labels)
        flipped[w] = labels[w] ^ 1 << data.draw(st.integers(0, width - 1))
        candidates.append(flipped)
    for cand in candidates:
        assert ck.is_isometric_labelling(mg, cand) == oracle.is_isometric_labelling(mg, cand)


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_certificate_matches_oracle_on_connected_graphs(case, data):
    mg, labels, width = case
    pc = ck.is_partial_cube(mg)
    if pc.ok:
        labels, width = pc.labelling, pc.idim
    assert_certificate_agrees(data, mg, labels, width)


@st.composite
def disconnected_labelled_graphs(draw):
    """Two components, each an induced connected subgraph of one hypercube
    labelled by its coordinates, and the labels' width; the second
    component's labels are XORed with a drawn mask, so labels may repeat
    across the components or not."""
    dim = draw(st.integers(min_value=1, max_value=4))
    cube = st.sets(st.integers(0, (1 << dim) - 1), min_size=1)
    vertices, edges, labels = [], [], {}
    for side, mask in enumerate((0, draw(st.integers(0, (1 << dim) - 1)))):
        chosen = sorted(draw(cube))
        cube_edges = [(u, v) for u, v in combinations(chosen, 2) if (u ^ v).bit_count() == 1]
        part, part_edges = _component_of_first(chosen, cube_edges)
        vertices += [(side, x) for x in part]
        edges += [((side, u), (side, v)) for u, v in part_edges]
        labels.update({(side, x): oracle.bits(format(x ^ mask, f"0{dim}b")) for x in part})
    return ck.MetricGraph(vertices, edges), labels, dim


@settings(max_examples=200, deadline=None)
@given(disconnected_labelled_graphs(), st.data())
def test_certificate_matches_oracle_on_disconnected_graphs(case, data):
    mg, labels, width = case
    assert not ck.is_isometric_labelling(mg, labels)
    assert_certificate_agrees(data, mg, labels, width)


@settings(max_examples=200, deadline=None)
@given(any_graphs(), st.data())
def test_certificate_matches_oracle_on_random_graphs(mg, data):
    assume(mg.vertices)
    width = data.draw(st.integers(min_value=0, max_value=4))
    label = st.text(alphabet="01", min_size=width, max_size=width)
    labels = {v: oracle.bits(data.draw(label)) for v in mg.vertices}
    assert_certificate_agrees(data, mg, labels, width)


# ---------------------------------------------------------------------------
# the downward-closure operator o
# ---------------------------------------------------------------------------


def test_operator_o_examples():
    labels = {k: oracle.bits(text) for k, text in enumerate(("00", "10", "01", "11"))}
    assert oracle.operator_o(labels, [3]) == frozenset({0, 1, 2, 3})
    assert oracle.operator_o(labels, []) == frozenset()
    assert oracle.operator_o(labels, [1]) == frozenset({0, 1})


@st.composite
def labelled_sets(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    count = draw(st.integers(min_value=1, max_value=12))
    labels = draw(
        st.lists(
            st.text(alphabet="01", min_size=n, max_size=n),
            min_size=count,
            max_size=count,
            unique=True,
        )
    )
    mapping = {k: oracle.bits(lab) for k, lab in enumerate(labels)}
    subset = draw(st.lists(st.sampled_from(sorted(mapping)), unique=True))
    return mapping, frozenset(subset)


@given(labelled_sets())
def test_operator_o_is_a_closure(data):
    labels, subset = data
    closed = oracle.operator_o(labels, subset)
    assert subset <= closed  # extensive
    assert oracle.operator_o(labels, closed) == closed  # idempotent
    bigger = closed | subset
    assert oracle.operator_o(labels, subset) <= oracle.operator_o(labels, bigger)  # monotone


# ---------------------------------------------------------------------------
# convexity from labels, and the expansion flags derived from it
# ---------------------------------------------------------------------------


def oracle_expansion_flags(mg, labels, subset):
    """The flags of the peripheral expansion along (all vertices, subset),
    from the graph expansion; no expansion means no flags."""
    try:
        result = oracle.expand(mg, set(mg.vertices), subset, labels)
    except oracle.NotAnExpansion:
        return False
    return result.peripheral and result.convex and result.le


def derived_expansion_flags(labels, subset, convex):
    """The flags as a step derives them from the subset's convexity."""
    subset = frozenset(subset)
    return bool(subset) and convex and oracle.operator_o(labels, subset) == subset


@settings(max_examples=300, deadline=None)
@given(connected_graphs(), st.data())
def test_label_convexity_matches_oracle_on_partial_cubes(case, data):
    mg, _, _ = case
    pc = ck.is_partial_cube(mg)
    assume(pc.ok)
    for _ in range(3):
        subset = data.draw(st.sets(st.sampled_from(mg.vertices)))
        convex = oracle.is_convex_by_labels(mg.edges, subset, pc.labelling)
        assert convex == oracle.is_convex_subset(mg, subset)
        assert derived_expansion_flags(
            pc.labelling, subset, convex
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


def pair_rule_convex(prev, subset):
    """The step's face-pair reading of convexity on any set of matchings of
    G_(i-1): each face pair of R(G_(i-1)) read on the set, then the rule on
    G_(i-1)'s daisy columns."""
    side = sum(1 << v for v in subset)
    on_side = [decomposition._inside(pair, side) for pair in prev.pairs]
    return decomposition._is_convex(on_side, prev.daisy.columns, side)


def _report_steps(shape, monkeypatch):
    """Per decomposition step i of the report on the shape: its clauses, the
    record of prefix i - 1, the previous resonance graph, the
    previous labels as the step reads them (G_i's daisy columns but the
    last, packed onto the matchings whose last bit is clear, transposed),
    the labels its convexity is read from (G_(i-1)'s daisy columns,
    transposed), and the inner side, the matchings of G_(i-1) that hold the
    end edges of the face's path outside the ear; none when the shape has
    no decomposition."""
    g = build_benzenoid(shape)
    if g.is_cycle_graph() or not is_peripherally_two_colorable(g).ok:
        return []
    records = []
    prefix = decomposition._prefix

    def prefix_spy(*args):
        records.append(prefix(*args))
        return records[-1]

    monkeypatch.setattr(decomposition, "_prefix", prefix_spy)
    rfd = auto_rfd(g)
    report = theorem_report(g, rfd)
    monkeypatch.undo()

    steps = [report["steps"][k] for k in sorted(report["steps"], key=int)]
    assert len(steps) == len(records) - 1 >= 1
    out = []
    for i, clauses in enumerate(steps, start=2):
        prev, cur = records[i - 2], records[i - 1]
        ear = oracle._assemble_path(cur.edges - prev.edges)
        cycle = g.faces[rfd.faces[i - 1]].edges
        ear_edges = {edge_key(a, b) for a, b in zip(ear, ear[1:])}
        inner = oracle._assemble_path(cycle - ear_edges)
        inner_set = frozenset(bit_ids(handle_column(prev.family, inner)))
        *earlier, last = cur.daisy.columns
        lifts = cur.family.full & ~last
        kept = [pack(col, lifts) for col in earlier]
        labels = dict(enumerate(ck._transpose(kept, lifts.bit_count())))
        bits = dict(enumerate(ck._transpose(list(prev.daisy.columns), len(prev.family))))
        assert bits == prev.daisy.labels  # a labelling's labels are its columns transposed
        mg = oracle.prefix_resonance(prev).metric()
        out.append((clauses, prev, mg, labels, bits, inner_set))
    return out


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_step_convexity_matches_oracle(shape, monkeypatch):
    """At every step convexity is read from the previous face pairs and
    daisy labels, which are isometric, and the report's inner-convex and
    expansion-flags clauses equal the table convexity and the graph
    expansion's flags.  The face-pair rule equals the table convexity on
    every one of the step's sets, some of which are not convex once some
    R(G_(i-1)) is larger than K2."""
    verdicts, larger = set(), False
    for clauses, prev, mg, labels, bits, inner in _report_steps(shape, monkeypatch):
        # from step 3 on the previous daisy labels are the step's previous
        # labels; R(G_1) is K2, whose two labellings 0 and 1 may swap
        assert bits == {v: labels[v] for v in mg.vertices} or (
            sorted(bits.values()) == sorted(labels.values()) == [0, 1]
        )
        assert oracle.is_isometric_labelling(mg, bits)
        assert oracle.is_isometric_labelling(mg, labels)
        # every edge of R(G_(i-1)) at position p flips bit p - 1
        edges = oracle.prefix_resonance(prev).edges
        assert all(bits[u] ^ bits[v] == 1 << (p - 1) for u, v, p in edges)
        assert clauses["inner-convex"] == oracle.is_convex_subset(mg, inner)
        assert clauses["expansion-flags"] == oracle_expansion_flags(mg, labels, inner)
        larger = larger or len(mg.vertices) > 2
        for subset in _step_subsets(mg, bits, inner):
            convex = pair_rule_convex(prev, subset)
            assert convex == oracle.is_convex_subset(mg, subset)
            assert convex == oracle.is_convex_by_labels(mg.edges, subset, bits)
            assert derived_expansion_flags(
                labels, subset, convex
            ) == oracle_expansion_flags(mg, labels, subset)
            verdicts.add(convex)
    assert False in verdicts or not larger


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_step_lower_cover_test_matches_operator_o(shape, monkeypatch):
    """The previous labels are a down-set at every step, so the report's
    lower-cover reading of inner-le-subgraph equals o-closedness by the
    downward-closure operator; so it does on the steps' other subsets."""
    tested = []
    is_downward_closed = ck.is_downward_closed

    def lower_cover_spy(label_set):
        tested.append(frozenset(label_set))
        return is_downward_closed(label_set)

    monkeypatch.setattr(ck, "is_downward_closed", lower_cover_spy)
    for clauses, _, mg, labels, bits, inner in _report_steps(shape, monkeypatch):
        assert clauses["label-deletion"]
        assert oracle.is_downward_closed(labels.values())
        assert frozenset(labels[v] for v in inner) in tested
        assert clauses["inner-le-subgraph"] == (oracle.operator_o(labels, inner) == inner)
        for subset in _step_subsets(mg, bits, inner):
            lower_closed = ck.is_downward_closed({labels[v] for v in subset})
            assert lower_closed == (oracle.operator_o(labels, subset) == subset)


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
    k2 = ck.MetricGraph([0, 1], [(0, 1)])
    labels = {0: oracle.bits("0"), 1: oracle.bits("1")}
    assert oracle.expand(k2, {0, 1}, {0}, labels).le
    assert not oracle.expand(k2, {0, 1}, {1}, labels).le
    assert not oracle.expand(k2, {0, 1}, {0}).le


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
