"""Embedding, faces, coloring, handles, and the structural verdicts."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes

from rescube.errors import (
    EmbeddingInconsistent,
    NoHandles,
    NotAlternating,
    NotBipartite,
    NoPerfectMatching,
    RescubeError,
    UnsupportedInput,
)
from rescube.plane_graph import (
    build_plane_graph,
    canonical_coloring,
    edge_key,
    edge_subgraph,
    elementary_analysis,
    facial_handle_decomposition,
    from_rotation_system,
    graph_from_json,
    graph_to_json,
    handles,
    is_peripherally_two_colorable,
    swap_colors,
    _walk_area2,
)

from cube_oracles import (
    all_cycles,
    branch_walk_handles,
    enumerated_elementary_analysis,
    has_cut_vertex,
)
from test_resonance import matchable_edge_subsets, small_corpus


def shoelace(g, face):
    walk = face.darts
    return _walk_area2(walk, g.coords)


def without_coordinates(g):
    """The same plane graph rebuilt from its rotation system alone."""
    return from_rotation_system(g.rotation, [f.darts[0] for f in g.infinite_faces])


def reembedded(g, keep):
    """Oracle for ``edge_subgraph``: embed the kept edges afresh from coordinates."""
    used = sorted({v for e in keep for v in e})
    return build_plane_graph([(v, *g.coords[v]) for v in used], sorted(keep))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_hexagon_counts(hexagon):
    assert len(hexagon.vertices) == 6
    assert len(hexagon.edges) == 6
    assert len(hexagon.faces) == 2
    assert len(hexagon.finite_faces) == 1
    assert hexagon.is_cycle_graph()


def test_branched_counts(branched5):
    assert len(branched5.vertices) == 22
    assert len(branched5.edges) == 26
    assert len(branched5.finite_faces) == 5
    # Euler: 22 - 26 + 6 = 2
    assert len(branched5.faces) == 6


def test_two_hexagons_disjoint(two_hexagons):
    assert len(two_hexagons.components) == 2
    assert len(two_hexagons.finite_faces) == 2
    assert len(two_hexagons.infinite_faces) == 2


def test_every_dart_traced_once(branched5):
    seen = set()
    for f in branched5.faces:
        for d in f.darts:
            assert d not in seen
            seen.add(d)
    assert len(seen) == 2 * len(branched5.edges)


def test_face_orientations(branched5):
    for f in branched5.faces:
        area = shoelace(branched5, f)
        if f.is_infinite:
            assert area > 0
        else:
            assert area < 0


def test_coloring_proper_and_anchored(branched5, two_hexagons):
    for g in (branched5, two_hexagons):
        for u, v in g.edges:
            assert g.color(u) != g.color(v)
        for comp in g.components:
            assert g.color(min(comp)) == "white"


def test_not_bipartite_rejected():
    with pytest.raises(NotBipartite):
        build_plane_graph([(0, 0, 0), (1, 1, 0), (2, 0, 1)], [(0, 1), (1, 2), (0, 2)])


def test_input_validation():
    with pytest.raises(ValueError):
        build_plane_graph([(0, 0, 0), (0, 1, 0)], [])
    with pytest.raises(ValueError):
        build_plane_graph([(0, 0, 0), (1, 1, 1)], [(0, 0)])
    with pytest.raises(ValueError):
        build_plane_graph([(0, 0, 0), (1, 1, 1)], [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        build_plane_graph([(0, 0, 0), (1, 0, 0)], [(0, 1)])


def test_fraction_coordinates_round_trip(hexagon):
    text = graph_to_json(hexagon)
    again = graph_from_json(text)
    assert again.edges == hexagon.edges
    assert graph_to_json(again) == text


def test_rotation_system_input():
    # a hexagon given by rotations alone; vertex 0's outer walk designated
    rotation = {i: ((i + 1) % 6, (i - 1) % 6) for i in range(6)}
    g = from_rotation_system(rotation, infinite_darts=[(1, 0)])
    assert len(g.finite_faces) == 1
    assert frozenset(g.finite_faces[0].darts) == frozenset(
        (i, (i + 1) % 6) for i in range(6)
    )
    assert g.coords is None


def test_rotation_system_euler_violation():
    # K4 with rotations chosen so the tracing closes on a torus, not the plane
    rotation = {
        0: (1, 2, 3),
        1: (0, 2, 3),
        2: (0, 1, 3),
        3: (0, 1, 2),
    }
    with pytest.raises((EmbeddingInconsistent, NotBipartite)):
        from_rotation_system(rotation, infinite_darts=[(0, 1)])


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


def test_cycle_has_no_handles(hexagon):
    with pytest.raises(NoHandles):
        handles(hexagon)


def test_branched_handle_inventory(branched5):
    hs = handles(branched5)
    kinds = sorted((h.kind, h.length) for h in hs)
    assert kinds == [
        ("exterior", 1),
        ("exterior", 1),
        ("exterior", 1),
        ("exterior", 1),
        ("exterior", 3),
        ("exterior", 5),
        ("exterior", 5),
        ("exterior", 5),
        ("interior", 1),
        ("interior", 1),
        ("interior", 1),
        ("interior", 1),
    ]
    # every handle of a peripherally 2-colorable graph has odd length
    assert all(h.length % 2 == 1 for h in hs)


def test_handles_reject_cut_vertices(hexagon_with_pendant_path):
    with pytest.raises(UnsupportedInput):
        handles(hexagon_with_pendant_path)


def outcome(fn):
    """``fn()``, or the type of the rescube error it raises."""
    try:
        return fn()
    except RescubeError as exc:
        return type(exc)


def walk_order_outcome(face, pool):
    """What the decomposition of ``face`` must give, read off the branch-walk
    handles ``pool`` by the run of handles the facial walk passes through:
    the error type, or None when the runs alternate."""
    by_edge = {e: h for h in pool for e in h.edges}
    held = [by_edge.get(edge_key(*d)) for d in face.darts]
    if None in held:
        return NoHandles
    runs = [h for k, h in enumerate(held) if h != held[k - 1]] or held[:1]
    if len(runs) % 2 or any(a.kind == b.kind for a, b in zip(runs, runs[1:] + runs[:1])):
        return NotAlternating
    return None


def assert_handles_match_branch_walk(g):
    """``handles`` equals the branch walk's set, or raises the same error
    type; every face's decomposition holds branch-walk handles, oriented
    and listed along its clockwise walk from the interior handle whose
    first vertex is smallest, each meeting the next end to start."""
    pool = outcome(lambda: branch_walk_handles(g))
    assert outcome(lambda: handles(g)) == pool
    for face in g.finite_faces:
        dec = outcome(lambda: facial_handle_decomposition(g, face.id))
        if not isinstance(pool, frozenset):
            assert dec == pool
            continue
        expected = walk_order_outcome(face, pool)
        if expected is not None:
            assert dec == expected
            continue
        seq = dec.sequence
        assert set(seq) <= pool
        assert [h.kind for h in seq] == ["interior", "exterior"] * dec.m
        assert seq[0].path[0] == min(h.path[0] for h in dec.interior)
        for a, b in zip(seq, seq[1:] + seq[:1]):
            assert a.path[-1] == b.path[0]
        darts = [d for h in seq for d in zip(h.path, h.path[1:])]
        k = face.darts.index(darts[0])
        assert darts == list(face.darts[k:] + face.darts[:k])


def test_cut_vertices_match_oracle_on_fixtures(
    branched5, pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path, hexagon,
    even_interior,
):
    # two squares sharing one vertex: the infinite walk passes it twice
    bowtie = build_plane_graph(
        [(0, 0, 0), (1, 1, 1), (2, 2, 0), (3, 1, -1), (4, -1, 1), (5, -2, 0), (6, -1, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
    )
    assert has_cut_vertex(bowtie) and has_cut_vertex(hexagon_with_pendant_path)
    assert not has_cut_vertex(branched5) and not has_cut_vertex(two_hexagons)
    for g in (branched5, pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path,
              bowtie, hexagon, even_interior):
        assert_handles_match_branch_walk(g)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_cut_vertices_match_oracle_on_edge_subsets(pyrene, nested_rings, data):
    """Whole graphs are 2-connected; deleting a few edges leaves pendant
    paths, blocks joined at a vertex, or several components."""
    g = data.draw(st.sampled_from(small_corpus() + (pyrene, nested_rings)))
    drop = data.draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=3))
    assert_handles_match_branch_walk(edge_subgraph(g, g.edges - drop))


@pytest.mark.parametrize("shape", catacondensed_polyhexes(7), ids=str)
def test_handles_match_branch_walk_on_corpus(shape):
    assert_handles_match_branch_walk(build_benzenoid(shape))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_handles_match_branch_walk_on_edge_subsets(pyrene, nested_rings, even_interior, data):
    graphs = small_corpus() + (pyrene, nested_rings, even_interior)
    assert_handles_match_branch_walk(data.draw(matchable_edge_subsets(graphs)))


def test_each_face_walked_once_per_graph(
    monkeypatch, pyrene, hexagon, hexagon_with_pendant_path
):
    """The facial decompositions and both codings read every face's
    handles off its own walk, once per graph, and never call ``handles``;
    a failure is not cached, so it is raised again on every call."""
    from rescube import coding, plane_graph
    from rescube.decomposition import auto_rfd
    from rescube.matchings import enumerate_matchings

    def refuse(g):
        raise AssertionError("handles called")

    walks = []
    runs = plane_graph._handle_runs

    def spy(g, face):
        walks.append((g, face.id))
        return runs(g, face)

    monkeypatch.setattr(plane_graph, "handles", refuse)
    monkeypatch.setattr(plane_graph, "_handle_runs", spy)
    g = build_benzenoid([(0, 0), (1, 0), (1, 1)])
    family, rfd = enumerate_matchings(g), auto_rfd(g)
    for face in g.finite_faces:
        facial_handle_decomposition(g, face.id)
    coding.daisy_labelling(g, family, rfd)
    coding.fdl_labelling(g, family, rfd)
    assert sorted(walks) == sorted((g, face.id) for face in g.finite_faces)
    # a face that does not alternate is walked again on every call
    walks.clear()
    for _ in range(2):
        with pytest.raises(NotAlternating):
            facial_handle_decomposition(pyrene, pyrene.finite_faces[0].id)
    assert walks == [(pyrene, pyrene.finite_faces[0].id)] * 2
    # the graph-wide check raises before any face is walked, on every call
    walks.clear()
    for bad, error in ((hexagon, NoHandles), (hexagon_with_pendant_path, UnsupportedInput)):
        for _ in range(2):
            with pytest.raises(error):
                facial_handle_decomposition(bad, bad.finite_faces[0].id)
            assert "_facial_handles" not in vars(bad)
    assert walks == []


def test_facial_decomposition_shapes(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    expected = {f1: 1, f2: 3, f3: 2, f4: 1, f5: 1}
    for fid, m in expected.items():
        dec = facial_handle_decomposition(branched5, fid)
        assert dec.m == m
        kinds = [h.kind for h in dec.sequence]
        assert kinds == ["interior", "exterior"] * m
        # consecutive handles share exactly one junction vertex
        seq = dec.sequence
        for a, b in zip(seq, seq[1:] + seq[:1]):
            assert a.path[-1] == b.path[0]
        # concatenation reproduces the facial cycle
        edges = frozenset(e for h in seq for e in h.edges)
        assert edges == branched5.faces[fid].edges


def test_face_one_handle_lengths(branched5, branched5_faces):
    dec = facial_handle_decomposition(branched5, branched5_faces[0])
    assert [(h.kind, h.length) for h in dec.sequence] == [
        ("interior", 1),
        ("exterior", 5),
    ]


def test_pyrene_decomposition_not_alternating(pyrene):
    # faces touching the inner vertices have consecutive interior handles
    failures = 0
    for f in pyrene.finite_faces:
        try:
            facial_handle_decomposition(pyrene, f.id)
        except NotAlternating:
            failures += 1
    assert failures > 0


# ---------------------------------------------------------------------------
# peripherally 2-colorable
# ---------------------------------------------------------------------------


def test_p2c_verdicts(branched5, hexagon, naphthalene, phenanthrene, triphenylene):
    for g in (branched5, hexagon, naphthalene, phenanthrene, triphenylene):
        assert is_peripherally_two_colorable(g).ok


def test_p2c_pyrene_witness(pyrene):
    verdict = is_peripherally_two_colorable(pyrene)
    assert not verdict.ok
    assert verdict.failed_clause == "branch-on-periphery"
    v = verdict.witness
    assert pyrene.degree(v) == 3
    peripheral = set(pyrene.infinite_faces[0].boundary)
    assert v not in peripheral


def test_p2c_anthracene_alternation(anthracene):
    verdict = is_peripherally_two_colorable(anthracene)
    assert not verdict.ok
    assert verdict.failed_clause == "branch-alternation"
    a, b = verdict.witness
    assert anthracene.color(a) == anthracene.color(b)


def test_p2c_small_and_disconnected(two_hexagons):
    assert not is_peripherally_two_colorable(two_hexagons).ok
    k2 = build_plane_graph([(0, 0, 0), (1, 1, 0)], [(0, 1)])
    verdict = is_peripherally_two_colorable(k2)
    assert not verdict.ok and verdict.failed_clause == "min-size"


def test_p2c_invariant_under_color_swap(branched5, pyrene):
    for g in (branched5, pyrene):
        assert (
            is_peripherally_two_colorable(g).ok
            == is_peripherally_two_colorable(swap_colors(g)).ok
        )


def test_swap_colors_involution(branched5):
    twice = swap_colors(swap_colors(branched5))
    assert twice.coloring == branched5.coloring
    assert swap_colors(branched5).coloring != branched5.coloring
    assert canonical_coloring(swap_colors(branched5)) == branched5.coloring


# ---------------------------------------------------------------------------
# elementary analysis
# ---------------------------------------------------------------------------


def test_branched_elementary(branched5):
    report = elementary_analysis(branched5)
    assert report.is_elementary
    assert report.is_weakly_elementary
    assert len(report.elementary_components) == 1
    assert not report.forbidden_edges


def test_two_hexagons_weakly_elementary(two_hexagons):
    report = elementary_analysis(two_hexagons)
    assert not report.is_elementary
    assert report.is_weakly_elementary
    assert len(report.elementary_components) == 2


def test_pendant_path_not_elementary(hexagon_with_pendant_path):
    report = elementary_analysis(hexagon_with_pendant_path)
    assert not report.is_elementary
    assert len(report.forbidden_edges) == 1
    # the forced pendant edge stays allowed, the bridge into the cycle does not
    (forbidden,) = report.forbidden_edges
    assert 100 in forbidden


def test_nested_rings_not_weakly_elementary(nested_rings):
    report = elementary_analysis(nested_rings)
    assert not report.is_elementary
    assert not report.is_weakly_elementary
    assert report.forbidden_edges == frozenset({(0, 8), (2, 10)})


def test_rotation_system_elementary_analysis(
    naphthalene, hexagon_with_pendant_path, nested_rings
):
    # no coordinates are needed, with or without a forbidden edge
    for plane in (naphthalene, hexagon_with_pendant_path, nested_rings):
        g = without_coordinates(plane)
        assert elementary_analysis(g) == elementary_analysis(plane)
        assert is_peripherally_two_colorable(g) == is_peripherally_two_colorable(plane)
    assert elementary_analysis(without_coordinates(naphthalene)).is_elementary


def test_verdicts_enumerate_nothing(
    monkeypatch, branched5, pyrene, two_hexagons, hexagon_with_pendant_path, nested_rings
):
    # one perfect matching decides elementarity, so neither verdict nor a
    # reducible face decomposition enumerates the perfect matchings
    from rescube import plane_graph
    from rescube.decomposition import auto_rfd

    def refuse(g, cap=plane_graph.DEFAULT_MATCHING_CAP):
        raise AssertionError("perfect matchings enumerated")

    monkeypatch.setattr(plane_graph, "enumerate_matching_columns", refuse)
    assert is_peripherally_two_colorable(branched5).ok
    assert auto_rfd(branched5).n == 5
    for g in (pyrene, two_hexagons, hexagon_with_pendant_path, nested_rings):
        assert not is_peripherally_two_colorable(g).ok
        elementary_analysis(g)


def test_elementary_analysis_is_memoised_on_the_graph(branched5, monkeypatch):
    from rescube import plane_graph

    g = plane_graph.edge_subgraph(branched5, branched5.edges)  # not yet analysed
    calls = []
    verdict = plane_graph.elementary_verdict

    def counted(vertices, neighbours, coloring):
        calls.append(vertices)
        return verdict(vertices, neighbours, coloring)

    monkeypatch.setattr(plane_graph, "elementary_verdict", counted)
    assert elementary_analysis(g) is elementary_analysis(g)
    assert is_peripherally_two_colorable(g).ok
    assert calls == [g.vertices]
    # a raise is not cached: every call looks for a perfect matching again
    path = build_plane_graph([(0, 0, 0), (1, 1, 0), (2, 2, 0)], [(0, 1), (1, 2)])
    for _ in range(2):
        with pytest.raises(NoPerfectMatching):
            elementary_analysis(path)
    assert calls == [g.vertices, path.vertices, path.vertices]


def analyses(g) -> list:
    """The library's and the oracle's elementary analysis of ``g``, with
    ``NoPerfectMatching`` standing for a raise."""
    out = []
    for analyse in (elementary_analysis, enumerated_elementary_analysis):
        try:
            out.append(analyse(g))
        except NoPerfectMatching:
            out.append(NoPerfectMatching)
    return out


@pytest.mark.parametrize("shape", catacondensed_polyhexes(7), ids=str)
def test_elementary_analysis_matches_oracle_on_corpus(shape):
    library, oracle = analyses(build_benzenoid(shape))
    assert library == oracle


def test_elementary_analysis_matches_oracle_on_fixtures(
    pyrene, nested_rings, hexagon_with_pendant_path, two_hexagons
):
    # odd order; and balanced colours where white 0 and white 2 both have
    # black 1 as their only neighbour, so the second finds no augmenting path
    path3 = build_plane_graph([(0, 0, 0), (1, 1, 0), (2, 2, 0)], [(0, 1), (1, 2)])
    tree = build_plane_graph(
        [(0, -1, 0), (1, 0, 0), (2, 0, 1), (3, 2, 1), (4, 1, 0), (5, 2, -1)],
        [(0, 1), (1, 2), (1, 4), (3, 4), (4, 5)],
    )
    for g in (pyrene, nested_rings, hexagon_with_pendant_path, two_hexagons):
        library, oracle = analyses(g)
        assert library == oracle
        assert library is not NoPerfectMatching
    for g in (path3, tree):
        assert analyses(g) == [NoPerfectMatching, NoPerfectMatching]


@st.composite
def edge_subsets(draw, graphs):
    """``test_resonance``'s matchable edge subsets less a few more edges:
    disconnected, odd-order and matching-free subgraphs come out too."""
    g = draw(matchable_edge_subsets(graphs))
    drop = draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=4))
    return edge_subgraph(g, g.edges - drop)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_elementary_analysis_matches_oracle_on_edge_subsets(pyrene, nested_rings, data):
    g = data.draw(edge_subsets(small_corpus() + (pyrene, nested_rings)))
    library, oracle = analyses(g)
    assert library == oracle


def test_no_perfect_matching():
    g = build_plane_graph(
        [(0, 0, 0), (1, 1, 0), (2, 2, 0)], [(0, 1), (1, 2)]
    )
    with pytest.raises(NoPerfectMatching):
        elementary_analysis(g)


def test_edge_subgraph_keeps_ids(branched5):
    face = branched5.finite_faces[0]
    sub = edge_subgraph(branched5, face.edges)
    assert set(sub.vertices) == set(face.boundary)
    assert sub.coords == {v: branched5.coords[v] for v in sub.vertices}
    assert sub.is_cycle_graph()


def test_edge_subgraph_matches_reembedding(pyrene, nested_rings):
    """The inherited rotation system gives the coordinate re-embedding, also
    on disconnected subsets and on components nested in another's face."""
    rounds = [(build_benzenoid(cells), 8) for cells in catacondensed_polyhexes(6)]
    rounds += [(pyrene, 40), (nested_rings, 40)]
    rng = random.Random(5)
    # the spoke-free rings: the inner one has no edge on the outer periphery
    subsets = [(nested_rings, nested_rings.edges - {(0, 8), (2, 10)})]
    for g, count in rounds:
        edges = sorted(g.edges)
        for _ in range(count):
            p = rng.choice((0.3, 0.6, 0.9))
            subsets.append((g, {e for e in edges if rng.random() < p}))
        subsets += [(g, g.edges - {e}) for e in edges[:3]]
    for g, keep in subsets:
        want = reembedded(g, keep)
        for got in (edge_subgraph(g, keep), edge_subgraph(without_coordinates(g), keep)):
            assert got.edges == want.edges
            assert got.rotation == want.rotation
            assert got.faces == want.faces
            assert got.coloring == want.coloring
        assert edge_subgraph(g, keep).coords == want.coords


# ---------------------------------------------------------------------------
# cycle space
# ---------------------------------------------------------------------------


def test_all_cycles_counts(hexagon, naphthalene, branched5):
    assert len(all_cycles(hexagon)) == 1
    assert len(all_cycles(naphthalene)) == 3
    cycles = all_cycles(branched5)
    # every subset of faces is checked; each cycle is a closed clockwise walk
    for walk in cycles:
        assert walk[0] == walk[-1]
        assert len(set(walk[:-1])) == len(walk) - 1


def test_cycles_are_clockwise(naphthalene):
    for walk in all_cycles(naphthalene):
        darts = list(zip(walk, walk[1:]))
        assert _walk_area2(darts, naphthalene.coords) < 0


def test_corpus_handles_odd_and_alternating():
    for shape in catacondensed_polyhexes(5):
        g = build_benzenoid(shape)
        if not is_peripherally_two_colorable(g).ok or g.is_cycle_graph():
            continue
        for h in handles(g):
            assert h.length % 2 == 1, shape
        for face in g.finite_faces:
            dec = facial_handle_decomposition(g, face.id)
            kinds = [h.kind for h in dec.sequence]
            assert kinds == ["interior", "exterior"] * dec.m, shape
            for a, b in zip(dec.sequence, dec.sequence[1:] + dec.sequence[:1]):
                assert a.path[-1] == b.path[0], shape


def test_float_coordinates_accepted():
    g = build_plane_graph(
        [(0, 0.0, 0.0), (1, 1.0, 0.0), (2, 1.0, 1.5), (3, 0.0, 1.5)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    from fractions import Fraction

    assert g.coords[2] == (Fraction(1), Fraction(3, 2))
    assert len(g.finite_faces) == 1


def test_string_rational_coordinates():
    g = build_plane_graph(
        [(0, "0", "0"), (1, "1", "0"), (2, "1", "1/2"), (3, "0", "1/2")],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    from fractions import Fraction

    assert g.coords[2] == (Fraction(1), Fraction(1, 2))


def test_int_coordinates_stay_ints():
    from fractions import Fraction

    g = build_plane_graph(
        [(0, 0, 0), (1, 1, 0), (2, True, Fraction(3, 2)), (3, 0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
    )
    assert [type(c) for c in g.coords[1]] == [int, int]
    # a bool converts as any other non-int value does
    assert [type(c) for c in g.coords[2]] == [Fraction, Fraction]
    assert graph_from_json(graph_to_json(g)).coords == g.coords
