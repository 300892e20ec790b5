"""Reducible faces, decompositions, and the split/expansion instance checks."""

import functools
import sys
from collections import Counter
from dataclasses import replace
from itertools import permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescube import coding, cube_kit as ck, decomposition, plane_graph
from rescube.benzenoid import (
    AXIAL_NEIGHBORS,
    build_benzenoid,
    canonical_polyhex,
    catacondensed_polyhexes,
)
from rescube.errors import (
    NotAPartialCube,
    NotFound,
    NotReducibleAtStep,
    PeelingStuck,
    RescubeError,
    TheoremViolated,
)
from rescube.decomposition import (
    _in_state,
    _subset_equalities_hold,
    auto_rfd,
    find_reducible_faces,
    rfd_from_face_order,
    split_by_face,
    theorem_report,
    verify_reducible_split,
)
from rescube.matchings import (
    MatchingFamily,
    bit_ids,
    enumerate_matchings,
    extremal_matchings,
    handle_column,
)
from rescube.plane_graph import (
    build_plane_graph,
    elementary_analysis,
    from_rotation_system,
)
from rescube.resonance import ResonanceGraph, build_resonance

import cube_oracles as oracle
from conftest import BRANCHED_CELLS, edge_set, zigzag
from cube_oracles import AVOIDS_END_EDGES, CONTAINS_END_EDGES, end_edge_state
from test_resonance import matchable_edge_subsets, small_corpus


def resonance_of(g):
    return build_resonance(g, enumerate_matchings(g))


# ---------------------------------------------------------------------------
# reducible faces
# ---------------------------------------------------------------------------


def test_reducible_faces_branched(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    assert find_reducible_faces(branched5) == frozenset({f1, f4, f5})


def test_reducible_faces_naphthalene(naphthalene):
    assert find_reducible_faces(naphthalene) == frozenset(
        f.id for f in naphthalene.finite_faces
    )


def test_reducible_faces_cycle_empty(hexagon):
    assert find_reducible_faces(hexagon) == frozenset()


# ---------------------------------------------------------------------------
# walk arcs
# ---------------------------------------------------------------------------


def _nested_square():
    """A square with a smaller square inside it at one corner: the finite
    face between them has a walk that passes the corner twice."""
    return build_plane_graph(
        [(0, 0, 0), (1, 6, 0), (2, 6, 6), (3, 0, 6), (4, 2, 1), (5, 3, 3), (6, 1, 2)],
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)],
    )


def _hexagon_with_inner_spike(hexagon):
    """A hexagon with an edge from a corner to its centre: its finite face's
    walk passes that corner twice and the edge both ways."""
    corner = min(hexagon.vertices)
    vertices = [(v, *hexagon.coords[v]) for v in hexagon.vertices]
    centre = (sum(hexagon.coords[v][0] for v in hexagon.vertices) / 6,
              sum(hexagon.coords[v][1] for v in hexagon.vertices) / 6)
    return build_plane_graph(vertices + [(100, *centre)], [*hexagon.edges, (corner, 100)])


def _assert_arc_agrees(face, edges):
    """The walk arc of the face's edges in the set is the path the edge-set
    oracle assembles from them, in one direction or the other; where the
    arc is None and the oracle finds a path, that path passes a vertex the
    walk repeats, so on a facial cycle the two agree exactly."""
    arc = decomposition._arc(face, edges)
    assembled = oracle._assemble_path(face.edges & edges)
    if arc is not None:
        assert assembled in (arc, arc[::-1])
    elif assembled is not None:
        repeated = {v for v in face.boundary if face.boundary.count(v) > 1}
        assert repeated & set(assembled), (face, sorted(edges))


@pytest.fixture(scope="module")
def arc_fixtures(branched5, pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path,
                 even_interior, triphenylene, hexagon):
    """The fixtures, two of whose finite faces have walks that repeat a vertex."""
    graphs = [branched5, pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path,
              even_interior, triphenylene, hexagon]
    graphs += [_nested_square(), _hexagon_with_inner_spike(hexagon)]
    assert any(
        len(set(f.boundary)) < len(f.boundary) for g in graphs for f in g.finite_faces
    )
    return graphs


def test_walk_arcs_match_assembled_paths(arc_fixtures):
    """On every finite face of the six-ring corpus and the fixtures, the arc
    of its shared periphery and of its edges inside and outside each
    prefix of a decomposition is the oracle's assembled path."""
    graphs = arc_fixtures + [build_benzenoid(cells) for cells in catacondensed_polyhexes(6)]
    for g in graphs:
        try:
            prefixes = auto_rfd(g).subgraph_edges
        except RescubeError:
            prefixes = []
        for face in g.finite_faces:
            _assert_arc_agrees(face, g.periphery_edges)
            for edges in prefixes:
                _assert_arc_agrees(face, edges)
                _assert_arc_agrees(face, face.edges - edges)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_walk_arcs_match_assembled_paths_on_edge_subsets(arc_fixtures, data):
    g = data.draw(st.sampled_from(arc_fixtures))
    face = data.draw(st.sampled_from(g.finite_faces))
    edges = data.draw(st.sets(st.sampled_from(sorted(face.edges))))
    _assert_arc_agrees(face, frozenset(edges))


# ---------------------------------------------------------------------------
# decompositions from face orders
# ---------------------------------------------------------------------------


def test_rfd_reference_order(branched5, branched5_faces):
    rfd = rfd_from_face_order(branched5, branched5_faces)
    assert rfd.n == 5
    assert rfd.attachment == {2: 1, 3: 2, 4: 3, 5: 2}
    assert rfd.subgraph_edges[0] < rfd.subgraph_edges[4]
    assert rfd.subgraph_edges[4] == branched5.edges
    assert [len(e) for e in rfd.subgraph_edges] == [6, 11, 16, 21, 26]
    assert any("first face" in note for note in rfd.notes)


def test_rfd_alternative_start(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    rfd = rfd_from_face_order(branched5, (f4, f3, f2, f1, f5))
    assert rfd.attachment == {2: 1, 3: 2, 4: 3, 5: 3}


def test_rfd_bad_orders(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    with pytest.raises(NotReducibleAtStep) as err:
        rfd_from_face_order(branched5, (f1, f3, f2, f4, f5))
    assert err.value.step == 2  # ring three does not touch ring one
    with pytest.raises(ValueError):
        rfd_from_face_order(branched5, (f1, f2))


def test_rfd_naphthalene(naphthalene):
    ids = [f.id for f in naphthalene.finite_faces]
    rfd = rfd_from_face_order(naphthalene, ids)
    assert rfd.attachment == {2: 1}
    rfd = rfd_from_face_order(naphthalene, list(reversed(ids)))
    assert rfd.attachment == {2: 1}


def test_auto_rfd(branched5, naphthalene, hexagon):
    assert auto_rfd(branched5).n == 5
    assert auto_rfd(naphthalene).n == 2
    rfd = auto_rfd(hexagon)
    assert rfd.n == 1 and rfd.attachment == {}


def test_auto_rfd_pyrene(pyrene):
    rfd = auto_rfd(pyrene)
    assert rfd.n == 4
    assert rfd.attachment is None  # faces attach to several earlier faces


def test_auto_rfd_stuck_on_non_elementary(hexagon_with_pendant_path):
    with pytest.raises(PeelingStuck):
        auto_rfd(hexagon_with_pendant_path)


@pytest.fixture
def embedded(monkeypatch):
    """The edge sets of every subgraph embedded."""
    built = []
    subgraph = plane_graph.edge_subgraph

    def spy(g, keep):
        keep = frozenset(keep)
        built.append(keep)
        return subgraph(g, keep)

    monkeypatch.setattr(plane_graph, "edge_subgraph", spy)
    return built


@pytest.fixture
def verdicts(monkeypatch):
    """The vertex lists of every elementarity verdict the decomposition
    module asks for."""
    asked = []
    verdict = decomposition.elementary_verdict

    def spy(vertices, neighbours, coloring):
        asked.append(tuple(vertices))
        return verdict(vertices, neighbours, coloring)

    monkeypatch.setattr(decomposition, "elementary_verdict", spy)
    return asked


@pytest.mark.parametrize("h, calls", [(9, 8), (14, 13)])
def test_auto_rfd_reduces_each_face_once(h, calls, embedded, verdicts):
    """The peel reads every reduction off the graph's own faces: it embeds
    no subgraph, and decides one candidate per peel, h - 1 peels whose first
    candidate reduces."""
    rfd = auto_rfd(zigzag(h))
    assert rfd.n == h
    assert embedded == [] and len(verdicts) == calls


@pytest.mark.parametrize("h", [1, 2, 5, 9])
def test_rfd_from_face_order_prefixes_are_face_unions(h, embedded):
    """A face order is checked on the graph's faces, embedding nothing; its
    prefix k is the union of its first k faces, and the last prefix is the
    graph itself."""
    g = zigzag(h)
    order = auto_rfd(g).faces
    rfd = rfd_from_face_order(g, order)
    assert embedded == []
    assert rfd.subgraph_edges[-1] is g.edges
    for k, edges in enumerate(rfd.subgraph_edges, start=1):
        assert edges == frozenset().union(*(g.faces[f].edges for f in order[:k]))


@pytest.mark.parametrize(
    "build", [lambda: build_benzenoid(BRANCHED_CELLS), lambda: zigzag(9)],
    ids=["branched5", "zigzag9"],
)
def test_decompositions_embed_and_analyse_nothing(build, monkeypatch):
    """Finding and checking a decomposition run on the graph's own faces:
    no subgraph is embedded and no elementary analysis runs.  Each accepted
    step of a face order adds an odd ear with new interior vertices to an
    even cycle with odd ears, which is elementary (the bipartite ear
    theorem); the ear-by-ear oracle, which does analyse each prefix, agrees
    on every face order (test_face_orders_agree_with_ears).  The peel
    decides its candidates by :func:`plane_graph.elementary_verdict` alone."""
    g = build()  # a fresh graph, not yet analysed
    called = []
    embed, analyse = plane_graph.edge_subgraph, plane_graph._analyse_elementary
    monkeypatch.setattr(plane_graph, "edge_subgraph", lambda *a: called.append(a) or embed(*a))
    monkeypatch.setattr(plane_graph, "_analyse_elementary", lambda h: called.append(h) or analyse(h))
    order = auto_rfd(g).faces
    assert find_reducible_faces(g)
    assert rfd_from_face_order(g, order).faces == order
    assert called == []


# ---------------------------------------------------------------------------
# one step rule: the forward check, the ear-by-ear oracle and the peel agree
# ---------------------------------------------------------------------------


def _free_animals(max_cells, offsets, canonical):
    """Every free lattice animal of 1..max_cells cells, canonical and sorted."""
    current = {canonical([(0, 0)])}
    out = sorted(current)
    for _ in range(1, max_cells):
        current = {
            canonical(set(shape) | {(q + dq, r + dr)})
            for shape in current
            for q, r in shape
            for dq, dr in offsets
            if (q + dq, r + dr) not in shape
        }
        out.extend(sorted(current))
    return out


def _canonical_polyomino(cells):
    """Canonical form under the 8 square-lattice symmetries plus translation."""
    shapes = []
    for mirrored in (False, True):
        shape = [(y, x) if mirrored else (x, y) for x, y in cells]
        for _ in range(4):
            shape = [(-y, x) for x, y in shape]
            mx, my = min(x for x, _ in shape), min(y for _, y in shape)
            shapes.append(tuple(sorted((x - mx, y - my) for x, y in shape)))
    return min(shapes)


def _polyomino(cells):
    """The plane graph of unit squares at the given cells."""
    corners = sorted({(x + dx, y + dy) for x, y in cells for dx in (0, 1) for dy in (0, 1)})
    vid = {p: i for i, p in enumerate(corners)}
    edges = set()
    for x, y in cells:
        ring = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
        for a, b in zip(ring, ring[1:] + ring[:1]):
            edges.add(tuple(sorted((vid[a], vid[b]))))
    return build_plane_graph([(i, *p) for p, i in vid.items()], sorted(edges))


# a pericondensed six-ring system: the peel's first candidate leaves a
# reduction that is not elementary
PERI6 = ((0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0))
SQUARE_OFFSETS = ((1, 0), (0, 1), (-1, 0), (0, -1))

STEP_RULE_CORPUS = (
    # every polyhex of up to 5 rings: catacondensed, pyrene-type and ones
    # with an odd number of vertices
    [(f"hex{cells}", lambda cells=cells: build_benzenoid(cells))
     for cells in _free_animals(5, AXIAL_NEIGHBORS, canonical_polyhex)]
    + [(f"square{cells}", lambda cells=cells: _polyomino(cells))
       for cells in _free_animals(5, SQUARE_OFFSETS, _canonical_polyomino)]
    + [("peri6", lambda: build_benzenoid(PERI6))]
)


def _outcome(fn, g, order):
    """The decomposition with its prefix edge sets, or the error's type and step."""
    try:
        rfd = fn(g, order)
    except (RescubeError, ValueError) as err:
        return type(err), getattr(err, "step", None)
    return rfd, rfd.subgraph_edges


def _assert_one_step_rule(g):
    for order in permutations(f.id for f in g.finite_faces):
        assert _outcome(rfd_from_face_order, g, order) == _outcome(
            oracle.rfd_by_ears, g, order
        ), order
    try:
        rfd = auto_rfd(g)
    except RescubeError:
        return
    if rfd.n > 1:  # an even cycle's decomposition carries its own note
        assert _outcome(rfd_from_face_order, g, rfd.faces) == (rfd, rfd.subgraph_edges)


@pytest.mark.parametrize("name, build", STEP_RULE_CORPUS, ids=[n for n, _ in STEP_RULE_CORPUS])
def test_face_orders_agree_with_ears(name, build):
    """On every face order, the forward check accepts the decomposition the
    ear-by-ear oracle accepts, or fails at the same step; the peel's order
    passes the forward check with the same prefixes."""
    _assert_one_step_rule(build())


@pytest.mark.parametrize(
    "name", ["even_interior", "nested_rings", "hexagon_with_pendant_path", "two_hexagons"]
)
def test_face_orders_agree_with_ears_on_fixtures(name, request):
    _assert_one_step_rule(request.getfixturevalue(name))


# ---------------------------------------------------------------------------
# the peel on the graph's own faces against the embedding peel
# ---------------------------------------------------------------------------


def _peel_outcome(fn, g):
    """The decomposition's faces, attachment, notes and prefix edge sets,
    or the error's type and message."""
    try:
        rfd = fn(g)
    except Exception as err:  # the oracle's errors are compared, not judged
        return type(err), str(err)
    return rfd.faces, rfd.attachment, rfd.notes, rfd.subgraph_edges


def _assert_peel_matches_embedding(g):
    assert _peel_outcome(auto_rfd, g) == _peel_outcome(oracle.embedded_auto_rfd, g)
    assert find_reducible_faces(g) == oracle.embedded_reducible_faces(g)


@functools.cache
def _animals(lattice):
    """Every free polyhex or square polyomino of up to 7 cells."""
    if lattice == "hex":
        return _free_animals(7, AXIAL_NEIGHBORS, canonical_polyhex)
    return _free_animals(7, SQUARE_OFFSETS, _canonical_polyomino)


@pytest.mark.parametrize("cells", range(1, 8))
@pytest.mark.parametrize("lattice", ["hex", "square"])
def test_peel_matches_embedding_on_lattice_animals(lattice, cells):
    """Every polyhex and every square polyomino of this many cells,
    catacondensed or not, with holes or not, with odd order or not."""
    build = build_benzenoid if lattice == "hex" else _polyomino
    shapes = [a for a in _animals(lattice) if len(a) == cells]
    assert shapes
    for shape in shapes:
        _assert_peel_matches_embedding(build(shape))


def test_lattice_animal_counts():
    """The corpus above is complete: 1, 1, 3, 7, 22, 82 and 333 free
    polyhexes (449 in all), and 1, 1, 2, 5, 12, 35 and 108 free polyominoes."""
    for lattice, counts in [("hex", [1, 1, 3, 7, 22, 82, 333]), ("square", [1, 1, 2, 5, 12, 35, 108])]:
        sizes = Counter(len(a) for a in _animals(lattice))
        assert [sizes[k] for k in range(1, 8)] == counts


@pytest.mark.parametrize(
    "name", ["nested_rings", "hexagon_with_pendant_path", "pyrene", "two_hexagons",
             "even_interior", "branched5", "triphenylene", "hexagon"]
)
def test_peel_matches_embedding_on_fixtures(name, request):
    _assert_peel_matches_embedding(request.getfixturevalue(name))


def test_peel_rejects_a_non_elementary_reduction(monkeypatch):
    """On the pericondensed six-ring system the first candidate's rest is
    not elementary; the peel, like the embedding peel, moves on to the
    next face."""
    g = build_benzenoid(PERI6)
    decided = []
    reduction = decomposition._reduction
    monkeypatch.setattr(
        decomposition, "_reduction",
        lambda *args: decided.append(reduction(*args)) or decided[-1],
    )
    rfd = auto_rfd(g)
    # face 0 has an odd ear, but its rest is not elementary; face 1 reduces
    assert decomposition._rest(g.faces[0], g.edges, g.periphery_edges)
    assert decided[0] is None and decided[1] is not None
    assert rfd.faces == (5, 3, 4, 0, 2, 1)
    assert [len(e) for e in rfd.subgraph_edges] == [6, 11, 16, 21, 24, 27]
    monkeypatch.undo()
    _assert_peel_matches_embedding(g)


def test_peel_drops_a_pendant_edge_on_the_ear():
    """Anthracene with a pendant edge at a degree-2 vertex of an end ring:
    the first peel removes that ring's ear and the pendant edge with it,
    and the peel goes on on the faces left, as the embedding peel does."""
    g = build_benzenoid([(0, 0), (1, 0), (2, 0)])
    v = max(g.vertices, key=lambda u: g.coords[u])
    x, y = g.coords[v]
    g = build_plane_graph(
        [(u, *g.coords[u]) for u in g.vertices] + [(99, x + 2, y)], [*g.edges, (v, 99)]
    )
    rfd = auto_rfd(g)
    assert rfd.n == 3 and rfd.subgraph_edges[-1] == g.edges
    assert all(99 not in {u for e in edges for u in e} for edges in rfd.subgraph_edges[:-1])
    _assert_peel_matches_embedding(g)


@functools.cache
def _peel_corpus():
    return tuple(build_benzenoid(a) for a in _animals("hex") if len(a) <= 5) + tuple(
        _polyomino(a) for a in _animals("square") if len(a) <= 6
    )


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_peel_matches_embedding_on_edge_subsets(pyrene, nested_rings, data):
    """Edge subgraphs: most edges kept, or the union of a few perfect
    matchings and random edges; they have cut vertices, pendant paths,
    faces merged into holes and several components."""
    if data.draw(st.booleans()):
        g = data.draw(st.sampled_from(_peel_corpus() + (pyrene, nested_rings)))
        drop = data.draw(st.sets(st.sampled_from(sorted(g.edges)), max_size=4))
        if not g.edges - drop:
            return
        g = plane_graph.edge_subgraph(g, g.edges - drop)
    else:
        g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    _assert_peel_matches_embedding(g)
    order = data.draw(st.permutations([f.id for f in g.finite_faces]))
    if order:
        assert _outcome(rfd_from_face_order, g, order) == _outcome(oracle.rfd_by_ears, g, order)


@pytest.mark.parametrize("shape", catacondensed_polyhexes(5), ids=str)
def test_subgraph_edges_are_the_prefixes(shape):
    """The edge sets an RFD carries are its prefixes, the unions of its
    first faces, and they take no part in equality."""
    g = build_benzenoid(shape)
    try:
        rfd = auto_rfd(g)
    except RescubeError:
        return  # not plane elementary: no decomposition to carry
    if rfd.n > 1:  # an even cycle's decomposition carries its own note
        assert rfd == rfd_from_face_order(g, rfd.faces)
    assert rfd.subgraph_edges[-1] == g.edges
    assert len(rfd.subgraph_edges) == rfd.n
    union = frozenset()
    for fid, edges in zip(rfd.faces, rfd.subgraph_edges):
        union |= g.faces[fid].edges
        assert edges == union
    pre = rfd.prefix(2)
    assert pre.subgraph_edges == rfd.subgraph_edges[:2]
    assert pre == replace(pre, subgraph_edges=())


@pytest.mark.parametrize("h", [2, 9])
def test_theorem_report_embeds_no_prefix(h, embedded):
    """The report and the step reports read every prefix off the graph's own
    faces: no subgraph is embedded, and the decomposition module has no
    embedding to call and carries no prefix graph."""
    assert not any(hasattr(decomposition, name) for name in ("edge_subgraph", "_Prefixes"))
    assert not hasattr(decomposition.RfdSequence, "graphs")
    g = zigzag(h)
    report = theorem_report(g)
    assert report["ok"] and len(report["steps"]) == h - 1
    assert all(step.ok for step in verify_reducible_split(g, resonance_of(g), auto_rfd(g)))
    assert embedded == []


def test_prefix(branched5, branched5_faces):
    rfd = rfd_from_face_order(branched5, branched5_faces)
    pre = rfd.prefix(3)
    assert pre.faces == rfd.faces[:3]
    assert pre.attachment == {2: 1, 3: 2}


# ---------------------------------------------------------------------------
# face splits
# ---------------------------------------------------------------------------


def test_split_sizes(branched5, branched5_faces):
    r = resonance_of(branched5)
    expected = {
        branched5_faces[0]: (8, 6),
        branched5_faces[1]: (12, 2),
        branched5_faces[2]: (10, 4),
        branched5_faces[3]: (9, 5),
        branched5_faces[4]: (8, 6),
    }
    for fid, sizes in expected.items():
        assert all(split_by_face(branched5, r, fid).values())
        assert split_sizes(r, fid) == sizes


def split_sizes(r, fid):
    """The sizes of the two sides of R(G) across a face's class, larger
    first, read from the Theta-class sides; checks that the class is a
    perfect matching between them whose ends take in the smaller side, as
    a peripheral side is."""
    side = r.theta_sides[fid]
    plus, minus = sorted((side, r.family.full ^ side), key=int.bit_count)
    class_edges = [(u, v) for u, v, f in r.edges if f == fid]
    ends = {v for e in class_edges for v in e}
    assert len(ends) == 2 * len(class_edges)
    assert {v for v in ends if plus >> v & 1} == set(bit_ids(plus))
    assert {v for v in ends if minus >> v & 1} == ends - set(bit_ids(plus))
    assert len(class_edges) == plus.bit_count() < minus.bit_count()
    return minus.bit_count(), plus.bit_count()


def test_split_matches_theta_class(branched5, branched5_faces):
    from cube_oracles import split_class
    from rescube.cube_kit import theta_classes

    r = resonance_of(branched5)
    metric = r.metric()
    classes = theta_classes(metric)
    for fid in branched5_faces:
        class_edges = {(u, v) for u, v, f in r.edges if f == fid}
        assert class_edges in [
            {tuple(sorted(e)) for e in cls} for cls in classes.classes
        ]
        split = split_class(metric, class_edges)
        assert split.peripheral


def test_split_naphthalene(naphthalene):
    r = resonance_of(naphthalene)
    for f in naphthalene.finite_faces:
        assert all(split_by_face(naphthalene, r, f.id).values())
        assert split_sizes(r, f.id) == (2, 1)


def test_split_rejects_a_face_that_is_not_finite(phenanthrene):
    r = resonance_of(phenanthrene)
    (infinite,) = phenanthrene.infinite_faces
    for fid in (infinite.id, 999):
        with pytest.raises(ValueError, match=f"face {fid} "):
            split_by_face(phenanthrene, r, fid)


# ---------------------------------------------------------------------------
# step verification
# ---------------------------------------------------------------------------


def test_steps_pass_and_sizes(branched5, branched5_faces):
    r = resonance_of(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    sizes = {}
    reports = verify_reducible_split(branched5, r, rfd)
    assert [report.step for report in reports] == [2, 3, 4, 5]
    for report in reports:
        assert report.ok, report.clauses
        sizes[report.step] = (
            report.details["minus_size"] + report.details["plus_size"],
            report.details["inner_size"],
        )
    # resonance graph sizes 3, 5, 8, 14 with 1, 2, 3, 6 copied vertices
    assert sizes == {2: (3, 1), 3: (5, 2), 4: (8, 3), 5: (14, 6)}


def test_step_two_is_path_growth(naphthalene):
    r = resonance_of(naphthalene)
    rfd = auto_rfd(naphthalene)
    (report,) = verify_reducible_split(naphthalene, r, rfd)
    assert report.step == 2 and report.ok
    assert report.details == {"minus_size": 2, "plus_size": 1, "inner_size": 1}


def test_steps_pass_alternative_order(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    rfd = rfd_from_face_order(branched5, (f4, f3, f2, f1, f5))
    r = resonance_of(branched5)
    reports = verify_reducible_split(branched5, r, rfd)
    assert len(reports) == 4 and all(report.ok for report in reports)


def test_step_requires_attachment(pyrene):
    rfd = auto_rfd(pyrene)
    r = resonance_of(pyrene)
    with pytest.raises(TheoremViolated) as err:
        verify_reducible_split(pyrene, r, rfd)
    assert err.value.clause == "attachment-unique"


def test_prefix_enumerations_bounded_by_the_graph(enumerations):
    # each matching of a prefix extends to its own matching of the graph, so
    # the graph's count bounds every prefix, past the default cap as well
    g = zigzag(6)
    r, rfd = resonance_of(g), auto_rfd(g)
    enumerations.clear()  # the graph's own enumeration
    verify_reducible_split(g, r, rfd)
    assert len(enumerations) == rfd.n - 1  # the last prefix is g itself
    assert all(cap == len(r) for _, cap in enumerations)


def test_single_face_has_no_steps(hexagon):
    assert verify_reducible_split(hexagon, resonance_of(hexagon), auto_rfd(hexagon)) == ()


def _step_records(g, rfd):
    """(i, prev, cur) for every step of the decomposition, on the prefix
    records the report hands from step to step."""
    r = resonance_of(g)
    records = [decomposition._prefix(g, r, rfd, k, len(r)) for k in range(1, rfd.n + 1)]
    return [(i, records[i - 2], records[i - 1]) for i in range(2, rfd.n + 1)]


def _clauses(g, rfd, i, prev, cur):
    """Step i's clauses, with every earlier step holding."""
    return decomposition._check_step(g, rfd, i, prev, cur, True).clauses


def test_step_clauses_equal_the_edge_set_oracle():
    """The packed-column maps decide every clause as the edge-set lookups
    do, on every peripherally 2-colorable shape of up to six rings and on
    zigzag chains of up to nine."""
    shapes = [build_benzenoid(cells) for cells in catacondensed_polyhexes(6)]
    shapes += [zigzag(h) for h in range(2, 10)]
    shapes = [
        g
        for g in shapes
        if not g.is_cycle_graph() and plane_graph.is_peripherally_two_colorable(g).ok
    ]
    assert len(shapes) == 20 + 8
    for g in shapes:
        rfd = auto_rfd(g)
        for i, prev, cur in _step_records(g, rfd):
            clauses = _clauses(g, rfd, i, prev, cur)
            assert clauses == oracle.step_clauses(g, rfd, i, prev, cur)
            assert all(clauses.values())


def test_forged_column_breaks_the_restriction(branched5, branched5_faces):
    # every matching of G_i flips one edge of G_(i-1): no avoid-side
    # matching restricts to a matching of G_(i-1) any more
    rfd = rfd_from_face_order(branched5, branched5_faces)
    for i, prev, cur in _step_records(branched5, rfd):
        family = cur.family
        e = min(prev.edges)
        columns = {**family.columns, e: family.columns.get(e, 0) ^ family.full}
        forged = replace(cur, family=MatchingFamily(columns, len(family)))
        clauses = _clauses(branched5, rfd, i, prev, forged)
        assert clauses == {"inner-path": True, "restriction-bijection": False}
        assert clauses == oracle.step_clauses(branched5, rfd, i, prev, forged)


def _without_first_edge(pair):
    """A face pair without its first edge, the one that joins its smallest
    proper and improper ids."""
    proper, improper = pair
    return proper & proper - 1, improper & improper - 1


def _drop_first_edge(r, fid):
    """R(G) without the face's first edge, and so its smallest edge."""
    forged = ResonanceGraph(r.family, {**r.pairs, fid: _without_first_edge(r.pairs[fid])})
    assert set(r.edges) - set(forged.edges) == {
        next(e for e in r.edges if e[2] == fid)
    }
    return forged


def _forge_pair(record, pos, pair):
    """The prefix record with its face pair at position pos + 1 replaced."""
    pairs = list(record.pairs)
    pairs[pos] = pair
    return replace(record, pairs=tuple(pairs))


def test_dropped_resonance_edge_breaks_the_expansion(branched5, branched5_faces):
    # R(G_i) loses one edge of the step's face class: the restriction still
    # holds, the expansion no longer reproduces R(G_i)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    for i, prev, cur in _step_records(branched5, rfd):
        forged = _forge_pair(cur, i - 1, _without_first_edge(cur.pairs[i - 1]))
        clauses = _clauses(branched5, rfd, i, prev, forged)
        assert [c for c, ok in clauses.items() if not ok] == ["expansion-equality"]
        assert clauses == oracle.step_clauses(branched5, rfd, i, prev, forged)


def _straddling_forgeries(i, cur):
    """R(G_i) forged at each earlier position so that one edge joins the
    avoid side to a matching that holds the ear's end edges, which no edge
    of the expansion does there.  Yields each forged record with whether
    the restriction to the avoid side still holds."""
    minus = sum(1 << m for m, label in cur.daisy.labels.items() if not label >> (i - 1) & 1)
    for pos in range(i - 1):
        proper, improper = cur.pairs[pos]
        free = cur.family.full & ~(proper | improper)
        ends, targets = bit_ids(improper & minus), bit_ids(free & ~minus)
        if ends and targets:  # move an improper end off the avoid side
            yield _forge_pair(cur, pos, (proper, improper ^ 1 << ends[0] ^ 1 << targets[0])), False
        # add an edge with as many smaller proper ids as smaller improper
        # ids, so that every other edge keeps its ends
        added = [
            (proper | 1 << u, improper | 1 << v)
            for u in bit_ids(free & minus)
            for v in targets
            if (proper & (1 << u) - 1).bit_count() == (improper & (1 << v) - 1).bit_count()
        ]
        if added:
            yield _forge_pair(cur, pos, added[0]), True


def test_straddling_resonance_edge_breaks_the_step(branched5, branched5_faces):
    rfd = rfd_from_face_order(branched5, branched5_faces)
    seen = Counter()
    for i, prev, cur in _step_records(branched5, rfd):
        for forged, restricted in _straddling_forgeries(i, cur):
            clauses = _clauses(branched5, rfd, i, prev, forged)
            assert clauses == oracle.step_clauses(branched5, rfd, i, prev, forged)
            failed = [c for c, ok in clauses.items() if not ok]
            assert failed == ["restriction-isomorphism"] * (not restricted) + [
                "expansion-equality"
            ]
            seen[restricted] += 1
    assert seen[True] >= 4 and seen[False] >= 4


def test_forged_twin_breaks_the_expansion(branched5, branched5_faces):
    # one matching that holds the ear's end edges (its new daisy bit is 1)
    # flips an edge off the face's cycle: the restriction still holds, but
    # that matching is no longer the twist of a lifted inner matching
    rfd = rfd_from_face_order(branched5, branched5_faces)
    for i, prev, cur in _step_records(branched5, rfd):
        family = cur.family
        mid = next(m for m, label in cur.daisy.labels.items() if label >> (i - 1) & 1)
        e = min(prev.edges - branched5.faces[rfd.faces[i - 1]].edges)
        columns = {**family.columns, e: family.columns.get(e, 0) ^ (1 << mid)}
        forged = replace(cur, family=MatchingFamily(columns, len(family)))
        clauses = _clauses(branched5, rfd, i, prev, forged)
        assert [c for c, ok in clauses.items() if not ok] == ["expansion-equality"]
        assert clauses == oracle.step_clauses(branched5, rfd, i, prev, forged)


def _forge_label(record, mid, p):
    """The prefix record with matching mid's daisy bit at position p + 1
    flipped, in its label and in that position's column."""
    labels = {**record.daisy.labels, mid: record.daisy.labels[mid] ^ 1 << p}
    columns = list(record.daisy.columns)
    columns[p] ^= 1 << mid
    daisy = replace(record.daisy, labels=labels, columns=tuple(columns))
    return replace(record, daisy=daisy)


def _forge_twin_label(record, i):
    """The prefix record with one twin's daisy label flipped at position 1:
    it keeps bit i, but is no longer its lift's label with bit i set."""
    mid = max(m for m, label in record.daisy.labels.items() if label >> (i - 1) & 1)
    return _forge_label(record, mid, 0)


def test_forged_twin_label_breaks_the_expansion(branched5, branched5_faces):
    # one matching that holds the ear's end edges keeps its new daisy bit
    # but differs elsewhere from its lift's label: the twins' labels no
    # longer extend the previous labels by bit i
    rfd = rfd_from_face_order(branched5, branched5_faces)
    for i, prev, cur in _step_records(branched5, rfd):
        forged = _forge_twin_label(cur, i)
        clauses = _clauses(branched5, rfd, i, prev, forged)
        assert [c for c, ok in clauses.items() if not ok] == ["expansion-equality"]
        assert clauses == oracle.step_clauses(branched5, rfd, i, prev, forged)


def _label_forgeries(branched5, rfd, i, prev, cur):
    """Step i's record of G_i forged at one daisy bit: a matching of the
    avoid side outside the lifted inner side, and one inside it, at each
    position, and a twin at position i.  Yields the position, the side and
    the forged record."""
    face = branched5.faces[rfd.faces[i - 1]]
    inner = handle_column(cur.family, oracle._assemble_path(face.edges & prev.edges))
    minus = cur.family.full & ~cur.daisy.columns[i - 1]
    for side, mids in (("outside", minus & ~inner), ("inner", inner)):
        for p in range(i):
            yield p, side, _forge_label(cur, bit_ids(mids)[0], p)
    yield i - 1, "twin", _forge_label(cur, bit_ids(cur.daisy.columns[i - 1])[0], i - 1)


def test_forged_kept_label_breaks_the_label_deletion(branched5, branched5_faces):
    # one daisy bit forged: deleting bit i from the avoid side no longer
    # gives the previous labels (at step 2, no longer splits G_1's two
    # matchings), or a twin lacks bit i, so label-deletion fails, and the
    # inner side's o-closure, read on the kept labels, is undecided; every
    # other clause is decided as the edge-set oracle decides it, convexity
    # on G_(i-1)'s own labels
    rfd = rfd_from_face_order(branched5, branched5_faces)
    seen = Counter()
    for i, prev, cur in _step_records(branched5, rfd):
        for p, side, forged in _label_forgeries(branched5, rfd, i, prev, cur):
            clauses = _clauses(branched5, rfd, i, prev, forged)
            expected = oracle.step_clauses(branched5, rfd, i, prev, forged)
            assert clauses["label-deletion"] is False is expected["label-deletion"]
            assert clauses["inner-le-subgraph"] is None
            assert clauses["expansion-flags"] is None
            undecided = ("inner-le-subgraph", "expansion-flags")
            assert {c: v for c, v in clauses.items() if c not in undecided} == {
                c: v for c, v in expected.items() if c not in undecided
            }
            if side == "outside" and p < i - 1 and p != rfd.attachment[i] - 1:
                # only the kept labels are off: the rest of the step holds
                assert [c for c, ok in clauses.items() if not ok] == ["label-deletion", *undecided]
            seen[side, p == i - 1] += 1
    assert seen == {
        ("outside", False): 10, ("outside", True): 4, ("inner", False): 10, ("inner", True): 4,
        ("twin", True): 4,
    }


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_report_stops_the_chain_at_a_forged_twin_label(branched5, branched5_faces, monkeypatch, k):
    """Prefix k's record forged with one wrong twin label: step k fails its
    expansion-equality, and nothing certifies the labels after it, so every
    later step's inner-convex and expansion-flags and the three clauses
    derived from the chain are None (undecided), and the report fails."""
    rfd = rfd_from_face_order(branched5, branched5_faces)
    prefix = decomposition._prefix

    def forged_prefix(*args):
        record = prefix(*args)
        return _forge_twin_label(record, k) if args[3] == k else record

    monkeypatch.setattr(decomposition, "_prefix", forged_prefix)
    report = theorem_report(branched5, rfd)
    steps = report["steps"]
    assert all(all(steps[str(i)].values()) for i in range(2, k))
    assert steps[str(k)]["inner-convex"] is True
    assert steps[str(k)]["expansion-equality"] is False
    for i in range(k + 1, rfd.n + 1):
        assert steps[str(i)]["inner-convex"] is None
        assert steps[str(i)]["expansion-flags"] is None
    assert report["metric"]["median"] is None
    assert report["labelling"]["daisy_proper"] is None
    assert report["labelling"]["fdl_isometric"] is None
    assert report["ok"] is False


def test_chain_clauses_equal_the_whole_graph_tools():
    """On every peripherally 2-colorable shape of up to seven rings and on
    zigzag chains of 2..12 rings, the clauses the step chain derives equal
    the whole-graph median test and label certificates on R(G)."""
    graphs = [build_benzenoid(cells) for cells in catacondensed_polyhexes(7)]
    graphs += [zigzag(h) for h in range(2, 13)]
    graphs = [
        g
        for g in graphs
        if not g.is_cycle_graph() and plane_graph.is_peripherally_two_colorable(g).ok
    ]
    assert len(graphs) == 43 + 11
    for g in graphs:
        r, rfd = resonance_of(g), auto_rfd(g)
        report = theorem_report(g, rfd, resonance=r)
        metric = r.metric()
        daisy = coding.daisy_labelling(g, r.family, rfd).labels
        fdl = coding.fdl_labelling(g, r.family, rfd).labels
        assert report["metric"]["median"] == ck.is_median(metric)
        assert report["labelling"]["daisy_proper"] == coding.labelling_is_proper(metric, daisy)
        assert report["labelling"]["fdl_isometric"] == ck.is_isometric_labelling(metric, fdl)


def test_report_rejects_lattice_labels_off_the_daisy_mask(branched5, monkeypatch):
    """Lattice labels of two matchings swapped: they are no longer the daisy
    labels XOR one mask, and fdl_isometric reads false, as the whole-graph
    certificate does, while every step still holds."""
    labellings = coding.labellings

    def swapped(*args):
        daisy, fdl = labellings(*args)
        # matchings 0 and 1 trade their lattice bits in every column
        columns = tuple(c & ~3 | (c & 1) << 1 | c >> 1 & 1 for c in fdl.columns)
        labels = {**fdl.labels, 0: fdl.labels[1], 1: fdl.labels[0]}
        return daisy, replace(fdl, labels=labels, columns=columns)

    monkeypatch.setattr(coding, "labellings", swapped)
    r = resonance_of(branched5)
    report = theorem_report(branched5, resonance=r)
    assert all(all(clauses.values()) for clauses in report["steps"].values())
    assert report["labelling"]["fdl_isometric"] is False
    forged = swapped(branched5, r.family, auto_rfd(branched5))[1].labels
    assert ck.is_isometric_labelling(r.metric(), forged) is False
    assert report["ok"] is False


@pytest.mark.parametrize("shape", ["branched5", "zigzag9"])
def test_passing_report_runs_no_whole_graph_certificate(request, monkeypatch, shape):
    """The step chain certifies R(G): a passing report runs no median test
    and no label certificate but the partial-cube embedding's own, and it
    builds one metric graph, R(G)'s, and none per prefix."""
    g = request.getfixturevalue(shape) if shape == "branched5" else zigzag(9)
    calls = Counter()

    def count(module, name):
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)

    for module, name in [
        (ck, "is_median"),
        (ck, "is_isometric_labelling"),
        (coding, "is_isometric_labelling"),
        (ck, "_isometric"),
    ]:
        count(module, name)
    count(ck.MetricGraph, "__init__")
    assert theorem_report(g)["ok"]
    assert calls == Counter({"__init__": 1, "_isometric": 1})


@pytest.mark.parametrize("shape", ["branched5", "zigzag9"])
def test_report_builds_no_edge_set(request, shape):
    """Every check of the report reads the family's columns: neither the
    family nor R(G) has a view that reads a matching's edges; that view is
    the tests' oracle (:func:`cube_oracles.matchings`)."""
    g = request.getfixturevalue(shape) if shape == "branched5" else zigzag(9)
    assert not any(
        hasattr(MatchingFamily, name) for name in ("matchings", "index", "by_edges")
    )
    assert not hasattr(ResonanceGraph, "vertex_key")
    assert theorem_report(g)["ok"]


@pytest.mark.parametrize("shape", ["branched5", "zigzag9"])
def test_report_lists_no_resonance_edges(request, monkeypatch, shape):
    """A passing report reads every R(G_k) as the face pairs of its record,
    and R(G) itself from its pairs of bitsets: no record holds a resonance
    graph, R(G) lists no edges, and only R(G) walks them, for its metric
    graph and the flip check."""
    g = request.getfixturevalue(shape) if shape == "branched5" else zigzag(9)
    r = resonance_of(g)
    records, prefix = [], decomposition._prefix
    walked, iter_edges = set(), ResonanceGraph.iter_edges

    def prefix_spy(*args):
        records.append(prefix(*args))
        return records[-1]

    def walk_spy(self):
        walked.add(id(self))
        return iter_edges(self)

    monkeypatch.setattr(decomposition, "_prefix", prefix_spy)
    monkeypatch.setattr(ResonanceGraph, "iter_edges", walk_spy)
    assert theorem_report(g, resonance=r)["ok"]
    rfd = auto_rfd(g)
    assert len(records) == rfd.n and records[-1].pairs == tuple(r.pairs[f] for f in rfd.faces)
    assert not any(isinstance(v, ResonanceGraph) for rec in records for v in vars(rec).values())
    assert "edges" not in vars(r) and walked == {id(r)}


# ---------------------------------------------------------------------------
# whole-graph report
# ---------------------------------------------------------------------------


def test_theorem_report_branched(branched5, branched5_faces):
    rfd = rfd_from_face_order(branched5, branched5_faces)
    report = theorem_report(branched5, rfd)
    assert report["ok"]
    assert report["metric"] == {
        "face_classes_are_theta_classes": True,
        "median": True,
        "connected": True,
    }
    assert report["labelling"]["codings_differ"] is True


def test_rotation_system_report_matches(branched5, branched5_faces):
    # subgraphs inherit the rotation system, so coordinates play no part
    darts = [f.darts[0] for f in branched5.infinite_faces]
    g = from_rotation_system(branched5.rotation, darts)
    assert g.coords is None
    assert theorem_report(g) == theorem_report(branched5)
    assert auto_rfd(g) == auto_rfd(branched5)
    rfd = rfd_from_face_order(g, branched5_faces)
    assert rfd == rfd_from_face_order(branched5, branched5_faces)
    assert theorem_report(g, rfd) == theorem_report(branched5, rfd)


@pytest.mark.parametrize("forged", ["odd cycle", "K2,12"])
def test_report_on_a_metric_that_is_not_a_partial_cube(branched5, monkeypatch, forged):
    """A resonance graph whose metric is forged to be no partial cube (an
    odd cycle with a pendant vertex, or the bipartite K2,12): the report
    returns, with no Theta classes for the faces to match.  Its median
    clause is the step chain's verdict on R(G)'s own edges, which the
    forgery leaves alone; the forged metric is no median graph."""
    r = resonance_of(branched5)
    n = len(r)
    if forged == "odd cycle":
        edges = [(k, (k + 1) % (n - 1)) for k in range(n - 1)] + [(0, n - 1)]
    else:
        edges = [(hub, k) for hub in (0, 1) for k in range(2, n)]
    metric = ck.MetricGraph(r.vertices, edges)
    with pytest.raises(NotAPartialCube):
        ck.theta_classes(metric)
    assert ck.is_median(metric) is False
    monkeypatch.setattr(r, "metric", lambda: metric)
    report = theorem_report(branched5, resonance=r)
    assert report["metric"] == {
        "face_classes_are_theta_classes": False,
        "median": True,
        "connected": True,
    }
    assert report["labelling"]["daisy_accepted_by_search"] is False
    # no certified embedding: every face's split stays undecided
    assert all(c["two-components"] is None for c in report["faces"].values())
    assert report["ok"] is False


@pytest.mark.parametrize("face", range(5))
def test_report_on_a_resonance_graph_missing_a_class_edge(branched5, face, monkeypatch):
    """R(G) forged to lose one edge of a face's class: every split clause
    the report decides equals the flood oracle's, and the report fails.
    The report reads the lattice extremes off the forged pairs, which leave
    two matchings with no improper resonant face, so it raises NotFound;
    given G's own extremes, the report fails as the checks below pin."""
    r = resonance_of(branched5)
    fid = branched5.finite_faces[face].id
    forged = _drop_first_edge(r, fid)
    for other in branched5.finite_faces:
        assert_split_matches_flood(branched5, forged, other.id)
    with pytest.raises(NotFound, match="2 matchings have no improper resonant face"):
        theorem_report(branched5, resonance=forged)
    extremes = extremal_matchings(r)
    monkeypatch.setattr(decomposition, "extremal_matchings", lambda _: extremes)
    report = theorem_report(branched5, resonance=forged)
    # the face is undecided (None) or fails a clause
    assert not all(report["faces"][str(fid)].values())
    # the last step, on R(G), fails, so nothing derived from the chain holds
    assert not all(report["steps"]["5"].values())
    assert report["metric"]["median"] is None
    assert report["labelling"]["daisy_proper"] is None
    assert report["labelling"]["fdl_isometric"] is None
    assert report["ok"] is False


@pytest.mark.parametrize("shape", ["branched5", "zigzag9"])
def test_report_floods_the_resonance_graph_once(request, monkeypatch, shape):
    """The face splits read R(G)'s Theta-class sides: the only flood over
    R(G)'s vertices is the metric graph's own, not one per face."""
    g = request.getfixturevalue(shape) if shape == "branched5" else zigzag(9)
    r = resonance_of(g)
    floods = []
    flood = ck.flood

    def spy(vertices, neighbors):
        vertices = tuple(vertices)
        floods.append(vertices)
        return flood(vertices, neighbors)

    monkeypatch.setattr(ck, "flood", spy)
    assert theorem_report(g, resonance=r)["ok"]
    assert floods.count(r.vertices) <= 1


def test_theorem_report_rejects_non_p2c(pyrene):
    report = theorem_report(pyrene)
    assert not report["ok"]
    assert report["failed_clause"] == "branch-on-periphery"


def test_theorem_report_even_cycle(hexagon):
    report = theorem_report(hexagon)
    assert report["ok"] and report.get("even_cycle")


def test_longer_kinked_chains_soak():
    """Fibonacci-count chains beyond the acceptance corpus stay green."""
    from rescube.benzenoid import build_benzenoid
    from rescube.matchings import enumerate_matchings

    # kinks alternate left/right: a six-ring and a seven-ring fibonacene
    six = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)]
    seven = six + [(3, 3)]
    for cells, count in ((six, 21), (seven, 34)):
        g = build_benzenoid(cells)
        assert len(enumerate_matchings(g)) == count
        report = theorem_report(g)
        assert report["ok"], report


def test_idim_equals_finite_face_count():
    from rescube.benzenoid import (
    AXIAL_NEIGHBORS,
    build_benzenoid,
    canonical_polyhex,
    catacondensed_polyhexes,
)
    from rescube.cube_kit import is_partial_cube, theta_classes
    from rescube.plane_graph import is_peripherally_two_colorable

    for shape in catacondensed_polyhexes(5):
        g = build_benzenoid(shape)
        if not is_peripherally_two_colorable(g).ok:
            continue
        metric = resonance_of(g).metric()
        verdict = is_partial_cube(metric)
        assert verdict.ok
        assert verdict.idim == len(g.finite_faces)
        assert len(theta_classes(metric).classes) == verdict.idim


def test_theta_graph_non_benzenoid():
    """An octagonal ring with a chord path: peripherally 2-colorable without
    being a polyhex, lattice coding a chain, daisy coding downward closed."""
    from rescube.plane_graph import build_plane_graph, is_peripherally_two_colorable
    from rescube.matchings import enumerate_matchings
    from rescube import coding

    vertices = [(0, 0, 0), (1, 2, -1), (2, 4, 0), (3, 4, 2), (4, 2, 3),
                (5, 0, 2), (6, 1, 1), (7, 3, 1)]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0),
             (0, 6), (6, 7), (7, 3)]
    g = build_plane_graph(vertices, edges)
    assert is_peripherally_two_colorable(g).ok
    assert theorem_report(g)["ok"]
    family = enumerate_matchings(g)
    rfd = auto_rfd(g)
    daisy = coding.daisy_labelling(g, family, rfd).labels
    fdl = coding.fdl_labelling(g, family, rfd).labels
    assert sorted(oracle.text(lab, 2) for lab in daisy.values()) == ["00", "01", "10"]
    assert sorted(oracle.text(lab, 2) for lab in fdl.values()) == ["00", "10", "11"]


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_report_steps_equal_standalone_steps(shape, monkeypatch):
    """The report carries each prefix's record to the next step; that
    changes no clause, and no prefix is enumerated twice."""
    g = build_benzenoid(shape)
    if g.is_cycle_graph() or not plane_graph.is_peripherally_two_colorable(g).ok:
        return
    rfd = auto_rfd(g)
    enumerated = Counter()
    enumerate_columns = plane_graph.enumerate_matching_columns

    def spy(vertices, neighbours, cap=plane_graph.DEFAULT_MATCHING_CAP):
        enumerated[edge_set(vertices, neighbours)] += 1
        return enumerate_columns(vertices, neighbours, cap)

    monkeypatch.setattr(plane_graph, "enumerate_matching_columns", spy)
    report = theorem_report(g, rfd)
    monkeypatch.undo()
    # the whole graph once, for the report's family, which the last step
    # reuses; the verdict and the decomposition enumerate nothing
    assert enumerated.pop(g.edges) == 1
    assert set(enumerated) == set(rfd.subgraph_edges[:-1])
    assert all(count == 1 for count in enumerated.values())

    r = resonance_of(g)
    standalone = {
        str(step.step): step.clauses for step in verify_reducible_split(g, r, rfd)
    }
    assert report["steps"] == standalone


def test_step_reports_come_from_one_chain_pass(monkeypatch):
    """Every step report comes from one pass along the prefixes, so a
    caller that reads them all enumerates no more prefixes than a report."""
    g = zigzag(12)
    rfd = auto_rfd(g)
    r = resonance_of(g)
    calls = []
    enumerate_columns = plane_graph.enumerate_matching_columns

    def spy(vertices, neighbours, cap=plane_graph.DEFAULT_MATCHING_CAP):
        calls.append(edge_set(vertices, neighbours))
        return enumerate_columns(vertices, neighbours, cap)

    monkeypatch.setattr(plane_graph, "enumerate_matching_columns", spy)
    steps = verify_reducible_split(g, r, rfd)
    by_steps = len(calls)
    theorem_report(g, rfd, resonance=r)
    assert [step.step for step in steps] == list(range(2, 13))
    assert by_steps == len(calls) - by_steps == 11  # prefixes 1..11; G_12 is g


def test_report_reads_the_graph_columns_once(monkeypatch):
    """The graph's daisy and lattice columns come from one pass over its
    faces' exterior handles, shared with the last step's record: with the
    proper prefixes 2..n - 1 (G_1 is a cycle, with no handles), a report
    makes n - 1 passes."""
    g = zigzag(9)
    calls = []
    handle_columns = coding._handle_columns
    monkeypatch.setattr(
        coding, "_handle_columns", lambda *a: calls.append(a[1]) or handle_columns(*a)
    )
    r = resonance_of(g)
    assert theorem_report(g, resonance=r)["ok"]
    assert len(calls) == 8 and calls.count(r.family) == 1


@pytest.fixture
def handle_splits(monkeypatch):
    """The degree map and periphery of every call of the handle splitter."""
    splits, runs = [], plane_graph._handle_runs

    def spy(face, degree, periphery):
        splits.append((degree, periphery))
        return runs(face, degree, periphery)

    monkeypatch.setattr(plane_graph, "_handle_runs", spy)
    return splits


def _assert_prefixes_match_embedding(g, rfd, splits):
    """Every prefix record read off ``g``'s own faces equals the embedded
    prefix's (:func:`cube_oracles.embedded_prefix`): the same edges and
    family columns, the same face pairs up to orientation, face ids mapped
    through ``face_by_edge_set``, the same daisy columns, and its handles
    split by the embedded prefix's degrees and periphery (``splits``, the
    :func:`handle_splits` record); or both raise the same error."""
    r = resonance_of(g)
    for k in range(1, rfd.n + 1):
        try:
            sub, faces, family, res, daisy = oracle.embedded_prefix(g, rfd, k)
        except RescubeError as err:
            with pytest.raises(type(err)):
                decomposition._prefix(g, r, rfd, k, len(r))
            continue
        splits.clear()
        record = decomposition._prefix(g, r, rfd, k, len(r))
        assert record.edges == sub.edges
        assert (len(record.family), record.family.columns) == (len(family), family.columns)
        assert [sorted(pair) for pair in record.pairs] == [sorted(res.pairs[f]) for f in faces]
        assert record.daisy.columns == daisy.columns
        if 1 < k < rfd.n:  # G_1 is a cycle; G_n's handles are the graph's own
            assert len(splits) == k
        for degree, periphery in splits:
            assert periphery == sub.periphery_edges
            assert all(degree(v) == sub.degree(v) for v in sub.vertices)


@pytest.mark.parametrize("corpus", ["hex7", "zigzag", "square7"])
def test_prefixes_match_the_embedded_prefixes(corpus, handle_splits):
    """The peripherally 2-colorable shapes of up to seven hexagons or
    squares, and zigzag chains of 2..14 rings, on their own decompositions."""
    if corpus == "zigzag":
        graphs = [zigzag(h) for h in range(2, 15)]
    elif corpus == "hex7":
        graphs = [build_benzenoid(cells) for cells in catacondensed_polyhexes(7)]
    else:
        graphs = [_polyomino(cells) for cells in _animals("square")]
    graphs = [g for g in graphs if plane_graph.is_peripherally_two_colorable(g).ok]
    assert len(graphs) == {"hex7": 44, "zigzag": 13, "square7": 7}[corpus]
    for g in graphs:
        _assert_prefixes_match_embedding(g, auto_rfd(g), handle_splits)


@pytest.mark.parametrize("name, build", STEP_RULE_CORPUS, ids=[n for n, _ in STEP_RULE_CORPUS])
def test_prefixes_match_the_embedded_prefixes_on_every_face_order(name, build, handle_splits):
    """Every face order of the every-face-order corpus that the forward
    check accepts."""
    g = build()
    for order in permutations(f.id for f in g.finite_faces):
        try:
            rfd = rfd_from_face_order(g, order)
        except NotReducibleAtStep:
            continue
        _assert_prefixes_match_embedding(g, rfd, handle_splits)


@pytest.fixture
def bfs_rows(monkeypatch):
    """The breadth-first distance rows computed while the test runs, as
    (graph size, source index) pairs."""
    rows = []
    distances = ck._distances

    def counting(neighbours, source):
        rows.append((len(neighbours), source))
        return distances(neighbours, source)

    monkeypatch.setattr(ck, "_distances", counting)
    return rows


@pytest.mark.parametrize(
    "name, n, idim", [("branched5", 14, 5), ("zigzag9", 89, 9)], ids=["branched5", "zigzag9"]
)
def test_report_runs_two_bfs_rows_per_theta_class(name, n, idim, request, bfs_rows):
    """Every step reads distance from certified labels; the whole graph's
    Theta classes take one BFS pair each, not one row per vertex."""
    g = request.getfixturevalue(name) if name == "branched5" else zigzag(9)
    report = theorem_report(g)
    assert report["ok"]
    assert len(report["steps"]) == len(g.finite_faces) - 1
    assert len(bfs_rows) == 2 * idim < n
    assert {size for size, _ in bfs_rows} == {n}


def test_label_checks_build_no_distance_table(branched5, branched5_faces, bfs_rows):
    from rescube.coding import daisy_labelling, fdl_labelling, labelling_is_proper
    from rescube.cube_kit import is_isometric_labelling

    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    metric = build_resonance(branched5, family).metric()
    daisy = daisy_labelling(branched5, family, rfd).labels
    fdl = fdl_labelling(branched5, family, rfd).labels
    assert labelling_is_proper(metric, daisy)
    assert is_isometric_labelling(metric, fdl)
    assert not is_isometric_labelling(metric, {**daisy, 0: daisy[1], 1: daisy[0]})
    assert bfs_rows == []


# ---------------------------------------------------------------------------
# per-face handle conditions against the set-based oracle
# ---------------------------------------------------------------------------


def outcome(fn):
    """What ``fn()`` returns, or the type of the error it raises."""
    try:
        return fn()
    except (RescubeError, ValueError) as exc:
        return type(exc)


def assert_split_matches_flood(g, r, fid):
    """The split's clauses equal the flood oracle's wherever the split
    decides them; an undecided ``two-components`` ends the clauses."""
    clauses = outcome(lambda: split_by_face(g, r, fid))
    flooded = outcome(lambda: oracle.face_split_by_flood(g, r, fid))
    if isinstance(clauses, dict) and None in clauses.values():
        assert clauses == {"class-nonempty": True, "two-components": None}
        assert not isinstance(flooded, dict) or flooded["class-nonempty"]
    else:
        assert clauses == flooded
    return clauses


def sides(g, r, fid):
    """The split's two sides as bitsets: every exterior handle avoiding its
    end edges, and every one containing them with the face resonant."""
    exterior = plane_graph.facial_handle_decomposition(g, fid).exterior
    proper, improper = r.pairs[fid]
    return (
        _in_state(r.family, exterior, contain=False),
        _in_state(r.family, exterior, contain=True) & (proper | improper),
    )


def assert_face_conditions_match_oracle(g):
    """The handle-set equalities, the split sides and the split clauses of
    every face equal the oracle's set equalities, subsets and flood split:
    the same bool or sets, or the same error.  On peripherally 2-colorable
    inputs that are not even cycles every split clause is decided."""
    family = enumerate_matchings(g)
    r = build_resonance(g, family)
    decided = (
        not g.is_cycle_graph() and plane_graph.is_peripherally_two_colorable(g).ok
    )
    for face in g.finite_faces:
        fid = face.id
        assert outcome(lambda: _subset_equalities_hold(g, r, fid)) == outcome(
            lambda: oracle.subset_equalities_hold(g, family, fid)
        )
        assert outcome(lambda: sides(g, r, fid)) == outcome(
            lambda: tuple(
                sum(1 << mid for mid in oracle.matching_subset(g, family, fid, selector))
                for selector in ("all-exterior-avoid", "all-exterior-contain-resonant")
            )
        )
        clauses = assert_split_matches_flood(g, r, fid)
        if decided:
            assert None not in clauses.values()


def test_face_conditions_match_oracle_on_corpus():
    for shape in catacondensed_polyhexes(7):
        assert_face_conditions_match_oracle(build_benzenoid(shape))


def test_face_conditions_match_oracle_on_fixtures(
    branched5, pyrene, triphenylene, anthracene, nested_rings,
    hexagon_plus_naphthalene, branched5_plus_hexagon, hexagon_with_pendant_path,
    even_interior,
):
    # the middle hexagon's exterior handles are single edges in one state,
    # so only the interior pass meets the even handles and raises
    middle = even_interior.face_by_edge_set[frozenset(
        plane_graph.edge_key(i, (i + 1) % 6) for i in range(6)
    )]
    r = resonance_of(even_interior)
    assert sides(even_interior, r, middle) == (r.family.full, 0)
    with pytest.raises(ValueError):
        _subset_equalities_hold(even_interior, r, middle)
    for g in (branched5, pyrene, triphenylene, anthracene, nested_rings,
              hexagon_plus_naphthalene, branched5_plus_hexagon,
              hexagon_with_pendant_path, even_interior):
        assert_face_conditions_match_oracle(g)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_face_conditions_match_oracle_on_edge_subsets(pyrene, nested_rings, data):
    g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assume(elementary_analysis(g).is_weakly_elementary)
    assert_face_conditions_match_oracle(g)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_in_state_matches_per_matching_read(pyrene, anthracene, even_interior, data):
    """The column read of "every handle in one state" equals the per-matching
    read that stops at each matching's first handle in the other state: an
    even handle raises only when some matching reaches it."""
    g = data.draw(st.sampled_from((pyrene, anthracene, even_interior)))
    family = enumerate_matchings(g)
    pool = sorted(plane_graph.handles(g), key=lambda h: h.path)
    seq = data.draw(st.lists(st.sampled_from(pool), max_size=5))
    contain = data.draw(st.booleans())
    state = CONTAINS_END_EDGES if contain else AVOIDS_END_EDGES
    assert outcome(lambda: _in_state(family, seq, contain)) == outcome(
        lambda: oracle.bitset(
            family, lambda m: all(end_edge_state(m, h.path) == state for h in seq)
        )
    )


def test_report_reads_each_face_once(monkeypatch):
    """R(G) holds each face's pairs, so a report reads the graph's face
    pairs only in build_resonance, once per face, and none when it is given
    R(G); the proper prefixes read theirs on their own families, once per
    prefix that holds the face."""
    real, calls = decomposition.resonance_columns, []

    def spy_in(module):
        def spy(graph, family, face_id):
            calls.append((module, family, face_id))
            return real(graph, family, face_id)
        return spy

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "rescube" and getattr(module, "resonance_columns", None) is real:
            monkeypatch.setattr(module, "resonance_columns", spy_in(name))
    for g in (build_benzenoid(BRANCHED_CELLS), zigzag(9)):
        calls.clear()
        assert theorem_report(g)["ok"]
        built = [(family, fid) for module, family, fid in calls if module == "rescube.resonance"]
        assert sorted(fid for _, fid in built) == sorted(f.id for f in g.finite_faces)
        family = built[0][0]  # G's, which build_resonance reads
        assert all(f is family for f, _ in built)
        assert not any(f is family for module, f, _ in calls if module != "rescube.resonance")

        r, rfd = build_resonance(g, enumerate_matchings(g)), auto_rfd(g)
        calls.clear()
        assert theorem_report(g, rfd, resonance=r)["ok"]
        assert not any(family is r.family for _, family, _ in calls)
        assert Counter(fid for _, _, fid in calls) == Counter(
            {f: rfd.n - p for p, f in enumerate(rfd.faces, start=1)}
        )