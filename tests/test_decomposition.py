"""Reducible faces, decompositions, and the split/expansion instance checks."""

import functools
from collections import Counter

import pytest

from rescube import plane_graph
from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.cube_kit import MetricGraph
from rescube.errors import (
    NotReducibleAtStep,
    PeelingStuck,
    TheoremViolated,
)
from rescube.decomposition import (
    auto_rfd,
    find_reducible_faces,
    rfd_from_face_order,
    split_by_face,
    theorem_report,
    verify_reducible_split,
)
from rescube.matchings import enumerate_matchings
from rescube.plane_graph import from_rotation_system
from rescube.resonance import build_resonance

from conftest import zigzag


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
    for fid, (minus, plus) in expected.items():
        split, clauses = split_by_face(branched5, r, fid)
        assert all(clauses.values())
        assert (len(split.minus_side), len(split.plus_side)) == (minus, plus)
        assert len(split.class_edges) == plus
        assert len(split.u_minus) == len(split.u_plus) == plus
        assert split.u_plus == split.plus_side  # the plus side is peripheral
        assert len(split.minus_side) > len(split.plus_side)


def test_split_matches_theta_class(branched5, branched5_faces):
    from cube_oracles import split_class
    from rescube.cube_kit import theta_classes

    r = resonance_of(branched5)
    metric = r.metric()
    classes = theta_classes(metric)
    for fid in branched5_faces:
        class_edges = {tuple(sorted(e[:2])) for e in r.edges_with_label(fid)}
        assert class_edges in [
            {tuple(sorted(e)) for e in cls} for cls in classes.classes
        ]
        split = split_class(metric, class_edges)
        assert split.peripheral


def test_split_naphthalene(naphthalene):
    r = resonance_of(naphthalene)
    for f in naphthalene.finite_faces:
        split, clauses = split_by_face(naphthalene, r, f.id)
        assert all(clauses.values())
        assert (len(split.minus_side), len(split.plus_side)) == (2, 1)


# ---------------------------------------------------------------------------
# step verification
# ---------------------------------------------------------------------------


def test_steps_pass_and_sizes(branched5, branched5_faces):
    r = resonance_of(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    sizes = {}
    for i in range(2, 6):
        report = verify_reducible_split(branched5, r, rfd, i, strict=False)
        assert report.ok, report.clauses
        sizes[i] = (
            report.details["minus_size"] + report.details["plus_size"],
            report.details["inner_size"],
        )
    # resonance graph sizes 3, 5, 8, 14 with 1, 2, 3, 6 copied vertices
    assert sizes == {2: (3, 1), 3: (5, 2), 4: (8, 3), 5: (14, 6)}


def test_step_two_is_path_growth(naphthalene):
    r = resonance_of(naphthalene)
    rfd = auto_rfd(naphthalene)
    report = verify_reducible_split(naphthalene, r, rfd, 2, strict=False)
    assert report.ok
    assert report.details == {"minus_size": 2, "plus_size": 1, "inner_size": 1}


def test_steps_pass_alternative_order(branched5, branched5_faces):
    f1, f2, f3, f4, f5 = branched5_faces
    rfd = rfd_from_face_order(branched5, (f4, f3, f2, f1, f5))
    r = resonance_of(branched5)
    for i in range(2, 6):
        assert verify_reducible_split(branched5, r, rfd, i, strict=False).ok


def test_step_requires_attachment(pyrene):
    rfd = auto_rfd(pyrene)
    r = resonance_of(pyrene)
    with pytest.raises(TheoremViolated) as err:
        verify_reducible_split(pyrene, r, rfd, 2)
    assert err.value.clause == "attachment-unique"


def test_step_bounds(branched5, branched5_faces):
    r = resonance_of(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    with pytest.raises(ValueError):
        verify_reducible_split(branched5, r, rfd, 1)
    with pytest.raises(ValueError):
        verify_reducible_split(branched5, r, rfd, 6)


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
    from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
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
    assert sorted(coding.daisy_labelling(g, family, rfd).labels.values()) == [
        "00", "01", "10"
    ]
    assert sorted(coding.fdl_labelling(g, family, rfd).labels.values()) == [
        "00", "10", "11"
    ]


@pytest.mark.parametrize("shape", catacondensed_polyhexes(6), ids=str)
def test_report_steps_equal_standalone_steps(shape, monkeypatch):
    """The report carries each prefix's record to the next step; that
    changes no clause, and no prefix is enumerated twice."""
    g = build_benzenoid(shape)
    if g.is_cycle_graph() or not plane_graph.is_peripherally_two_colorable(g).ok:
        return
    rfd = auto_rfd(g)
    enumerated = Counter()
    enumerate_edge_sets = plane_graph.enumerate_matching_edge_sets

    def spy(graph, cap=plane_graph.DEFAULT_MATCHING_CAP):
        enumerated[graph.edges] += 1
        return enumerate_edge_sets(graph, cap)

    monkeypatch.setattr(plane_graph, "enumerate_matching_edge_sets", spy)
    report = theorem_report(g, rfd)
    monkeypatch.undo()
    # the whole graph: at most once for the verdict and once for the
    # report's family, which the last step reuses
    assert enumerated.pop(g.edges) <= 2
    assert set(enumerated) == set(rfd.subgraph_edges[:-1])
    assert all(count == 1 for count in enumerated.values())

    r = resonance_of(g)
    standalone = {
        str(i): verify_reducible_split(g, r, rfd, i, strict=False).clauses
        for i in range(2, rfd.n + 1)
    }
    assert report["steps"] == standalone


@pytest.fixture
def dist_tables(monkeypatch):
    """Counts the all-pairs distance tables built while the test runs."""
    built = []
    table = MetricGraph.__dict__["dist"]

    def counting(mg):
        built.append(mg)
        return table.func(mg)

    spy = functools.cached_property(counting)
    spy.__set_name__(MetricGraph, "dist")
    monkeypatch.setattr(MetricGraph, "dist", spy)
    return built


@pytest.mark.parametrize("name", ["branched5", "zigzag9"])
def test_report_builds_at_most_one_distance_table(name, request, dist_tables):
    """Every step reads distance from certified labels; only the whole
    graph's Theta classes need a table."""
    g = request.getfixturevalue(name) if name == "branched5" else zigzag(9)
    report = theorem_report(g)
    assert report["ok"]
    assert len(report["steps"]) == len(g.finite_faces) - 1
    assert len(dist_tables) <= 1


def test_label_checks_build_no_distance_table(branched5, branched5_faces, dist_tables):
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
    assert dist_tables == []
