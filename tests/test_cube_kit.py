"""Metric recognizers: Theta, partial cubes, median graphs, daisy cubes,
the label certificate and label convexity."""

import pytest
from hypothesis import given, strategies as st

from rescube.cube_kit import (
    MetricGraph,
    is_daisy_cube,
    is_downward_closed,
    is_isometric_labelling,
    is_median,
    is_partial_cube,
    operator_o,
    theta_classes,
)

import cube_oracles as oracle
from cube_oracles import check_median_split, label_leq, split_class, theta_related


def path(n):
    return MetricGraph(range(n), [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return MetricGraph(range(n), [(i, (i + 1) % n) for i in range(n)])


def hypercube(n):
    verts = [format(i, f"0{n}b") for i in range(2**n)]
    edges = [
        (u, v)
        for i, u in enumerate(verts)
        for v in verts[i + 1 :]
        if sum(a != b for a, b in zip(u, v)) == 1
    ]
    return MetricGraph(verts, edges)


def star(n):
    return MetricGraph(range(n + 1), [(0, i) for i in range(1, n + 1)])


K23 = MetricGraph(range(5), [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])


# ---------------------------------------------------------------------------
# Theta
# ---------------------------------------------------------------------------


def test_theta_on_small_cycles():
    c4, c6 = cycle(4), cycle(6)
    assert theta_related(c4, (0, 1), (2, 3))
    assert not theta_related(c4, (0, 1), (1, 2))
    assert theta_related(c6, (0, 1), (3, 4))
    assert not theta_related(c6, (0, 1), (1, 2))
    assert not theta_related(c6, (0, 1), (2, 3))


def test_theta_orientation_free():
    c6 = cycle(6)
    for e1 in c6.edges:
        for e2 in c6.edges:
            assert theta_related(c6, e1, e2) == theta_related(
                c6, tuple(reversed(e1)), e2
            )
            assert theta_related(c6, e1, e2) == theta_related(c6, e2, e1)


def test_theta_reflexive():
    c6 = cycle(6)
    assert all(theta_related(c6, e, e) for e in c6.edges)


def test_theta_classes_q3():
    tc = theta_classes(hypercube(3))
    assert sorted(len(c) for c in tc.classes) == [4, 4, 4]
    assert tc.raw_transitive


def test_theta_not_transitive_on_k23():
    tc = theta_classes(K23)
    assert not tc.raw_transitive
    assert not is_partial_cube(K23).ok


# ---------------------------------------------------------------------------
# partial cubes / median
# ---------------------------------------------------------------------------


def test_partial_cube_verdicts():
    assert is_partial_cube(path(3)).idim == 2
    assert is_partial_cube(cycle(6)).idim == 3
    assert not is_partial_cube(cycle(5)).ok  # odd cycle
    q3 = is_partial_cube(hypercube(3))
    assert q3.ok and q3.idim == 3
    assert is_isometric_labelling(hypercube(3), q3.labelling)


def test_partial_cube_root_all_zeros():
    verdict = is_partial_cube(path(4))
    root = min(verdict.labelling, key=lambda v: verdict.labelling[v].count("1"))
    assert verdict.labelling[root] == "0" * verdict.idim


def test_median_verdicts():
    assert is_median(star(5))  # trees are median
    assert is_median(path(4))
    assert not is_median(cycle(6))
    assert is_median(hypercube(3))
    assert not is_median(K23)


# ---------------------------------------------------------------------------
# daisy cubes
# ---------------------------------------------------------------------------


def test_daisy_p3_labels():
    verdict = is_daisy_cube(path(3))
    assert verdict.ok
    assert sorted(verdict.labelling.values()) == ["00", "01", "10"]


def test_daisy_p4_rejected():
    assert not is_daisy_cube(path(4)).ok
    assert is_daisy_cube(path(4)) == oracle.is_daisy_cube(path(4), "roots")
    assert not oracle.is_daisy_cube(path(4), "exhaustive").ok


def test_daisy_c4_and_c6():
    assert is_daisy_cube(cycle(4)).ok
    assert not is_daisy_cube(cycle(6)).ok
    assert not oracle.is_daisy_cube(cycle(6), "exhaustive").ok


def test_daisy_methods_agree_on_q3():
    a = is_daisy_cube(hypercube(3))
    b = oracle.is_daisy_cube(hypercube(3), "exhaustive")
    assert a.ok and b.ok
    assert is_downward_closed(a.labelling.values())
    assert is_downward_closed(b.labelling.values())


def test_daisy_labelling_is_proper():
    verdict = is_daisy_cube(path(3))
    assert is_isometric_labelling(path(3), verdict.labelling)
    assert is_downward_closed(verdict.labelling.values())


# ---------------------------------------------------------------------------
# operator o
# ---------------------------------------------------------------------------


def test_operator_o_examples():
    labels = {0: "00", 1: "10", 2: "01", 3: "11"}
    assert operator_o(labels, [3]) == frozenset({0, 1, 2, 3})
    assert operator_o(labels, []) == frozenset()
    assert operator_o(labels, [1]) == frozenset({0, 1})


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
    mapping = dict(enumerate(labels))
    subset = draw(st.lists(st.sampled_from(sorted(mapping)), unique=True))
    return mapping, frozenset(subset)


@given(labelled_sets())
def test_operator_o_is_a_closure(data):
    labels, subset = data
    closed = operator_o(labels, subset)
    assert subset <= closed  # extensive
    assert operator_o(labels, closed) == closed  # idempotent
    bigger = closed | subset
    assert operator_o(labels, subset) <= operator_o(labels, bigger)  # monotone


@given(st.lists(st.text(alphabet="01", min_size=3, max_size=3), unique=True))
def test_downward_closure_detector(labels):
    full = {format(i, "03b") for i in range(8)}
    closure = {u for u in full if any(label_leq(u, v) for v in labels)}
    assert is_downward_closed(closure)
    if set(labels) != closure:
        assert not is_downward_closed(labels) or not labels


# ---------------------------------------------------------------------------
# class splits
# ---------------------------------------------------------------------------


def test_split_class_q2():
    q2 = cycle(4)
    split = split_class(q2, theta_classes(q2).classes[0])
    assert split.x_peripheral and split.y_peripheral
    assert len(split.w_x) == len(split.w_y) == 2


def test_split_class_p3():
    p3 = path(3)
    split = split_class(p3, theta_classes(p3).classes[0])
    assert split.peripheral
    assert {len(split.w_x), len(split.w_y)} == {1, 2}
    leaf_side = split.w_x if len(split.w_x) == 1 else split.w_y
    assert leaf_side in (split.u_x, split.u_y)


# ---------------------------------------------------------------------------
# median split checks
# ---------------------------------------------------------------------------


def test_median_split_q3():
    q3 = hypercube(3)
    for cls in theta_classes(q3).classes:
        assert check_median_split(q3, cls).ok


def test_median_split_c6_fails_convexity():
    c6 = cycle(6)
    report = check_median_split(c6, theta_classes(c6).classes[0])
    assert report.matching_isomorphism
    assert not report.sides_convex
    assert not report.ok


def test_daisy_orientation_structure_on_resonance_graphs():
    """In a proper daisy labelling every class is peripheral, the larger side
    carries 0, and a strictly smaller side equals its boundary set."""
    from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
    from rescube.matchings import enumerate_matchings
    from rescube.plane_graph import is_peripherally_two_colorable
    from rescube.resonance import build_resonance

    for shape in catacondensed_polyhexes(4):
        g = build_benzenoid(shape)
        if not is_peripherally_two_colorable(g).ok:
            continue
        metric = build_resonance(g, enumerate_matchings(g)).metric()
        verdict = is_daisy_cube(metric)
        assert verdict.ok
        labels = verdict.labelling
        for cls in theta_classes(metric).classes:
            split = split_class(metric, cls)
            assert split.peripheral
            (x, y) = split.edge
            (pos,) = [i for i, (a, b) in enumerate(zip(labels[x], labels[y])) if a != b]
            zero_side = split.w_x if labels[x][pos] == "0" else split.w_y
            one_side = split.w_y if zero_side is split.w_x else split.w_x
            assert {v for v in metric.vertices if labels[v][pos] == "0"} == zero_side
            if len(zero_side) > len(one_side):
                assert one_side == (split.u_x if one_side is split.w_x else split.u_y)


def test_median_split_on_branched_resonance(branched5):
    from rescube.matchings import enumerate_matchings
    from rescube.resonance import build_resonance

    metric = build_resonance(branched5, enumerate_matchings(branched5)).metric()
    classes = theta_classes(metric).classes
    assert len(classes) == 5
    memo = {}
    for cls in classes:
        assert check_median_split(metric, cls, _memo=memo).ok


def test_daisy_exhaustive_cap():
    from rescube.errors import CapExceeded

    long_path = path(22)  # 21 classes exceeds the oracle's sweep cap
    with pytest.raises(CapExceeded):
        oracle.is_daisy_cube(long_path, "exhaustive")
    assert not oracle.is_daisy_cube(long_path, "roots").ok


def test_daisy_search_has_no_cap():
    # the roots pass is decisive, so no idim cuts the search short
    verdict = is_daisy_cube(path(22))
    assert not verdict.ok
    assert verdict.idim == 21
