"""The daisy and lattice codings, their anchors, and composition."""

from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes

from rescube import coding
from rescube.coding import (
    _certify_daisy,
    _handle_columns,
    color_swap_effect,
    codings_differ,
    composed_labels,
    daisy_label_set,
    daisy_labelling,
    elementary_parts,
    fdl_labelling,
    labelling_is_proper,
)
from rescube.cube_kit import (
    is_daisy_cube,
    is_downward_closed,
    is_isometric_labelling,
)
from rescube.decomposition import auto_rfd, rfd_from_face_order
from rescube.errors import (
    BadAttachment,
    LabelSetMismatch,
    PropertyViolated,
    RescubeError,
    UnsupportedInput,
)
from rescube.matchings import bit_ids, enumerate_matchings, extremal_matchings
from rescube.plane_graph import (
    edge_key,
    edge_subgraph,
    elementary_analysis,
    facial_handle_decomposition,
    swap_colors,
)
from rescube.resonance import build_resonance

import cube_oracles as oracle
from conftest import _shifted_union, zigzag
from cube_oracles import bits, label_leq, matching_subset, text
from test_resonance import matchable_edge_subsets, small_corpus

BRANCHED_LABEL_SET = {
    bits(s)
    for s in (
        "00000",
        "10000",
        "01000",
        "00100",
        "10100",
        "00010",
        "10010",
        "01010",
        "00001",
        "10001",
        "00101",
        "10101",
        "00011",
        "10011",
    )
}


# ---------------------------------------------------------------------------
# the label-set iteration
# ---------------------------------------------------------------------------


def test_label_set_sizes_on_branched_attachment():
    attachment = {2: 1, 3: 2, 4: 3, 5: 2}
    sizes = [len(daisy_label_set({k: v for k, v in attachment.items() if k <= n}, n))
             for n in range(1, 6)]
    assert sizes == [2, 3, 5, 8, 14]


def test_label_set_exact_values():
    assert daisy_label_set({}, 1) == {bits("0"), bits("1")}
    assert daisy_label_set({2: 1}, 2) == {bits("00"), bits("10"), bits("01")}
    assert daisy_label_set({2: 1, 3: 2, 4: 3, 5: 2}, 5) == BRANCHED_LABEL_SET


def test_label_set_bad_attachments():
    with pytest.raises(BadAttachment):
        daisy_label_set({2: 2}, 2)
    with pytest.raises(BadAttachment):
        daisy_label_set({}, 2)
    with pytest.raises(BadAttachment):
        daisy_label_set({2: 1, 3: 1}, 2)
    with pytest.raises(BadAttachment):
        daisy_label_set({2: 1}, 0)


@st.composite
def attachments(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    att = {i: draw(st.integers(min_value=1, max_value=i - 1)) for i in range(2, n + 1)}
    return att, n


@given(attachments())
def test_label_set_is_downward_closed_and_graded(data):
    att, n = data
    labels = daisy_label_set(att, n)
    assert is_downward_closed(labels)
    assert bits("0" * n) in labels
    assert len(labels) >= n + 1


# ---------------------------------------------------------------------------
# daisy labelling
# ---------------------------------------------------------------------------


def test_daisy_matches_figure_set(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = daisy_labelling(branched5, family, rfd)
    assert set(labelling.labels.values()) == BRANCHED_LABEL_SET


def test_daisy_fully_resonant_is_minimum(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = daisy_labelling(branched5, family, rfd)
    ext = extremal_matchings(build_resonance(branched5, family))
    assert labelling.labels[ext.fully_resonant] == bits("00000")


def test_daisy_edges_flip_their_face_bit(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = daisy_labelling(branched5, family, rfd)
    r = build_resonance(branched5, family)
    for u, v, fid in r.edges:
        a, b = text(labelling.labels[u], 5), text(labelling.labels[v], 5)
        pos = labelling.face_order.index(fid)
        assert [i for i, (x, y) in enumerate(zip(a, b)) if x != y] == [pos]


def test_daisy_is_proper_and_o_closed(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = daisy_labelling(branched5, family, rfd)
    metric = build_resonance(branched5, family).metric()
    assert labelling_is_proper(metric, labelling.labels)
    assert is_daisy_cube(metric).ok
    # the label set is the o-closure of its maximal elements
    labels = labelling.labels
    maximal = [
        mid
        for mid, lab in labels.items()
        if not any(lab != other and label_leq(lab, other) for other in labels.values())
    ]
    assert oracle.operator_o(labels, maximal) == frozenset(labels)


def test_daisy_on_even_cycle(hexagon):
    family = enumerate_matchings(hexagon)
    labelling = daisy_labelling(hexagon, family, auto_rfd(hexagon))
    assert sorted(labelling.labels.values()) == [bits("0"), bits("1")]


def even_cycle(n):
    """The n-cycle 0, 1, .., n - 1, embedded by its rotation system."""
    from rescube.plane_graph import from_rotation_system

    rotation = {i: ((i + 1) % n, (i - 1) % n) for i in range(n)}
    return from_rotation_system(rotation, infinite_darts=[(1, 0)])


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_even_cycle_daisy_bit_matches_reference_matching(n):
    """The bit read from the face's resonance columns under the anchor
    coloring is 1 off the reference matching, in both colorings."""
    g = even_cycle(n)
    family = enumerate_matchings(g)
    for h in (g, swap_colors(g)):
        labels = daisy_labelling(h, family, auto_rfd(h)).labels
        ones = oracle.even_cycle_daisy_bits(h, family)
        assert labels == {mid: ones >> mid & 1 for mid in family.ids}


def test_prefix_one_daisy_bit_matches_reference_matching():
    """G_1 of every decomposition is an even cycle; its daisy record is the
    reference-matching rule's under either coloring of the whole graph."""
    from rescube import decomposition
    from rescube.plane_graph import is_peripherally_two_colorable

    checked = 0
    for shape in catacondensed_polyhexes(6):
        g = build_benzenoid(shape)
        if g.is_cycle_graph() or not is_peripherally_two_colorable(g).ok:
            continue
        for h in (g, swap_colors(g)):
            r = build_resonance(h, enumerate_matchings(h))
            first = decomposition._prefix(h, r, auto_rfd(h), 1, len(r))
            ones = oracle.even_cycle_daisy_bits(edge_subgraph(h, first.edges), first.family)
            assert first.daisy.labels == {mid: ones >> mid & 1 for mid in first.family.ids}
            checked += 1
    assert checked == 40


def test_theta_sides_match_bits(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = daisy_labelling(branched5, family, rfd)
    for fid in branched5_faces:
        pos = labelling.face_order.index(fid)
        zeros = {m for m, lab in labelling.labels.items() if text(lab, 5)[pos] == "0"}
        assert zeros == matching_subset(
            branched5, family, fid, "all-exterior-avoid"
        )


# ---------------------------------------------------------------------------
# lattice (fdl) labelling
# ---------------------------------------------------------------------------


def test_fdl_anchors(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = fdl_labelling(branched5, family, rfd)
    ext = extremal_matchings(build_resonance(branched5, family))
    assert labelling.labels[ext.lattice_bottom] == bits("00000")
    assert labelling.labels[ext.lattice_top] == bits("11111")
    assert not labelling.mixed_orientation


def test_fdl_isometric_and_one_bit_edges(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labelling = fdl_labelling(branched5, family, rfd)
    r = build_resonance(branched5, family)
    assert is_isometric_labelling(r.metric(), labelling.labels)
    for u, v, fid in r.edges:
        a, b = text(labelling.labels[u], 5), text(labelling.labels[v], 5)
        pos = labelling.face_order.index(fid)
        assert [i for i, (x, y) in enumerate(zip(a, b)) if x != y] == [pos]


def test_fdl_not_downward_closed_here(branched5, branched5_faces):
    # the lattice coding realizes a different orientation than the daisy one
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    daisy = daisy_labelling(branched5, family, rfd)
    fdl = fdl_labelling(branched5, family, rfd)
    assert codings_differ(daisy, fdl)
    assert not is_downward_closed(fdl.labels.values())


def test_fdl_even_cycle(hexagon):
    from cube_oracles import PROPER, alternation_kind

    family = enumerate_matchings(hexagon)
    labelling = fdl_labelling(hexagon, family, auto_rfd(hexagon))
    walk = hexagon.finite_faces[0].boundary
    closed = walk + (walk[0],)
    for m in oracle.matchings(family):
        want = bits("1") if alternation_kind(hexagon, m, closed) == PROPER else bits("0")
        assert labelling.labels[m.id] == want


# ---------------------------------------------------------------------------
# color swap
# ---------------------------------------------------------------------------


def test_color_swap_branched(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    report = color_swap_effect(branched5, family, rfd)
    assert report.ok


def test_color_swap_naphthalene(naphthalene):
    family = enumerate_matchings(naphthalene)
    report = color_swap_effect(naphthalene, family, auto_rfd(naphthalene))
    assert report.ok


def test_color_swap_even_cycle(hexagon):
    family = enumerate_matchings(hexagon)
    rfd = auto_rfd(hexagon)
    report = color_swap_effect(hexagon, family, rfd)
    assert report.ok
    swapped = swap_colors(hexagon)
    fdl_a = fdl_labelling(hexagon, family, rfd).labels
    fdl_b = fdl_labelling(swapped, enumerate_matchings(swapped), rfd).labels
    assert all(fdl_b[m] == fdl_a[m] ^ bits("1") for m in fdl_a)  # complemented


def test_color_swap_reads_each_coloring_once(monkeypatch):
    """One pass over the faces' handles per coloring gives both codings'
    columns, and only the graph's own daisy labels are certified."""
    g = zigzag(6)
    family = enumerate_matchings(g)
    rfd = auto_rfd(g)
    calls = Counter()
    for name in ("_handle_columns", "_certify_daisy"):
        fn = getattr(coding, name)
        monkeypatch.setattr(
            coding, name, lambda *a, fn=fn, name=name: calls.update([name]) or fn(*a)
        )
    assert color_swap_effect(g, family, rfd).ok
    assert calls == {"_handle_columns": 2, "_certify_daisy": 1}


def test_color_swap_daisy_mismatch_raises(monkeypatch):
    """The swapped daisy columns are compared with the certified labels'
    columns: a swapped column that differs makes the check raise."""
    g = zigzag(4)
    family = enumerate_matchings(g)
    rfd = auto_rfd(g)
    columns, seen = coding._rfd_columns, []

    def second_differs(h, fam, order):
        daisy, fdl, mixed = columns(h, fam, order)
        seen.append(h)
        if len(seen) == 2:
            daisy = [daisy[0] ^ 1, *daisy[1:]]
        return daisy, fdl, mixed

    monkeypatch.setattr(coding, "_rfd_columns", second_differs)
    with pytest.raises(PropertyViolated, match="daisy_fixed=False"):
        color_swap_effect(g, family, rfd)


def test_color_swap_enumerates_nothing(branched5, monkeypatch, families):
    # swapping colours changes no edge set, so the caller's family serves
    # both sides, with the same ids the swapped graph would enumerate, and
    # no second family is built
    from rescube import plane_graph

    family = enumerate_matchings(branched5)
    assert enumerate_matchings(swap_colors(branched5)).columns == family.columns
    rfd = auto_rfd(branched5)

    def refuse(vertices, neighbours, cap=plane_graph.DEFAULT_MATCHING_CAP):
        raise AssertionError("color_swap_effect enumerated perfect matchings")

    monkeypatch.setattr(plane_graph, "enumerate_matching_columns", refuse)
    del families[:]
    assert color_swap_effect(branched5, family, rfd).ok
    assert families == []


def test_extremal_swap_under_color_swap(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    swapped = swap_colors(branched5)
    ext = extremal_matchings(build_resonance(branched5, family))
    ext_swapped = extremal_matchings(build_resonance(swapped, enumerate_matchings(swapped)))
    assert ext_swapped.lattice_bottom == ext.lattice_top
    assert ext_swapped.lattice_top == ext.lattice_bottom
    assert ext_swapped.fully_resonant == ext.fully_resonant


# ---------------------------------------------------------------------------
# composition
# ---------------------------------------------------------------------------


def composed_on_product(g, scheme):
    """The library's composed labels of G on R(G), after checking that R(G)
    is the product of its components' resonance graphs."""
    family, parts = enumerate_matchings(g), elementary_parts(g)
    r = build_resonance(g, family)
    product, _ = oracle.product_resonance(
        [(sub, build_resonance(sub, enumerate_matchings(sub))) for sub in parts]
    )
    assert oracle.keyed_resonance(g, r) == product
    labelling = composed_labels(g, family, parts, scheme)
    return r.metric(), labelling.labels, labelling.length


def test_compose_two_hexagons(two_hexagons):
    metric, labels, _ = composed_on_product(two_hexagons, "daisy")
    assert set(labels.values()) == {bits("00"), bits("01"), bits("10"), bits("11")}
    assert labelling_is_proper(metric, labels)


def test_compose_branched_with_hexagon(branched5_plus_hexagon):
    metric, labels, width = composed_on_product(branched5_plus_hexagon, "daisy")
    assert width == 6
    assert labelling_is_proper(metric, labels)
    verdict = is_daisy_cube(metric)
    assert verdict.ok and verdict.idim == 6


def test_compose_single_part(branched5):
    family = enumerate_matchings(branched5)
    (part,) = elementary_parts(branched5)
    labelling = daisy_labelling(branched5, family, auto_rfd(branched5))
    assert composed_labels(branched5, family, [part], "daisy") == labelling


@pytest.mark.parametrize("scheme", ["Daisy", "lattice", ""])
def test_composed_labels_reject_an_unknown_scheme(naphthalene, scheme):
    family = enumerate_matchings(naphthalene)
    with pytest.raises(ValueError, match="unknown scheme"):
        composed_labels(naphthalene, family, elementary_parts(naphthalene), scheme)


def composed(g, scheme):
    """The library's composed labels and width of a weakly elementary graph."""
    labelling = composed_labels(g, enumerate_matchings(g), elementary_parts(g), scheme)
    return labelling.labels, labelling.length


@pytest.mark.parametrize("scheme", ["daisy", "fdl"])
@pytest.mark.parametrize(
    "name",
    ["hexagon_plus_naphthalene", "branched5_plus_hexagon",
     "hexagon_with_pendant_path", "two_hexagons"],
)
def test_composed_labels_match_oracle(request, name, scheme):
    g = request.getfixturevalue(name)
    assert composed(g, scheme) == oracle.composed_labels(g, scheme)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), scheme=st.sampled_from(["daisy", "fdl"]))
def test_composed_labels_match_oracle_on_edge_subsets(pyrene, nested_rings, data, scheme):
    """Equal wherever the per-component oracle labels the graph; where it
    raises (a component that is not peripherally 2-colorable), so does the
    library, though it may raise elsewhere first."""
    g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assume(elementary_analysis(g).is_weakly_elementary)
    try:
        expected = oracle.composed_labels(g, scheme)
    except RescubeError:
        with pytest.raises(RescubeError):
            composed(g, scheme)
        return
    assert composed(g, scheme) == expected


def test_composed_daisy_labels_are_certified(hexagon):
    # two hexagons: the product of {0, 1} with itself, shifted by one place
    rfds = (auto_rfd(hexagon),) * 2
    _certify_daisy(dict(enumerate(map(bits, ("00", "10", "01", "11")))), rfds)
    with pytest.raises(LabelSetMismatch, match="not injective"):
        _certify_daisy(dict(enumerate(map(bits, ("00", "10", "10", "11")))), rfds)
    with pytest.raises(LabelSetMismatch, match="expected"):
        _certify_daisy(dict(enumerate(map(bits, ("00", "10", "01")))), rfds)


def test_single_position_requires_even_cycle(naphthalene):
    from rescube.errors import UnsupportedInput

    family = enumerate_matchings(naphthalene)
    rfd = auto_rfd(naphthalene).prefix(1)
    with pytest.raises(UnsupportedInput):
        daisy_labelling(naphthalene, family, rfd)
    with pytest.raises(UnsupportedInput):
        fdl_labelling(naphthalene, family, rfd)


@pytest.mark.parametrize("fn", [daisy_labelling, fdl_labelling])
def test_codings_reject_even_exterior_handle(anthracene, fn):
    from rescube.errors import UnsupportedInput

    family = enumerate_matchings(anthracene)
    with pytest.raises(UnsupportedInput, match="even length"):
        fn(anthracene, family, auto_rfd(anthracene))


def _hexagon_face(g, first):
    """The face of the hexagon on vertices first..first + 5, in ring order."""
    ring = frozenset(edge_key(first + i, first + (i + 1) % 6) for i in range(6))
    return g.face_by_edge_set[ring]


@pytest.mark.parametrize("reverse", [False, True])
def test_mixed_pairs_sort_by_matching_then_position(even_interior, reverse):
    # two disjoint copies of the three-hexagon row: every matching reads its
    # middle faces' two exterior edges with mixed orientation, so the pairs
    # of the two faces interleave, matching by matching
    g = _shifted_union([even_interior, even_interior])
    order = [_hexagon_face(g, 0), _hexagon_face(g, 12)][::-1 if reverse else 1]
    family = enumerate_matchings(g)
    expected = sorted(
        (mid, pos, fid)
        for pos, fid in enumerate(order)
        for mid in bit_ids(oracle.fdl_bits(g, family, fid)[1])
    )
    _, _, mixed = _handle_columns(g, family, _exteriors(g, order))
    assert mixed == tuple((mid, fid) for mid, _, fid in expected)
    assert (len(family), len(mixed)) == (16, 32)
    assert mixed[:3] == ((0, order[0]), (0, order[1]), (1, order[0]))


def _exteriors(g, order):
    """The faces in the order, each with its exterior handles."""
    return [(fid, facial_handle_decomposition(g, fid).exterior) for fid in order]


def test_even_exterior_handle_rejected_before_any_read(even_interior, monkeypatch):
    # the middle face's exterior handles are single edges, a side face's is
    # a path of four: the order is rejected before any face is read
    reads = []
    monkeypatch.setattr(coding, "handle_column", lambda *args: reads.append(args))
    middle = _hexagon_face(even_interior, 0)
    side = next(f.id for f in even_interior.finite_faces if f.id != middle)
    family = enumerate_matchings(even_interior)
    with pytest.raises(UnsupportedInput, match=f"face {side} has an exterior handle"):
        _handle_columns(even_interior, family, _exteriors(even_interior, (middle, side)))
    assert reads == []


def test_octagon_even_cycle_codings():
    from rescube.plane_graph import build_plane_graph
    from rescube.matchings import enumerate_matchings

    ring = [(0, 4, 0), (1, 3, 3), (2, 0, 4), (3, -3, 3), (4, -4, 0),
            (5, -3, -3), (6, 0, -4), (7, 3, -3)]
    g = build_plane_graph(ring, [(i, (i + 1) % 8) for i in range(8)])
    family = enumerate_matchings(g)
    assert len(family) == 2
    rfd = auto_rfd(g)
    daisy = daisy_labelling(g, family, rfd)
    fdl = fdl_labelling(g, family, rfd)
    assert sorted(daisy.labels.values()) == [bits("0"), bits("1")]
    assert sorted(fdl.labels.values()) == [bits("0"), bits("1")]
    assert color_swap_effect(g, family, rfd).ok
