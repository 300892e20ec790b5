"""Matching enumeration, facial predicates, subsets, and extremal matchings."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.errors import BadSelector, CapExceeded, NoPerfectMatching, NotFound
from rescube.matchings import (
    AVOIDS_END_EDGES,
    CONTAINS_END_EDGES,
    IMPROPER,
    NOT_ALTERNATING,
    PROPER,
    alternation_kind,
    end_edge_state,
    enumerate_matchings,
    extremal_matchings,
    handle_predicate,
    is_resonant,
    matching_subset,
    matchings_to_json,
)
from rescube.plane_graph import elementary_analysis, facial_handle_decomposition, handles
from rescube.decomposition import auto_rfd, rfd_from_face_order
from rescube.coding import daisy_labelling, fdl_labelling

from conftest import zigzag
from cube_oracles import all_cycles, cycle_scan_extremes, has_alternating_cycle
from test_resonance import matchable_edge_subsets, small_corpus


def matching_count_by_permanent(g):
    """Independent oracle: permanent of the white/black biadjacency matrix."""
    white = sorted(v for v in g.vertices if g.color(v) == "white")
    black = sorted(v for v in g.vertices if g.color(v) == "black")
    if len(white) != len(black):
        return 0
    index = {b: i for i, b in enumerate(black)}
    rows = [
        sum(1 << index[w] for w in g.rotation[v] if w in index) for v in white
    ]

    @lru_cache(maxsize=None)
    def count(i, used):
        if i == len(rows):
            return 1
        total = 0
        free = rows[i] & ~used
        while free:
            bit = free & -free
            free ^= bit
            total += count(i + 1, used | bit)
        return total

    return count(0, 0)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def test_counts(hexagon, branched5, naphthalene, pyrene, triphenylene):
    expected = {
        id(hexagon): 2,
        id(branched5): 14,
        id(naphthalene): 3,
        id(pyrene): 6,
        id(triphenylene): 9,
    }
    for g in (hexagon, branched5, naphthalene, pyrene, triphenylene):
        family = enumerate_matchings(g)
        assert len(family) == expected[id(g)]
        assert len(family) == matching_count_by_permanent(g)


def test_prefix_counts():
    assert len(enumerate_matchings(build_benzenoid([(0, 0), (1, -1)]))) == 3
    assert (
        len(enumerate_matchings(build_benzenoid([(0, 0), (1, -1), (2, -1)]))) == 5
    )


def test_enumeration_deterministic(branched5):
    a = enumerate_matchings(branched5)
    b = enumerate_matchings(branched5)
    assert [m.edges for m in a] == [m.edges for m in b]


def test_every_vertex_covered_once(branched5):
    for m in enumerate_matchings(branched5):
        seen = [v for e in m.edges for v in e]
        assert sorted(seen) == list(branched5.vertices)


def test_cap(branched5):
    with pytest.raises(CapExceeded):
        enumerate_matchings(branched5, cap=5)


def test_no_perfect_matching():
    from rescube.plane_graph import build_plane_graph

    g = build_plane_graph([(0, 0, 0), (1, 1, 0), (2, 2, 0)], [(0, 1), (1, 2)])
    with pytest.raises(NoPerfectMatching):
        enumerate_matchings(g)


def test_json_export(naphthalene):
    family = enumerate_matchings(naphthalene)
    data = matchings_to_json(family)
    assert [row["id"] for row in data] == [0, 1, 2]
    assert all(len(row["edges"]) == 5 for row in data)


# ---------------------------------------------------------------------------
# resonance and alternation
# ---------------------------------------------------------------------------


def test_cycle_matchings_resonant(hexagon):
    family = enumerate_matchings(hexagon)
    face = hexagon.finite_faces[0]
    assert all(is_resonant(hexagon, m, face.id) for m in family)


def test_cycle_alternation_classes(hexagon):
    family = enumerate_matchings(hexagon)
    walk = hexagon.finite_faces[0].boundary
    closed = walk + (walk[0],)
    kinds = sorted(alternation_kind(hexagon, m, closed) for m in family)
    assert kinds == [IMPROPER, PROPER]


def test_not_alternating_walk(naphthalene):
    from rescube.plane_graph import edge_key

    family = enumerate_matchings(naphthalene)
    shared = [e for e in naphthalene.edges if e not in naphthalene.periphery_edges]
    (m,) = [m for m in family if shared[0] in m.edges]
    walk = naphthalene.periphery_walk()
    closed = walk + walk[:2]
    stretches = [
        closed[i : i + 3]
        for i in range(len(walk))
        if edge_key(closed[i], closed[i + 1]) not in m.edges
        and edge_key(closed[i + 1], closed[i + 2]) not in m.edges
    ]
    assert stretches  # two consecutive unmatched periphery edges exist
    assert alternation_kind(naphthalene, m, stretches[0]) == NOT_ALTERNATING
    # a single unmatched edge carries no orientation information
    unmatched = sorted(naphthalene.edges - m.edges)
    assert alternation_kind(naphthalene, m, unmatched[0]) == NOT_ALTERNATING


def test_branched_fully_resonant_matching(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    ext = extremal_matchings(branched5, family)
    m = family[ext.fully_resonant]
    assert all(is_resonant(branched5, m, fid) for fid in branched5_faces)


def test_bottom_matching_never_proper(branched5):
    family = enumerate_matchings(branched5)
    ext = extremal_matchings(branched5, family)
    bottom = family[ext.lattice_bottom]
    for walk in all_cycles(branched5):
        assert alternation_kind(branched5, bottom, walk) != PROPER
    assert not has_alternating_cycle(branched5, bottom, PROPER)
    assert has_alternating_cycle(branched5, bottom, IMPROPER)


def test_code_10000_matching_not_resonant_on_branch_face(
    branched5, branched5_faces
):
    family = enumerate_matchings(branched5)
    rfd = rfd_from_face_order(branched5, branched5_faces)
    labels = daisy_labelling(branched5, family, rfd).labels
    (mid,) = [k for k, v in labels.items() if v == "10000"]
    assert not is_resonant(branched5, family[mid], branched5_faces[1])


# ---------------------------------------------------------------------------
# handle predicate
# ---------------------------------------------------------------------------


def test_handle_predicate_two_states(branched5):
    family = enumerate_matchings(branched5)
    for h in handles(branched5):
        for m in family:
            assert handle_predicate(branched5, m, h) in (
                CONTAINS_END_EDGES,
                AVOIDS_END_EDGES,
            )


def test_trivial_handle_state_is_membership(branched5):
    family = enumerate_matchings(branched5)
    trivial = [h for h in handles(branched5) if h.length == 1]
    assert trivial
    for h in trivial:
        (e,) = h.edges
        for m in family:
            want = CONTAINS_END_EDGES if e in m.edges else AVOIDS_END_EDGES
            assert handle_predicate(branched5, m, h) == want


def test_even_path_rejected(anthracene):
    family = enumerate_matchings(anthracene)
    even = [h for h in handles(anthracene) if h.length % 2 == 0]
    assert even  # the straight middle ring creates even exterior handles
    with pytest.raises(ValueError):
        handle_predicate(anthracene, family[0], even[0])


# ---------------------------------------------------------------------------
# subsets
# ---------------------------------------------------------------------------


def test_single_handle_subsets_equal_all(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    for fid in branched5_faces:
        dec = facial_handle_decomposition(branched5, fid)
        avoid_all = matching_subset(branched5, family, fid, "all-exterior-avoid")
        contain_all = matching_subset(
            branched5, family, fid, "all-exterior-contain"
        )
        for idx in range(1, dec.m + 1):
            assert (
                matching_subset(branched5, family, fid, "exterior-avoid", idx)
                == avoid_all
            )
            assert (
                matching_subset(branched5, family, fid, "exterior-contain", idx)
                == contain_all
            )
        # the two sides partition the family
        assert avoid_all | contain_all == frozenset(family.ids)
        assert not avoid_all & contain_all


def test_resonant_refinements(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    for fid in branched5_faces:
        econt = matching_subset(branched5, family, fid, "all-exterior-contain")
        assert (
            matching_subset(
                branched5, family, fid, "all-exterior-contain-resonant"
            )
            == econt
        )
        assert (
            matching_subset(branched5, family, fid, "all-interior-avoid-resonant")
            == econt
        )
        icont = matching_subset(branched5, family, fid, "all-interior-contain")
        assert (
            matching_subset(
                branched5, family, fid, "all-interior-contain-resonant"
            )
            == icont
        )
        assert (
            matching_subset(branched5, family, fid, "all-exterior-avoid-resonant")
            == icont
        )


def test_bad_selectors(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    fid = branched5_faces[0]
    with pytest.raises(BadSelector):
        matching_subset(branched5, family, fid, "nonsense")
    with pytest.raises(BadSelector):
        matching_subset(branched5, family, fid, "exterior-avoid")  # index missing
    with pytest.raises(BadSelector):
        matching_subset(branched5, family, fid, "all-exterior-avoid", 1)
    with pytest.raises(BadSelector):
        matching_subset(branched5, family, fid, "exterior-avoid", 99)


def test_subset_caching(branched5, branched5_faces):
    family = enumerate_matchings(branched5)
    fid = branched5_faces[0]
    first = matching_subset(branched5, family, fid, "all-exterior-avoid")
    assert (
        matching_subset(branched5, family, fid, "all-exterior-avoid") is first
    )


# ---------------------------------------------------------------------------
# extremal matchings
# ---------------------------------------------------------------------------


def test_extremal_on_cycle(hexagon):
    family = enumerate_matchings(hexagon)
    ext = extremal_matchings(hexagon, family)
    assert ext.fully_resonant is None  # both matchings make the face resonant
    assert {ext.lattice_bottom, ext.lattice_top} == {0, 1}
    walk = hexagon.finite_faces[0].boundary
    closed = walk + (walk[0],)
    assert (
        alternation_kind(hexagon, family[ext.lattice_bottom], closed) == IMPROPER
    )
    assert alternation_kind(hexagon, family[ext.lattice_top], closed) == PROPER


def test_extremal_unique_on_branched(branched5):
    family = enumerate_matchings(branched5)
    ext = extremal_matchings(branched5, family)
    assert ext.fully_resonant is not None
    assert len({ext.fully_resonant, ext.lattice_bottom, ext.lattice_top}) == 3


def assert_extremes_match_cycle_scan(g):
    family = enumerate_matchings(g)
    ext = extremal_matchings(g, family)
    assert cycle_scan_extremes(g, family) == ([ext.lattice_bottom], [ext.lattice_top])


CORONENE = ((0, 0), (1, 0), (1, -1), (0, -1), (-1, 0), (-1, 1), (0, 1))


def test_extremes_match_cycle_scan_on_corpus(
    pyrene, triphenylene, two_hexagons, branched5_plus_hexagon
):
    for shape in catacondensed_polyhexes(7):
        assert_extremes_match_cycle_scan(build_benzenoid(shape))
    for g in (pyrene, triphenylene, two_hexagons, branched5_plus_hexagon):
        assert_extremes_match_cycle_scan(g)
    assert_extremes_match_cycle_scan(build_benzenoid(CORONENE))


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_resonant_faces_match_cycle_scan_on_edge_subsets(pyrene, nested_rings, data):
    """On weakly elementary graphs a matching has a proper (improper)
    alternating cycle exactly when it has a proper (improper) resonant face."""
    g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assume(elementary_analysis(g).is_weakly_elementary)
    family = enumerate_matchings(g)
    cycles = all_cycles(g)
    walks = [f.boundary + (f.boundary[0],) for f in g.finite_faces]
    for m in family:
        on_faces = {alternation_kind(g, m, w) for w in walks} - {NOT_ALTERNATING}
        on_cycles = {alternation_kind(g, m, w) for w in cycles} - {NOT_ALTERNATING}
        assert on_faces == on_cycles
    assert_extremes_match_cycle_scan(g)


def test_extremes_outside_weakly_elementary_graphs(nested_rings):
    # the outer ring alternates but is no face, so the face rule finds two
    # bottoms where the cycle scan finds one
    assert not elementary_analysis(nested_rings).is_weakly_elementary
    family = enumerate_matchings(nested_rings)
    bottoms, tops = cycle_scan_extremes(nested_rings, family)
    assert len(bottoms) == len(tops) == 1
    with pytest.raises(NotFound):
        extremal_matchings(nested_rings, family)


def test_extremes_past_sixteen_faces():
    g = zigzag(17)
    family = enumerate_matchings(g)
    assert len(family) == 4181
    ext = extremal_matchings(g, family)
    fdl = fdl_labelling(g, family, auto_rfd(g)).labels
    assert fdl[ext.lattice_bottom] == "0" * 17
    assert fdl[ext.lattice_top] == "1" * 17


def test_end_edge_state_requires_odd():
    from rescube.matchings import PerfectMatching

    m = PerfectMatching(0, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        end_edge_state(m, (0, 1, 2))
