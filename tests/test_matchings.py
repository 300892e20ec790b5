"""Matching enumeration, facial predicates, subsets, and extremal matchings."""

from functools import lru_cache

import pytest
from hypothesis import assume, given, settings, strategies as st

from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.errors import (
    CapExceeded,
    InternalInvariantBroken,
    NoPerfectMatching,
    NotFound,
    RescubeError,
    UnsupportedInput,
)
from rescube.matchings import (
    MatchingFamily,
    bit_ids,
    enumerate_matchings,
    extremal_matchings,
    handle_column,
    pack,
    resonance_columns,
)
from rescube.plane_graph import (
    edge_key,
    elementary_analysis,
    enumerate_matching_columns,
    facial_handle_decomposition,
    handles,
)
from rescube.decomposition import auto_rfd, rfd_from_face_order
from rescube.coding import _handle_columns, daisy_labelling, fdl_labelling
from rescube.resonance import build_resonance

from conftest import zigzag
import cube_oracles as oracle
from cube_oracles import (
    AVOIDS_END_EDGES,
    CONTAINS_END_EDGES,
    IMPROPER,
    NOT_ALTERNATING,
    PROPER,
    all_cycles,
    alternation_kind,
    cycle_scan_extremes,
    end_edge_state,
    has_alternating_cycle,
    is_resonant,
    matching_subset,
)
from test_plane_graph import edge_subsets
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
    assert a.columns == b.columns and len(a) == len(b)


def test_every_vertex_covered_once(branched5):
    for m in oracle.matchings(enumerate_matchings(branched5)):
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


# ---------------------------------------------------------------------------
# column enumeration against the edge-set oracle
# ---------------------------------------------------------------------------


def oracle_columns(sets) -> dict:
    """The edge sets transposed: edge -> bitset of the ids that hold it."""
    columns = {}
    for mid, edges in enumerate(sets):
        for e in edges:
            columns[e] = columns.get(e, 0) | 1 << mid
    return columns


def assert_family_matches_oracle(g):
    """The columns and the family derived from them equal the edge-set
    oracle's matchings, id for id; no matching means NoPerfectMatching."""
    sets = oracle.enumerate_matching_edge_sets(g)
    assert enumerate_matching_columns(g.vertices, g.rotation.__getitem__) == (
        len(sets), oracle_columns(sets)
    )
    if not sets:
        with pytest.raises(NoPerfectMatching):
            enumerate_matchings(g)
        return
    family = enumerate_matchings(g)
    assert len(family) == len(sets) and family.full == (1 << len(sets)) - 1
    assert family.columns == oracle_columns(sets)
    assert [m.edges for m in oracle.matchings(family)] == sets
    assert [m.id for m in oracle.matchings(family)] == list(family.ids)


def test_columns_enumeration_matches_oracle_on_corpus():
    for shape in catacondensed_polyhexes(7):
        assert_family_matches_oracle(build_benzenoid(shape))


def test_columns_enumeration_matches_oracle_on_fixtures(
    pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path
):
    from rescube.plane_graph import build_plane_graph

    odd_path = build_plane_graph([(0, 0, 0), (1, 1, 0), (2, 2, 0)], [(0, 1), (1, 2)])
    star = build_plane_graph(
        [(0, 0, 0), (1, 1, 0), (2, -1, 0), (3, 0, 1)], [(0, 1), (0, 2), (0, 3)]
    )
    graphs = [zigzag(h) for h in range(1, 13)]
    graphs += [pyrene, nested_rings, two_hexagons, hexagon_with_pendant_path, odd_path, star]
    graphs.append(build_plane_graph([], []))  # one matching, with no edge
    for g in graphs:
        assert_family_matches_oracle(g)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_columns_enumeration_matches_oracle_on_edge_subsets(pyrene, nested_rings, data):
    # disconnected, odd-order and matching-free subgraphs among them
    g = data.draw(edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assert_family_matches_oracle(g)


def test_cap_boundary():
    g = zigzag(9)
    assert len(enumerate_matchings(g, cap=89)) == 89
    with pytest.raises(CapExceeded):
        enumerate_matchings(g, cap=88)
    with pytest.raises(ValueError):
        enumerate_matchings(g, cap=0)
    assert enumerate_matching_columns(g.vertices, g.rotation.__getitem__, cap=89)[0] == 89
    with pytest.raises(CapExceeded):
        enumerate_matching_columns(g.vertices, g.rotation.__getitem__, cap=88)


def test_family_holds_only_columns(branched5):
    # a matching is one bit of every column; the edge-set view is the oracle's
    family = enumerate_matchings(branched5)
    assert len(family) == 14 and family.ids == range(14)
    for name in ("matchings", "index", "by_edges", "__iter__", "__getitem__"):
        assert not hasattr(MatchingFamily, name)
    assert oracle.matchings(family) is oracle.matchings(family)


# ---------------------------------------------------------------------------
# resonance and alternation
# ---------------------------------------------------------------------------


def test_cycle_matchings_resonant(hexagon):
    family = enumerate_matchings(hexagon)
    face = hexagon.finite_faces[0]
    assert all(is_resonant(hexagon, m, face.id) for m in oracle.matchings(family))


def test_cycle_alternation_classes(hexagon):
    family = enumerate_matchings(hexagon)
    walk = hexagon.finite_faces[0].boundary
    closed = walk + (walk[0],)
    kinds = sorted(alternation_kind(hexagon, m, closed) for m in oracle.matchings(family))
    assert kinds == [IMPROPER, PROPER]


def test_not_alternating_walk(naphthalene):
    from rescube.plane_graph import edge_key

    family = enumerate_matchings(naphthalene)
    shared = [e for e in naphthalene.edges if e not in naphthalene.periphery_edges]
    (m,) = [m for m in oracle.matchings(family) if shared[0] in m.edges]
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
    ext = extremal_matchings(build_resonance(branched5, family))
    m = oracle.matchings(family)[ext.fully_resonant]
    assert all(is_resonant(branched5, m, fid) for fid in branched5_faces)


def test_bottom_matching_never_proper(branched5):
    family = enumerate_matchings(branched5)
    ext = extremal_matchings(build_resonance(branched5, family))
    bottom = oracle.matchings(family)[ext.lattice_bottom]
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
    (mid,) = [k for k, v in labels.items() if v == oracle.bits("10000")]
    assert not is_resonant(branched5, oracle.matchings(family)[mid], branched5_faces[1])


# ---------------------------------------------------------------------------
# handle predicate
# ---------------------------------------------------------------------------


def test_handle_predicate_two_states(branched5):
    family = enumerate_matchings(branched5)
    for h in handles(branched5):
        for m in oracle.matchings(family):
            assert end_edge_state(m, h.path) in (
                CONTAINS_END_EDGES,
                AVOIDS_END_EDGES,
            )


def test_trivial_handle_state_is_membership(branched5):
    family = enumerate_matchings(branched5)
    trivial = [h for h in handles(branched5) if h.length == 1]
    assert trivial
    for h in trivial:
        (e,) = h.edges
        for m in oracle.matchings(family):
            want = CONTAINS_END_EDGES if e in m.edges else AVOIDS_END_EDGES
            assert end_edge_state(m, h.path) == want


def test_even_path_rejected(anthracene):
    family = enumerate_matchings(anthracene)
    even = [h for h in handles(anthracene) if h.length % 2 == 0]
    assert even  # the straight middle ring creates even exterior handles
    with pytest.raises(ValueError):
        end_edge_state(oracle.matchings(family)[0], even[0].path)


# ---------------------------------------------------------------------------
# handle-selected subsets (the oracle's grammar)
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


# ---------------------------------------------------------------------------
# extremal matchings
# ---------------------------------------------------------------------------


def test_extremal_on_cycle(hexagon):
    family = enumerate_matchings(hexagon)
    ext = extremal_matchings(build_resonance(hexagon, family))
    assert ext.fully_resonant is None  # both matchings make the face resonant
    assert {ext.lattice_bottom, ext.lattice_top} == {0, 1}
    walk = hexagon.finite_faces[0].boundary
    closed = walk + (walk[0],)
    ms = oracle.matchings(family)
    assert alternation_kind(hexagon, ms[ext.lattice_bottom], closed) == IMPROPER
    assert alternation_kind(hexagon, ms[ext.lattice_top], closed) == PROPER


def test_extremal_unique_on_branched(branched5):
    family = enumerate_matchings(branched5)
    ext = extremal_matchings(build_resonance(branched5, family))
    assert ext.fully_resonant is not None
    assert len({ext.fully_resonant, ext.lattice_bottom, ext.lattice_top}) == 3


def assert_extremes_match_cycle_scan(g):
    family = enumerate_matchings(g)
    ext = extremal_matchings(build_resonance(g, family))
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
    for m in oracle.matchings(family):
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
        extremal_matchings(build_resonance(nested_rings, family))


def test_extremes_past_sixteen_faces():
    g = zigzag(17)
    family = enumerate_matchings(g)
    assert len(family) == 4181
    ext = extremal_matchings(build_resonance(g, family))
    fdl = fdl_labelling(g, family, auto_rfd(g)).labels
    assert fdl[ext.lattice_bottom] == oracle.bits("0" * 17)
    assert fdl[ext.lattice_top] == oracle.bits("1" * 17)


def test_end_edge_state_requires_odd():
    m = oracle.Matching(0, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ValueError):
        end_edge_state(m, (0, 1, 2))


# ---------------------------------------------------------------------------
# column reads against the per-matching oracles
# ---------------------------------------------------------------------------


def outcome(fn):
    """What ``fn()`` returns, or the type of the error it raises."""
    try:
        return fn()
    except (RescubeError, ValueError) as exc:
        return type(exc)


def assert_columns_match_oracles(g):
    """Every column read equals its per-matching oracle on every finite face
    and handle of ``g``: the same bitset, or the same error type."""
    family = enumerate_matchings(g)
    for face in g.finite_faces:
        fid = face.id
        walk = face.boundary + (face.boundary[0],)
        proper, improper = resonance_columns(g, family, fid)
        assert proper == oracle.bitset(family, lambda m: alternation_kind(g, m, walk) == PROPER)
        assert improper == oracle.bitset(
            family, lambda m: alternation_kind(g, m, walk) == IMPROPER
        )
        assert proper | improper == oracle.bitset(family, lambda m: is_resonant(g, m, fid))

        dec = outcome(lambda: facial_handle_decomposition(g, fid))
        if isinstance(dec, type):
            continue
        for h in dec.sequence:
            assert outcome(lambda: handle_column(family, h.path)) == outcome(
                lambda: oracle.bitset(
                    family, lambda m: end_edge_state(m, h.path) == CONTAINS_END_EDGES
                )
            )
        columns = outcome(lambda: _handle_columns(g, family, [(fid, dec.exterior)]))
        if any(h.length % 2 == 0 for h in dec.exterior):
            # the codings reject the face before reading any matching
            assert columns == UnsupportedInput
            continue
        daisy = oracle.daisy_bits(g, family, fid)
        ones, mixed = oracle.fdl_bits(g, family, fid)
        assert columns == ([daisy], [ones], tuple((mid, fid) for mid in bit_ids(mixed)))

    fully, bottoms, tops = oracle.face_scan_extremes(g, family)
    ext = outcome(lambda: extremal_matchings(build_resonance(g, family)))
    if len(bottoms) != 1 or len(tops) != 1:
        assert ext == NotFound
    else:
        assert ext.lattice_bottom == bottoms[0] and ext.lattice_top == tops[0]
        assert ext.fully_resonant == (fully[0] if len(fully) == 1 else None)


def test_columns_match_oracles_on_corpus():
    for shape in catacondensed_polyhexes(7):
        assert_columns_match_oracles(build_benzenoid(shape))


def test_columns_match_oracles_on_fixtures(
    hexagon, pyrene, triphenylene, nested_rings, hexagon_with_pendant_path,
    branched5_plus_hexagon, even_interior,
):
    for g in (hexagon, pyrene, triphenylene, nested_rings, hexagon_with_pendant_path,
              branched5_plus_hexagon, even_interior, build_benzenoid(CORONENE)):
        assert_columns_match_oracles(g)
    # the middle hexagon's exterior edges start at different colors: a
    # matching that avoids both reads one proper and one improper
    family = enumerate_matchings(even_interior)
    middle = even_interior.face_by_edge_set[
        frozenset(edge_key(i, (i + 1) % 6) for i in range(6))
    ]
    exterior = facial_handle_decomposition(even_interior, middle).exterior
    assert _handle_columns(even_interior, family, [(middle, exterior)])[2]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_columns_match_oracles_on_edge_subsets(pyrene, nested_rings, data):
    g = data.draw(matchable_edge_subsets(small_corpus() + (pyrene, nested_rings)))
    assert_columns_match_oracles(g)


def test_handle_column_requires_odd_and_both_ends(branched5):
    # two edge sets that are no perfect matchings: the first holds one end
    # edge of the path 0-1-2-3, the second both
    family = MatchingFamily({(0, 1): 0b11, (2, 3): 0b10}, 2)
    assert oracle.matchings(family) == (
        oracle.Matching(0, frozenset({(0, 1)})),
        oracle.Matching(1, frozenset({(0, 1), (2, 3)})),
    )
    with pytest.raises(ValueError):
        handle_column(family, (0, 1, 2))
    with pytest.raises(InternalInvariantBroken):
        handle_column(family, (0, 1, 2, 3))
    assert handle_column(family, (3, 2)) == 0b10


def test_columns_transpose_the_family(branched5):
    family = enumerate_matchings(branched5)
    sets = oracle.enumerate_matching_edge_sets(branched5)
    assert family.full == (1 << len(family)) - 1
    for e in branched5.edges:
        assert bit_ids(family.columns.get(e, 0)) == [
            mid for mid, edges in enumerate(sets) if e in edges
        ]
    assert bit_ids(0) == [] and bit_ids(0b1011) == [0, 1, 3]


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 1 << 200), st.integers(0, 1 << 200))
def test_pack_keeps_the_bits_at_the_kept_positions(bits, keep):
    # bit j of the result is the bit of `bits` at the j-th kept position;
    # widths on either side of one another, and an empty keep
    kept = [(bits >> p) & 1 for p in bit_ids(keep)]
    assert pack(bits, keep) == sum(b << j for j, b in enumerate(kept))


def test_pack_restricts_a_column_to_a_subfamily(branched5):
    family = enumerate_matchings(branched5)
    sets = oracle.enumerate_matching_edge_sets(branched5)
    keep = 0b10110010011010
    ids = bit_ids(keep)
    for e, col in family.columns.items():
        assert bit_ids(pack(col, keep)) == [
            j for j, mid in enumerate(ids) if e in sets[mid]
        ]
    assert pack(family.full, keep) == (1 << len(ids)) - 1
    assert pack(0b1011, 0) == 0 and pack(0, 0b111) == 0
