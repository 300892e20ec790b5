"""Perfect matchings and the matching predicates driven by handles.

A matching family enumerates every perfect matching of a plane graph in a
deterministic order, so matching ids are stable across runs.  On top of it
live the facial predicates: resonance of a face, proper/improper
alternation of its boundary, and the two-state end-edge predicate of odd
handles.

Every predicate is read for the whole family at once: the family is
enumerated as one int per edge whose bit k is set when matching k holds the
edge, and a face or handle condition becomes a few big-int operations on
those columns (:func:`handle_column`, :func:`resonance_columns`), giving a
set of matchings as a bitset over ids.  :func:`pack` compares such sets
across two families.  No matching is ever held as an edge set: a matching
is one bit of every column.  The edge-set view of a family and the
single-matching versions of the predicates are the tests' oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress

from . import plane_graph as pg
from .errors import InternalInvariantBroken, NoPerfectMatching, NotFound
from .plane_graph import DEFAULT_MATCHING_CAP, PlaneGraph, edge_key


class MatchingFamily:
    """All perfect matchings of one graph, indexed in enumeration order.

    The family is held as its columns: ``columns`` maps each edge to an int
    whose bit k is set when matching k holds the edge (edges that no
    matching holds are absent), and ``size`` is the number of matchings.
    The enumeration writes them directly: its search tree finishes one
    subtree before the next, so the matchings below the choice of an edge
    are one id interval, OR-ed into that edge's column.  The columns are
    the family's only form: a matching is its id, and a set of matchings a
    bitset over ids.

    The ids follow the order of :func:`plane_graph.enumerate_matching_columns`:
    of two matchings, the one that gives the smaller mate to the smallest
    vertex whose mates differ comes first (equivalently, the ids sort the
    matchings by their sorted edge lists).  :func:`resonance.build_resonance`
    relies on that order.
    """

    def __init__(self, columns: dict, size: int):
        self.columns = columns
        self.size = size

    def __len__(self):
        return self.size

    @property
    def ids(self):
        return range(self.size)

    @cached_property
    def full(self) -> int:
        """The bitset of every matching id."""
        return (1 << self.size) - 1


def enumerate_matchings(g: PlaneGraph, cap: int = DEFAULT_MATCHING_CAP) -> MatchingFamily:
    """Exhaustively enumerate perfect matchings (deterministic backtracking)
    straight into the family's columns; no matching is built as an edge set.

    Ids are given in enumeration order, the order :class:`MatchingFamily`
    documents.  Raises :class:`NoPerfectMatching` when there is none and
    :class:`CapExceeded` past ``cap`` matchings."""
    size, columns = pg.enumerate_matching_columns(g.vertices, g.rotation.__getitem__, cap)
    if not size:
        raise NoPerfectMatching("graph has no perfect matching")
    return MatchingFamily(columns, size)


# ---------------------------------------------------------------------------
# column reads over a whole family
# ---------------------------------------------------------------------------


_DIGITS = bytes.maketrans(b"01", b"\x00\x01")
_KEPT = bytes.maketrans(b"23", b"01")


def bit_ids(bits: int) -> list:
    """The matching ids in a bitset, ascending."""
    row = format(bits, "b").encode().translate(_DIGITS)[::-1]  # byte k: bit k
    return list(compress(range(len(row)), row))


def pack(bits: int, keep: int) -> int:
    """The bits of ``bits`` at the positions set in ``keep``, packed: bit j
    of the result is the bit of ``bits`` at the j-th smallest position set
    in ``keep``.  On a column it keeps the matchings in ``keep``, renumbered
    by rank.  Each position becomes one hex digit, twice its ``keep`` bit
    plus its ``bits`` bit, so the kept digits are 2 and 3, and one
    translation drops the others and reads those as 0 and 1."""
    spread = int(format(keep, "b"), 16) << 1 | int(format(bits, "b"), 16)
    return int(format(spread, "x").encode().translate(_KEPT, b"01") or b"0", 2)


def handle_column(family: MatchingFamily, path) -> int:
    """The matchings that contain the end edges of an odd path whose interior
    is matched within it, as a bitset (the others avoid both end edges).
    Raises ValueError on an even path, and
    :class:`InternalInvariantBroken` when some matching holds exactly one of
    the two end edges."""
    if (len(path) - 1) % 2 == 0:
        raise ValueError("end-edge state is only defined for odd-length paths")
    cols = family.columns
    first = cols.get(edge_key(path[0], path[1]), 0)
    if first != cols.get(edge_key(path[-2], path[-1]), 0):
        raise InternalInvariantBroken(
            "an odd path contains exactly one of its end edges"
        )
    return first


def resonance_columns(g: PlaneGraph, family: MatchingFamily, face_id: int) -> tuple:
    """The matchings under which a finite face is proper resonant, and those
    under which it is improper resonant, as two bitsets whose union is the
    matchings under which the face is resonant.

    The walk alternates exactly when every dart of one alternate half is
    matched: consecutive darts share a vertex, so a perfect matching then
    holds no dart of the other half (a finite facial walk has more than two
    darts and passes each dart once).  The tails of one half's darts all
    share the color of the tail of its first dart, so that color tells
    proper from improper."""
    darts = g.faces[face_id].darts
    cols = family.columns
    col = [cols.get(edge_key(*d), 0) for d in darts]
    halves = []
    for start in (0, 1):
        held = family.full
        for c in col[start::2]:
            held &= c
        halves.append(held)
    if g.color(darts[0][0]) == pg.WHITE:
        return halves[0], halves[1]
    return halves[1], halves[0]


# ---------------------------------------------------------------------------
# extremal matchings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtremalMatchings:
    """Distinguished matchings of a plane weakly elementary graph.

    ``fully_resonant`` (the daisy-cube minimum) makes every finite face
    resonant; it is None when no unique such matching exists.  The lattice
    bottom has no proper resonant face, and so no proper alternating cycle
    anywhere in the graph; the top has no improper one.
    """

    fully_resonant: int
    lattice_bottom: int
    lattice_top: int


def extremal_matchings(r) -> ExtremalMatchings:
    """Locate the three distinguished matchings of R(G) ``r`` (a
    :class:`~rescube.resonance.ResonanceGraph`) in one pass over its faces.

    In a plane elementary bipartite graph every proper (improper)
    M-alternating cycle encloses a proper (improper) M-resonant finite face
    (Zhang and Zhang, DAM 105, 2000; Lam and Zhang, Order 20, 2003), so the
    bottom is the matching with no proper resonant face and the top the one
    with no improper resonant face.  The rule holds on weakly elementary
    graphs too: an alternating cycle runs on allowed edges, so it lies in
    one elementary component, and every finite face of such a component is
    a face of the graph.  On other graphs an alternating cycle may enclose
    no resonant face (the two rings of ``nested_rings``), and more than one
    matching qualifies.

    Raises :class:`NotFound` when the lattice bottom or top is missing or
    ambiguous.  ``fully_resonant`` is None unless exactly one matching
    qualifies (on an even cycle both do, and on graphs that are not
    peripherally 2-colorable none may).

    Read from R(G)'s face pairs (:attr:`~rescube.resonance.ResonanceGraph.pairs`),
    so no face is read again: fully resonant is the AND of resonant over the
    faces, and bottom and top are the complements of the ORs of proper and
    of improper resonant."""
    family = r.family
    fully, any_proper, any_improper = family.full, 0, 0
    for proper, improper in r.pairs.values():
        fully &= proper | improper
        any_proper |= proper
        any_improper |= improper
    bottoms = family.full & ~any_proper
    tops = family.full & ~any_improper

    if bottoms.bit_count() != 1:
        raise NotFound(f"{bottoms.bit_count()} matchings have no proper resonant face")
    if tops.bit_count() != 1:
        raise NotFound(f"{tops.bit_count()} matchings have no improper resonant face")
    return ExtremalMatchings(
        fully_resonant=fully.bit_length() - 1 if fully.bit_count() == 1 else None,
        lattice_bottom=bottoms.bit_length() - 1,
        lattice_top=tops.bit_length() - 1,
    )
