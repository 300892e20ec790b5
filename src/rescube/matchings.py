"""Perfect matchings and the matching predicates driven by handles.

A matching family enumerates every perfect matching of a plane graph in a
deterministic order, so matching ids are stable across runs.  On top of it
live the facial predicates: resonance of a face, proper/improper
alternation of walks, the two-state end-edge predicate of odd handles, and
the handle-selected matching subsets used by the decomposition checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import plane_graph as pg
from .errors import (
    BadSelector,
    InternalInvariantBroken,
    NoPerfectMatching,
    NotFound,
)
from .plane_graph import (
    DEFAULT_MATCHING_CAP,
    PlaneGraph,
    edge_key,
    facial_handle_decomposition,
)

CONTAINS_END_EDGES = "contains_end_edges"
AVOIDS_END_EDGES = "avoids_end_edges"

PROPER = "proper"
IMPROPER = "improper"
NOT_ALTERNATING = "not_alternating"

SELECTORS = (
    "exterior-avoid",
    "exterior-contain",
    "interior-avoid",
    "interior-contain",
    "all-exterior-avoid",
    "all-exterior-contain",
    "all-interior-avoid",
    "all-interior-contain",
    "all-exterior-avoid-resonant",
    "all-exterior-contain-resonant",
    "all-interior-avoid-resonant",
    "all-interior-contain-resonant",
)


@dataclass(frozen=True)
class PerfectMatching:
    id: int
    edges: frozenset

    def __contains__(self, e):
        return edge_key(*e) in self.edges


class MatchingFamily:
    """All perfect matchings of one graph, indexed in enumeration order."""

    def __init__(self, graph: PlaneGraph, matchings):
        self.graph = graph
        self.matchings = tuple(matchings)
        self.index = {m.edges: m.id for m in self.matchings}  # edge set -> id
        self._cache = {}

    def __len__(self):
        return len(self.matchings)

    def __iter__(self):
        return iter(self.matchings)

    def __getitem__(self, mid) -> PerfectMatching:
        return self.matchings[mid]

    @property
    def ids(self):
        return range(len(self.matchings))

    def by_edges(self, edges) -> PerfectMatching:
        """The matching with exactly these edges; raises KeyError if none."""
        mid = self.index.get(frozenset(edge_key(*e) for e in edges))
        if mid is None:
            raise KeyError("no matching with that edge set")
        return self.matchings[mid]


def enumerate_matchings(g: PlaneGraph, cap: int = DEFAULT_MATCHING_CAP) -> MatchingFamily:
    """Exhaustively enumerate perfect matchings (deterministic backtracking)."""
    sets = pg.enumerate_matching_edge_sets(g, cap)
    if not sets:
        raise NoPerfectMatching("graph has no perfect matching")
    return MatchingFamily(g, [PerfectMatching(i, s) for i, s in enumerate(sets)])


# ---------------------------------------------------------------------------
# facial predicates
# ---------------------------------------------------------------------------


def is_resonant(g: PlaneGraph, matching: PerfectMatching, face_id: int) -> bool:
    """True when the facial cycle alternates in and out of the matching."""
    face = g.faces[face_id]
    darts = face.darts
    states = [edge_key(*d) in matching.edges for d in darts]
    return all(states[i] != states[(i + 1) % len(states)] for i in range(len(states)))


def alternation_kind(g: PlaneGraph, matching: PerfectMatching, walk) -> str:
    """Classify a walk on a facial cycle or the periphery.

    ``walk`` is a vertex sequence oriented along the clockwise orientation of
    its host cycle; a closed walk repeats its first vertex at the end.
    Returns 'proper' when every matched edge runs white to black, 'improper'
    when every matched edge runs black to white, and 'not_alternating' when
    the edges do not alternate or the walk carries no matched edge at all.
    """
    walk = tuple(walk)
    closed = len(walk) > 1 and walk[0] == walk[-1]
    darts = list(zip(walk, walk[1:]))
    states = [edge_key(*d) in matching.edges for d in darts]
    n = len(states)
    pairs = range(n) if closed else range(n - 1)
    if any(states[i] == states[(i + 1) % n] for i in pairs):
        return NOT_ALTERNATING
    matched_darts = [d for d, s in zip(darts, states) if s]
    if not matched_darts:
        return NOT_ALTERNATING
    kinds = {g.color(u) for u, _ in matched_darts}
    if len(kinds) != 1:
        raise InternalInvariantBroken("matched edges of one walk run both ways")
    return PROPER if kinds == {pg.WHITE} else IMPROPER


def end_edge_state(matching: PerfectMatching, path) -> str:
    """The two-state predicate of an odd path whose interior is matched within it."""
    if (len(path) - 1) % 2 == 0:
        raise ValueError("end-edge state is only defined for odd-length paths")
    first = edge_key(path[0], path[1]) in matching.edges
    last = edge_key(path[-2], path[-1]) in matching.edges
    if first != last:
        raise InternalInvariantBroken(
            "an odd path contains exactly one of its end edges"
        )
    return CONTAINS_END_EDGES if first else AVOIDS_END_EDGES


def handle_predicate(g: PlaneGraph, matching: PerfectMatching, handle) -> str:
    """Whether the matching contains both end edges of the handle or neither."""
    return end_edge_state(matching, handle.path)


# ---------------------------------------------------------------------------
# handle-selected subsets of a matching family
# ---------------------------------------------------------------------------


def _face_handles(family: MatchingFamily, face_id: int):
    key = ("decomposition", face_id)
    if key not in family._cache:
        family._cache[key] = facial_handle_decomposition(family.graph, face_id)
    return family._cache[key]


def matching_subset(
    g: PlaneGraph,
    family: MatchingFamily,
    face_id: int,
    selector: str,
    handle_index: int = None,
) -> frozenset:
    """Matching ids selected by a handle predicate on one facial cycle.

    Selectors pair a handle side ('exterior'/'interior') with a state
    ('avoid'/'contain').  The plain forms take a 1-based ``handle_index``
    into the clockwise handle order; the 'all-' forms quantify over every
    handle of that side, and an '-resonant' suffix additionally requires the
    face to be resonant.  Results are cached per (face, selector, index).
    """
    if selector not in SELECTORS:
        raise BadSelector(selector)
    indexed = not selector.startswith("all-")
    if indexed and handle_index is None:
        raise BadSelector(f"{selector} needs a handle index")
    if not indexed and handle_index is not None:
        raise BadSelector(f"{selector} does not take a handle index")

    key = (face_id, selector, handle_index)
    cached = family._cache.get(key)
    if cached is not None:
        return cached

    decomposition = _face_handles(family, face_id)
    body = selector[4:] if selector.startswith("all-") else selector
    resonant = body.endswith("-resonant")
    if resonant:
        body = body[: -len("-resonant")]
    side, state = body.split("-")
    want = CONTAINS_END_EDGES if state == "contain" else AVOIDS_END_EDGES
    pool = decomposition.exterior if side == "exterior" else decomposition.interior
    if indexed:
        if not 1 <= handle_index <= len(pool):
            raise BadSelector(
                f"handle index {handle_index} out of range 1..{len(pool)}"
            )
        pool = (pool[handle_index - 1],)

    chosen = []
    for m in family:
        if any(end_edge_state(m, h.path) != want for h in pool):
            continue
        if resonant and not is_resonant(g, m, face_id):
            continue
        chosen.append(m.id)
    result = frozenset(chosen)
    family._cache[key] = result
    return result


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


def extremal_matchings(g: PlaneGraph, family: MatchingFamily) -> ExtremalMatchings:
    """Locate the three distinguished matchings in one pass over the faces.

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
    peripherally 2-colorable none may)."""
    walks = [f.boundary + (f.boundary[0],) for f in g.finite_faces]
    fully, bottoms, tops = [], [], []
    for m in family:
        kinds = {alternation_kind(g, m, walk) for walk in walks}
        if NOT_ALTERNATING not in kinds:
            fully.append(m.id)
        if PROPER not in kinds:
            bottoms.append(m.id)
        if IMPROPER not in kinds:
            tops.append(m.id)

    if len(bottoms) != 1:
        raise NotFound(f"{len(bottoms)} matchings have no proper resonant face")
    if len(tops) != 1:
        raise NotFound(f"{len(tops)} matchings have no improper resonant face")
    return ExtremalMatchings(
        fully_resonant=fully[0] if len(fully) == 1 else None,
        lattice_bottom=bottoms[0],
        lattice_top=tops[0],
    )


def matchings_to_json(family: MatchingFamily) -> list:
    """JSON-ready export: list of {id, edges} in id order."""
    return [
        {"id": m.id, "edges": [list(e) for e in sorted(m.edges)]} for m in family
    ]
