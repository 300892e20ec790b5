"""Plane bipartite graphs with an explicit straight-line embedding.

Coordinates are exact rationals.  The rotation system (counterclockwise
neighbor order around each vertex) is derived from them once, at input;
subgraphs inherit it.  Faces are traced from the rotation system so that
finite facial walks come out clockwise (negative shoelace area, y axis up)
while the walk of the infinite face is counterclockwise.  The periphery of
a connected graph, oriented clockwise, is therefore the reversed walk of
its infinite face.

Vertices are properly 2-colored white/black, anchored so the smallest
vertex id of every connected component is white.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, cmp_to_key

from . import cube_kit as ck
from .errors import (
    EmbeddingInconsistent,
    NoHandles,
    NoPerfectMatching,
    NotAlternating,
    NotBipartite,
    CapExceeded,
    InternalInvariantBroken,
    UnsupportedInput,
)

Edge = tuple  # undirected edge stored as (min(u, v), max(u, v))

WHITE = "white"
BLACK = "black"

DEFAULT_MATCHING_CAP = 100_000


def edge_key(u, v) -> Edge:
    """Canonical undirected edge."""
    return (u, v) if u < v else (v, u)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # round-trip through the printed decimal so 0.5 stays 1/2
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret coordinate {value!r} as a rational")


@dataclass(frozen=True)
class Face:
    """One traced face: a closed walk stored without repeating the start vertex."""

    id: int
    boundary: tuple
    is_infinite: bool

    def __len__(self):
        return len(self.boundary)

    @cached_property
    def darts(self) -> tuple:
        b = self.boundary
        return tuple((b[i], b[(i + 1) % len(b)]) for i in range(len(b)))

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(edge_key(u, v) for u, v in self.darts)


@dataclass(frozen=True)
class Handle:
    """Maximal path whose interior vertices have degree 2 and whose ends have degree >= 3.

    ``path`` keeps whatever orientation the producer used; equality and
    hashing ignore the direction and compare the edge set and kind, so the
    same handle oriented two ways compares equal.
    """

    path: tuple
    kind: str  # 'exterior' | 'interior'

    @property
    def length(self) -> int:
        return len(self.path) - 1

    @cached_property
    def edges(self) -> frozenset:
        return frozenset(edge_key(a, b) for a, b in zip(self.path, self.path[1:]))

    def __eq__(self, other):
        if not isinstance(other, Handle):
            return NotImplemented
        return self.kind == other.kind and self.edges == other.edges

    def __hash__(self):
        return hash((self.kind, self.edges))


@dataclass(frozen=True)
class FacialHandleDecomposition:
    """Alternating interior/exterior handles around one finite facial cycle.

    ``sequence`` lists the handles clockwise starting with an interior one;
    every handle path is oriented along the clockwise facial walk.
    """

    face: int
    sequence: tuple  # Handle, Handle, ... alternating interior/exterior

    @property
    def m(self) -> int:
        return len(self.sequence) // 2

    @property
    def interior(self) -> tuple:
        return tuple(h for h in self.sequence if h.kind == "interior")

    @property
    def exterior(self) -> tuple:
        return tuple(h for h in self.sequence if h.kind == "exterior")


@dataclass(frozen=True)
class PeripheralColorVerdict:
    """Outcome of the peripherally-2-colorable test with the first failed clause."""

    ok: bool
    failed_clause: str = None
    witness: object = None

    def __bool__(self):
        return self.ok


@dataclass(frozen=True)
class ElementaryReport:
    is_elementary: bool
    elementary_components: tuple  # frozensets of vertex ids
    is_weakly_elementary: bool
    allowed_edges: frozenset
    forbidden_edges: frozenset


class PlaneGraph:
    """Immutable plane bipartite graph; construct via the module-level builders."""

    def __init__(self, coords, edges, rotation, faces, coloring):
        self.coords = coords  # dict id -> (Fraction, Fraction), or None
        self.edges = frozenset(edges)
        self.rotation = {v: tuple(ns) for v, ns in rotation.items()}
        self.faces = tuple(faces)
        self.coloring = dict(coloring)
        self.vertices = tuple(sorted(self.rotation))

    # -- basic structure ------------------------------------------------

    def degree(self, v) -> int:
        return len(self.rotation[v])

    @cached_property
    def components(self) -> tuple:
        """Vertex sets of the connected components, by smallest vertex."""
        return ck.components(self.vertices, self.rotation.__getitem__)

    @property
    def is_connected(self) -> bool:
        return len(self.components) == 1

    def is_cycle_graph(self) -> bool:
        return self.is_connected and all(self.degree(v) == 2 for v in self.vertices)

    # -- faces ------------------------------------------------------------

    @cached_property
    def finite_faces(self) -> tuple:
        return tuple(f for f in self.faces if not f.is_infinite)

    @cached_property
    def infinite_faces(self) -> tuple:
        return tuple(f for f in self.faces if f.is_infinite)

    @cached_property
    def periphery_edges(self) -> frozenset:
        out = set()
        for f in self.infinite_faces:
            out |= f.edges
        return frozenset(out)

    def periphery_walk(self) -> tuple:
        """Clockwise peripheral walk of a connected graph."""
        if not self.is_connected:
            raise UnsupportedInput("periphery walk requires a connected graph")
        walk = self.infinite_faces[0].boundary
        return tuple(reversed(walk))

    @cached_property
    def face_by_edge_set(self) -> dict:
        """frozenset of undirected boundary edges -> finite face id."""
        return {f.edges: f.id for f in self.finite_faces}

    @cached_property
    def handle_by_edge(self) -> dict:
        """undirected edge -> the handle holding it; raises as :func:`handles`
        does, on every access, since a failed computation is not cached."""
        return {e: h for h in handles(self) for e in h.edges}

    # -- coloring ----------------------------------------------------------

    def color(self, v) -> str:
        return self.coloring[v]

    def _with_coloring(self, coloring) -> "PlaneGraph":
        g = PlaneGraph.__new__(PlaneGraph)
        g.coords = self.coords
        g.edges = self.edges
        g.rotation = self.rotation
        g.faces = self.faces
        g.coloring = dict(coloring)
        g.vertices = self.vertices
        return g


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _ccw_rotation(coords, adjacency) -> dict:
    """Sort each vertex's neighbors counterclockwise by angle, exactly."""

    def around(v):
        px, py = coords[v]

        def half(w):
            dx = coords[w][0] - px
            dy = coords[w][1] - py
            return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

        def cmp(a, b):
            ha, hb = half(a), half(b)
            if ha != hb:
                return -1 if ha < hb else 1
            ax = coords[a][0] - px
            ay = coords[a][1] - py
            bx = coords[b][0] - px
            by = coords[b][1] - py
            cross = ax * by - ay * bx
            if cross > 0:
                return -1
            if cross < 0:
                return 1
            return -1 if a < b else (0 if a == b else 1)

        return tuple(sorted(adjacency[v], key=cmp_to_key(cmp)))

    return {v: around(v) for v in adjacency}


def _trace_faces(rotation) -> list:
    """Trace all facial walks.

    The dart following (u, v) is (v, w) with w the successor of u in the
    counterclockwise rotation at v; each walk then keeps its face on the
    right, so finite faces come out clockwise.
    """
    index = {
        v: {w: i for i, w in enumerate(ns)} for v, ns in rotation.items()
    }
    pending = set()
    for v, ns in rotation.items():
        for w in ns:
            pending.add((v, w))
    walks = []
    for seed in sorted(pending):
        if seed not in pending:
            continue
        walk = []
        dart = seed
        while dart in pending:
            pending.discard(dart)
            walk.append(dart)
            u, v = dart
            ns = rotation[v]
            i = index[v][u]
            dart = (v, ns[(i + 1) % len(ns)])
        if dart != seed:
            raise EmbeddingInconsistent("face tracing did not close a walk")
        walks.append(walk)
    return walks


def _walk_area2(walk, coords) -> Fraction:
    """Twice the signed area of the closed walk (positive = counterclockwise)."""
    total = Fraction(0)
    for u, v in walk:
        ux, uy = coords[u]
        vx, vy = coords[v]
        total += ux * vy - vx * uy
    return total


def _canonical_boundary(boundary) -> tuple:
    n = len(boundary)
    best = None
    lo = min(boundary)
    for i, v in enumerate(boundary):
        if v != lo:
            continue
        rot = boundary[i:] + boundary[:i]
        if best is None or rot < best:
            best = rot
    return best


def _two_color(rotation) -> tuple:
    """The flood map from each component's smallest vertex, and the coloring
    that makes even depths white and odd depths black."""
    side = ck.flood(sorted(rotation), rotation.__getitem__)
    for v, ns in rotation.items():
        for w in ns:
            if side[v][1] == side[w][1]:
                raise NotBipartite(f"odd cycle through edge {edge_key(v, w)}")
    return side, {v: BLACK if parity else WHITE for v, (_, parity) in side.items()}


def _check_euler(side, edges, faces):
    """One infinite face and V - E + F = 2 on every component."""
    tally = {}  # component root -> [V - E + F, infinite faces]
    for root, _ in side.values():
        tally.setdefault(root, [0, 0])[0] += 1
    for u, _ in edges:
        tally[side[u][0]][0] -= 1
    for f in faces:
        counts = tally[side[f.boundary[0]][0]]
        counts[0] += 1
        counts[1] += f.is_infinite
    for root, (euler, ninf) in tally.items():
        if ninf != 1:
            raise EmbeddingInconsistent(
                f"component of vertex {root} has {ninf} infinite faces"
            )
        if euler != 2:
            raise EmbeddingInconsistent(
                f"Euler relation fails on component of vertex {root}"
            )


def _assemble(coords, edges, rotation, infinite_walks) -> PlaneGraph:
    """Two-colour, trace faces, flag the infinite walks, make faces and check
    Euler.  ``infinite_walks(walks, side)`` is the caller's rule: the indices
    of the infinite walks, one per component of the ``side`` flood map."""
    side, coloring = _two_color(rotation)
    walks = _trace_faces(rotation)
    infinite = infinite_walks(walks, side)
    entries = sorted(
        (i in infinite, _canonical_boundary(tuple(u for u, _ in walk)))
        for i, walk in enumerate(walks)
    )
    faces = [Face(i, boundary, inf) for i, (inf, boundary) in enumerate(entries)]
    _check_euler(side, edges, faces)
    return PlaneGraph(coords, edges, rotation, faces, coloring)


def build_plane_graph(vertices, edges) -> PlaneGraph:
    """Build a plane bipartite graph from coordinates and undirected edges.

    ``vertices`` is a sequence of ``(id, x, y)``; coordinates may be ints,
    Fractions, floats or decimal strings and must be pairwise distinct.  The
    straight-line drawing is trusted to be non-crossing.
    """
    coords = {}
    for vid, x, y in vertices:
        if vid in coords:
            raise ValueError(f"duplicate vertex id {vid}")
        coords[vid] = (_as_fraction(x), _as_fraction(y))
    if len(set(coords.values())) != len(coords):
        raise ValueError("duplicate coordinates")

    eset = set()
    adjacency = {v: set() for v in coords}
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if u not in coords or v not in coords:
            raise ValueError(f"edge ({u}, {v}) references an unknown vertex")
        e = edge_key(u, v)
        if e in eset:
            raise ValueError(f"duplicate edge {e}")
        eset.add(e)
        adjacency[u].add(v)
        adjacency[v].add(u)

    def largest_area(walks, side):
        # per component the unique walk of maximal signed area is the infinite face
        areas = [_walk_area2(walk, coords) for walk in walks]
        best = {}
        for i, walk in enumerate(walks):
            key = side[walk[0][0]][0]
            if key not in best or areas[i] > areas[best[key]]:
                best[key] = i
        infinite = set(best.values())
        if any(a >= 0 for i, a in enumerate(areas) if i not in infinite):
            raise EmbeddingInconsistent("a finite facial walk is not clockwise")
        return infinite

    return _assemble(coords, eset, _ccw_rotation(coords, adjacency), largest_area)


def from_rotation_system(rotation, infinite_darts) -> PlaneGraph:
    """Advanced builder: explicit rotation system, no coordinates.

    ``rotation`` maps each vertex to its full neighbor tuple in
    counterclockwise order; ``infinite_darts`` designates one directed edge
    on the infinite walk of every connected component.
    """
    rotation = {v: tuple(ns) for v, ns in rotation.items()}
    eset = set()
    for v, ns in rotation.items():
        if len(set(ns)) != len(ns):
            raise ValueError(f"repeated neighbor in rotation at {v}")
        for w in ns:
            if w == v:
                raise ValueError(f"loop at vertex {v}")
            if v not in rotation.get(w, ()):
                raise ValueError(f"rotation not symmetric on ({v}, {w})")
            eset.add(edge_key(v, w))

    targets = set(tuple(d) for d in infinite_darts)
    return _assemble(
        None, eset, rotation,
        lambda walks, side: {i for i, w in enumerate(walks) if targets & set(w)},
    )


def edge_subgraph(g: PlaneGraph, keep_edges) -> PlaneGraph:
    """Plane subgraph on an edge subset, embedded by ``g``'s rotation system.

    Deleting edges keeps every cyclic order, so each facial walk of the
    subgraph bounds a union of faces of ``g``.  The infinite walk of a
    component is the one whose region holds the infinite faces of ``g``,
    found by flooding the faces of ``g`` across the edges not in that
    component.  Vertices not covered by ``keep_edges`` are dropped;
    coordinates, when ``g`` has them, are carried over."""
    keep = {edge_key(u, v) for u, v in keep_edges}
    unknown = keep - g.edges
    if unknown:
        raise ValueError(f"edges not in graph: {sorted(unknown)}")
    used = sorted({v for e in keep for v in e})
    rotation = {
        v: tuple(w for w in g.rotation[v] if edge_key(v, w) in keep) for v in used
    }
    coords = None if g.coords is None else {v: g.coords[v] for v in used}

    def outer_region(walks, side):
        face_of = {d: f.id for f in g.faces for d in f.darts}
        outside = {}  # component root -> faces of g outside that component
        for root in {r for r, _ in side.values()}:
            own = {e for e in keep if side[e[0]][0] == root}
            outside[root] = ck.flood(
                [f.id for f in g.infinite_faces],
                lambda fid: (face_of[v, u] for u, v in g.faces[fid].darts
                             if edge_key(u, v) not in own),
            )
        return {
            i for i, w in enumerate(walks) if face_of[w[0]] in outside[side[w[0][0]][0]]
        }

    return _assemble(coords, keep, rotation, outer_region)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------


def _coord_to_number(value: Fraction):
    if value.denominator == 1:
        return int(value)
    return float(value)


def graph_to_json(g: PlaneGraph) -> str:
    if g.coords is None:
        raise UnsupportedInput("graph built from a raw rotation system has no coordinates")
    obj = {
        "vertices": [
            {"id": v, "x": _coord_to_number(g.coords[v][0]), "y": _coord_to_number(g.coords[v][1])}
            for v in g.vertices
        ],
        "edges": [list(e) for e in sorted(g.edges)],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def graph_from_json(text: str) -> PlaneGraph:
    obj = json.loads(text)
    vertices = [(v["id"], v["x"], v["y"]) for v in obj["vertices"]]
    edges = [tuple(e) for e in obj["edges"]]
    return build_plane_graph(vertices, edges)


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


def _branch_vertices(g: PlaneGraph) -> list:
    return [v for v in g.vertices if g.degree(v) >= 3]


def _has_cut_vertex(g: PlaneGraph) -> bool:
    """Articulation-point test (iterative DFS), per component."""
    visited = {}
    low = {}
    timer = 0
    for root in g.vertices:
        if root in visited:
            continue
        stack = [(root, None, iter(g.rotation[root]))]
        visited[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for w in it:
                if w == parent:
                    continue
                if w in visited:
                    low[v] = min(low[v], visited[w])
                else:
                    visited[w] = low[w] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((w, v, iter(g.rotation[w])))
                    advanced = True
                    break
            if not advanced:
                stack.pop()
                if stack:
                    pv = stack[-1][0]
                    low[pv] = min(low[pv], low[v])
                    if pv != root and low[v] >= visited[pv]:
                        return True
        if root_children > 1:
            return True
    return False


def handles(g: PlaneGraph) -> frozenset:
    """All handles of ``g``, classified exterior/interior.

    Single-edge handles between two branch vertices count.  Components that
    are bare cycles contribute nothing; a graph with no branch vertex at all
    raises :class:`NoHandles`.
    """
    branch = _branch_vertices(g)
    if not branch:
        raise NoHandles("every vertex has degree 2")
    if _has_cut_vertex(g):
        raise UnsupportedInput(
            "handles are only defined for 2-connected components"
        )
    out = set()
    for b in branch:
        for n in g.rotation[b]:
            path = [b, n]
            while g.degree(path[-1]) == 2:
                prev, cur = path[-2], path[-1]
                nxt = [w for w in g.rotation[cur] if w != prev][0]
                path.append(nxt)
            if path[-1] == b:
                raise UnsupportedInput("cycle attached at a single branch vertex")
            first = edge_key(path[0], path[1])
            exterior = first in g.periphery_edges
            for a, c in zip(path, path[1:]):
                if (edge_key(a, c) in g.periphery_edges) != exterior:
                    raise InternalInvariantBroken(
                        "handle mixes peripheral and interior edges"
                    )
            out.add(Handle(tuple(path), "exterior" if exterior else "interior"))
    return frozenset(out)


def facial_handle_decomposition(g: PlaneGraph, face_id: int) -> FacialHandleDecomposition:
    """Split a finite facial cycle into alternating interior/exterior handles.

    Handles are listed clockwise starting with an interior handle; every
    handle path is oriented along the clockwise facial walk and consecutive
    handles meet in exactly one vertex.
    """
    face = g.faces[face_id]
    if face.is_infinite:
        raise ValueError("facial handle decomposition needs a finite face")
    edge_to_handle = g.handle_by_edge
    walk = face.darts
    missing = [d for d in walk if edge_key(*d) not in edge_to_handle]
    if missing:
        raise NoHandles(f"face {face_id} lies on a cycle component")

    runs = []  # (handle, [darts...])
    for d in walk:
        h = edge_to_handle[edge_key(*d)]
        if runs and runs[-1][0] == h:
            runs[-1][1].append(d)
        else:
            runs.append((h, [d]))
    if len(runs) > 1 and runs[0][0] == runs[-1][0]:
        h, darts = runs.pop()
        runs[0] = (h, darts + runs[0][1])

    if len(runs) % 2 != 0:
        raise NotAlternating(f"odd number of handle runs on face {face_id}")
    for (h, darts) in runs:
        if frozenset(edge_key(*d) for d in darts) != h.edges:
            raise InternalInvariantBroken(
                f"handle not fully contained in facial cycle of face {face_id}"
            )
    for (h1, _), (h2, _) in zip(runs, runs[1:] + runs[:1]):
        if h1.kind == h2.kind:
            raise NotAlternating(
                f"consecutive {h1.kind} handles on face {face_id}"
            )

    starts = [i for i, (h, _) in enumerate(runs) if h.kind == "interior"]
    first = min(starts, key=lambda i: runs[i][1][0][0])
    runs = runs[first:] + runs[:first]

    oriented = []
    for h, darts in runs:
        path = tuple([darts[0][0]] + [d[1] for d in darts])
        oriented.append(Handle(path, h.kind))
    return FacialHandleDecomposition(face_id, tuple(oriented))


# ---------------------------------------------------------------------------
# perfect-matching groundwork (shared with the matchings module)
# ---------------------------------------------------------------------------


def enumerate_matching_edge_sets(g: PlaneGraph, cap: int = DEFAULT_MATCHING_CAP) -> list:
    """All perfect matchings as frozensets of edges, in deterministic order.

    Backtracking over vertices in id order, branching on incident edges in
    neighbor-id order; raises :class:`CapExceeded` past ``cap`` matchings.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    order = list(g.vertices)
    if len(order) % 2 == 1:
        return []
    out = []
    matched = set()
    chosen = []

    def rec(i):
        while i < len(order) and order[i] in matched:
            i += 1
        if i == len(order):
            if len(out) >= cap:
                raise CapExceeded(f"more than {cap} perfect matchings")
            out.append(frozenset(chosen))
            return
        v = order[i]
        for w in sorted(g.rotation[v]):
            if w in matched:
                continue
            matched.add(v)
            matched.add(w)
            chosen.append(edge_key(v, w))
            rec(i + 1)
            chosen.pop()
            matched.discard(v)
            matched.discard(w)

    rec(0)
    return out


# ---------------------------------------------------------------------------
# elementary / weakly elementary analysis
# ---------------------------------------------------------------------------


def elementary_analysis(g: PlaneGraph, cap: int = DEFAULT_MATCHING_CAP) -> ElementaryReport:
    """Classify edges as allowed/forbidden and judge (weak) elementarity.

    An edge is allowed when it lies in some perfect matching.  The graph is
    elementary when it is connected and every edge is allowed; it is weakly
    elementary when re-tracing the faces of the allowed subgraph yields no
    finite face that was not already a finite face of ``g``.
    """
    matchings = enumerate_matching_edge_sets(g, cap)
    if not matchings:
        raise NoPerfectMatching("graph has no perfect matching")
    allowed = frozenset().union(*matchings)
    forbidden = g.edges - allowed
    sub = edge_subgraph(g, allowed) if forbidden else g

    return ElementaryReport(
        is_elementary=g.is_connected and not forbidden,
        elementary_components=sub.components,
        is_weakly_elementary=all(
            f.edges in g.face_by_edge_set for f in sub.finite_faces
        ),
        allowed_edges=allowed,
        forbidden_edges=forbidden,
    )


# ---------------------------------------------------------------------------
# peripherally 2-colorable
# ---------------------------------------------------------------------------


def is_peripherally_two_colorable(
    g: PlaneGraph, cap: int = DEFAULT_MATCHING_CAP
) -> PeripheralColorVerdict:
    """Test the defining clauses in order and report the first failure.

    Clauses: more than two vertices; plane elementary bipartite; maximum
    degree 3; every degree-3 vertex on the periphery; degree-3 vertices
    alternate black/white along the clockwise periphery.  ``cap`` bounds
    the perfect-matching enumeration of the elementarity clause.
    """
    if len(g.vertices) <= 2:
        return PeripheralColorVerdict(False, "min-size", len(g.vertices))

    try:
        report = elementary_analysis(g, cap)
    except NoPerfectMatching:
        return PeripheralColorVerdict(False, "elementary", "no perfect matching")
    if not report.is_elementary:
        witness = None if g.is_connected else "disconnected"
        if witness is None:
            witness = sorted(report.forbidden_edges)[0]
        return PeripheralColorVerdict(False, "elementary", witness)

    for v in g.vertices:
        if g.degree(v) > 3:
            return PeripheralColorVerdict(False, "max-degree", v)

    peripheral = set()
    for f in g.infinite_faces:
        peripheral |= set(f.boundary)
    for v in g.vertices:
        if g.degree(v) == 3 and v not in peripheral:
            return PeripheralColorVerdict(False, "branch-on-periphery", v)

    walk = g.periphery_walk()
    branch_cycle = [v for v in walk if g.degree(v) == 3]
    for a, b in zip(branch_cycle, branch_cycle[1:] + branch_cycle[:1]):
        if len(branch_cycle) >= 2 and g.color(a) == g.color(b):
            return PeripheralColorVerdict(False, "branch-alternation", (a, b))

    return PeripheralColorVerdict(True)


def swap_colors(g: PlaneGraph) -> PlaneGraph:
    """The same graph with the two color classes exchanged."""
    flipped = {v: (BLACK if c == WHITE else WHITE) for v, c in g.coloring.items()}
    return g._with_coloring(flipped)


def canonical_coloring(g: PlaneGraph) -> dict:
    """The anchor coloring: the smallest vertex id of every component is white."""
    return _two_color(g.rotation)[1]

