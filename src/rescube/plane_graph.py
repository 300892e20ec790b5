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


def _as_rational(value):
    """An exact rational.  An int stays an int: it compares and hashes equal
    to its Fraction and keeps the orientation arithmetic in ints.  Other
    values, a bool included, become a Fraction."""
    if isinstance(value, Fraction) or type(value) is int:
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        # round-trip through the printed decimal so 0.5 stays 1/2
        return Fraction(str(value))
    if isinstance(value, str):
        return Fraction(value)
    raise ValueError(f"cannot interpret coordinate {value!r} as a rational")


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

    @cached_property
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
        self.coords = coords  # dict id -> (x, y) as int or Fraction, or None
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
    def _elementary(self) -> ElementaryReport:
        """:func:`elementary_analysis` of this graph, computed on first use;
        a raised :class:`NoPerfectMatching` is not cached."""
        return _analyse_elementary(self)

    @cached_property
    def _facial_handles(self) -> dict:
        """face id -> its facial handle decomposition, filled on first use.

        Creating it checks that the graph has handles: it raises
        :class:`NoHandles` when no vertex has degree >= 3, and
        :class:`UnsupportedInput` when a facial walk passes a vertex twice,
        which happens exactly at a cut vertex.  A raise is not cached, so it
        recurs on every access."""
        if all(len(ns) < 3 for ns in self.rotation.values()):
            raise NoHandles("every vertex has degree 2")
        if any(len(set(f.boundary)) != len(f.boundary) for f in self.faces):
            raise UnsupportedInput("handles are only defined for 2-connected components")
        return {}

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


def _walk_area2(walk, coords):
    """Twice the signed area of the closed walk (positive = counterclockwise)."""
    total = 0
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
    ids must be hashable and comparable with each other, since edges are
    keyed by ordered pairs.  The straight-line drawing is trusted to be
    non-crossing.  Raises ValueError on a malformed vertex or edge.
    """
    coords, eset = {}, set()
    try:
        for vid, x, y in vertices:
            if vid in coords:
                raise ValueError(f"duplicate vertex id {vid}")
            coords[vid] = (_as_rational(x), _as_rational(y))
        sorted(coords)  # edge keys order the ids
        if len(set(coords.values())) != len(coords):
            raise ValueError("duplicate coordinates")
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
    except TypeError as exc:
        raise ValueError(f"malformed vertex or edge: {exc}") from None

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


def _coord_to_number(value):
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
    """The graph of :func:`graph_to_json`'s format.  Raises ValueError (or
    its subclass ``json.JSONDecodeError``) when the text is not of that
    shape, naming a missing top-level field, a vertex that lacks a field (by
    its index, with the fields it lacks) or has a boolean id, or an edge
    that is not a pair or has a boolean end (by its index)."""
    obj = json.loads(text)
    missing = [k for k in ("vertices", "edges") if not isinstance(obj, dict) or k not in obj]
    if missing:
        shape = '{"vertices": [{"id", "x", "y"}, ...], "edges": [[u, v], ...]}'
        names = ", ".join(map(repr, missing))
        raise ValueError(f"graph lacks {names}: expected an object {shape}")
    try:
        vertices = []
        for i, v in enumerate(obj["vertices"]):
            missing = [k for k in ("id", "x", "y") if k not in v]
            if missing:
                raise ValueError(f"vertex at index {i} lacks {', '.join(map(repr, missing))}")
            if isinstance(v["id"], bool):  # Python reads true and false as 1 and 0
                raise ValueError(f"vertex at index {i} has a boolean id: {json.dumps(v['id'])}")
            vertices.append((v["id"], v["x"], v["y"]))
        for i, e in enumerate(obj["edges"]):
            if not isinstance(e, list) or len(e) != 2:
                raise ValueError(f"edge at index {i} is not a pair of vertex ids: {e!r}")
            if any(isinstance(u, bool) for u in e):
                raise ValueError(f"edge at index {i} has a boolean end: {json.dumps(e)}")
        edges = [tuple(e) for e in obj["edges"]]
    except TypeError as exc:
        raise ValueError(
            f"expected a list of vertices with id, x and y, and a list of edges: {exc}"
        ) from None
    return build_plane_graph(vertices, edges)


# ---------------------------------------------------------------------------
# handles
# ---------------------------------------------------------------------------


def _handle_runs(face: Face, degree, periphery) -> list:
    """The handles on one facial walk: its runs between consecutive vertices
    of degree >= 3 (``degree(v)``), each oriented along the walk, from the
    first such vertex of the boundary; none when the walk has no such
    vertex.  A run's inner vertices have degree 2, so both its sides are
    the same two faces and either all or none of its edges lie in
    ``periphery``."""
    b = face.boundary
    branch = [i for i, v in enumerate(b) if degree(v) >= 3]
    if not branch:
        return []
    walk = b[branch[0]:] + b[:branch[0] + 1]  # closed, from the first branch vertex
    ends = [i - branch[0] for i in branch] + [len(b)]
    runs = []
    for i, j in zip(ends, ends[1:]):
        path = walk[i:j + 1]
        peripheral = {edge_key(a, c) in periphery for a, c in zip(path, path[1:])}
        if len(peripheral) > 1:
            raise InternalInvariantBroken("handle mixes peripheral and interior edges")
        runs.append(Handle(path, "exterior" if peripheral.pop() else "interior"))
    return runs


def handles(g: PlaneGraph) -> frozenset:
    """All handles of ``g``, classified exterior/interior: the runs of the
    finite facial walks between vertices of degree >= 3.

    Single-edge handles between two branch vertices count.  Components that
    are bare cycles contribute nothing; a graph with no branch vertex at all
    raises :class:`NoHandles`, and one with a cut vertex
    :class:`UnsupportedInput`.  In a 2-connected component every edge lies
    on a finite face, so every handle is such a run.
    """
    g._facial_handles  # the graph-wide check: raises when g has no handles
    periphery = g.periphery_edges
    return frozenset(h for f in g.finite_faces for h in _handle_runs(f, g.degree, periphery))


def facial_handle_decomposition(g: PlaneGraph, face_id: int) -> FacialHandleDecomposition:
    """Split a finite facial cycle into alternating handles (:func:`_face_handles`),
    once per graph; a face that raises raises on every call."""
    face = g.faces[face_id]
    if face.is_infinite:
        raise ValueError("facial handle decomposition needs a finite face")
    memo = g._facial_handles
    if face_id not in memo:
        memo[face_id] = _face_handles(face, g.degree, g.periphery_edges)
    return memo[face_id]


def _face_handles(face: Face, degree, periphery) -> FacialHandleDecomposition:
    """The handles of a face (:func:`_handle_runs` by these degrees and
    periphery), listed clockwise from the interior handle whose first vertex
    is smallest; consecutive handles meet in exactly one vertex.  Raises
    :class:`NoHandles` when there is none, and :class:`NotAlternating` when
    two consecutive handles are of one kind."""
    runs = _handle_runs(face, degree, periphery)
    if not runs:
        raise NoHandles(f"face {face.id} lies on a cycle component")
    if len(runs) % 2 != 0:
        raise NotAlternating(f"odd number of handle runs on face {face.id}")
    for h1, h2 in zip(runs, runs[1:] + runs[:1]):
        if h1.kind == h2.kind:
            raise NotAlternating(f"consecutive {h1.kind} handles on face {face.id}")
    starts = [i for i, h in enumerate(runs) if h.kind == "interior"]
    first = min(starts, key=lambda i: runs[i].path[0])
    return FacialHandleDecomposition(face.id, tuple(runs[first:] + runs[:first]))


# ---------------------------------------------------------------------------
# perfect-matching groundwork (shared with the matchings module)
# ---------------------------------------------------------------------------


def enumerate_matching_columns(vertices, neighbours, cap: int = DEFAULT_MATCHING_CAP) -> tuple:
    """All perfect matchings of the graph on ``vertices`` (in id order) whose
    neighbours are ``neighbours(v)``, as their count and per-edge columns.

    Backtracking over vertices in id order, branching on incident edges in
    neighbor-id order; the k-th leaf reached is matching k.  The columns map
    each edge to an int whose bit k is set when matching k holds the edge;
    edges that no matching holds are absent.  No matching is built as a set:
    the search numbers its leaves in order and finishes a subtree before it
    moves on, so the leaves below the call that chose an edge are one id
    interval [start, count), and a matching holds the edge exactly when its
    root-to-leaf path chose it, so that interval is OR-ed into the edge's
    column when the call returns.  Raises :class:`CapExceeded` past ``cap``
    matchings; a graph of odd order has none, ``(0, {})``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    n = len(vertices)
    if n % 2 == 1:
        return 0, {}
    pos = {v: i for i, v in enumerate(vertices)}
    options = [[(pos[w], edge_key(v, w)) for w in sorted(neighbours(v))] for v in vertices]
    matched = bytearray(n + 1)  # the 0 at index n stops the skip below
    columns = {}
    count = 0

    def rec(i):
        nonlocal count
        while matched[i]:
            i += 1
        if i == n:
            if count >= cap:
                raise CapExceeded(f"more than {cap} perfect matchings")
            count += 1
            return
        matched[i] = 1
        for j, e in options[i]:
            if matched[j]:
                continue
            matched[j] = 1
            start = count
            rec(i + 1)
            matched[j] = 0
            if count > start:
                columns[e] = columns.get(e, 0) | ((1 << count) - (1 << start))
        matched[i] = 0

    rec(0)
    return count, columns


# ---------------------------------------------------------------------------
# elementary / weakly elementary analysis
# ---------------------------------------------------------------------------


def _perfect_matching(vertices, neighbours, coloring) -> dict:
    """One perfect matching as a two-way mate map, grown by augmenting paths
    from the white vertices in the given order.  Raises
    :class:`NoPerfectMatching` when the colour classes differ in size or a
    white vertex has no augmenting path, since it then stays unmatched in
    every maximum matching."""
    whites = [v for v in vertices if coloring[v] == WHITE]
    if 2 * len(whites) != len(vertices):
        raise NoPerfectMatching("graph has no perfect matching")
    mate = {}
    for root in whites:
        reached_from = {}  # black vertex -> the white vertex that reached it
        stack = [(root, iter(neighbours(root)))]  # alternating path so far
        free = None
        while stack and free is None:
            w, it = stack[-1]
            for b in it:
                if b not in reached_from:
                    reached_from[b] = w
                    if b in mate:
                        stack.append((mate[b], iter(neighbours(mate[b]))))
                    else:
                        free = b
                    break
            else:
                stack.pop()
        if free is None:
            raise NoPerfectMatching("graph has no perfect matching")
        while free is not None:
            w = reached_from[free]
            w_was = mate.get(w)
            mate[free], mate[w] = w, free
            free = w_was
    return mate


def _strong_components(vertices, successors) -> dict:
    """Vertex -> the root of its strongly connected component (iterative
    Tarjan; a vertex visited but not yet assigned is on the path stack)."""
    order = {}
    low = {}
    comp = {}
    path = []
    for root in vertices:
        if root in order:
            continue
        order[root] = low[root] = len(order)
        path.append(root)
        work = [(root, iter(successors(root)))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in order:
                    order[w] = low[w] = len(order)
                    path.append(w)
                    work.append((w, iter(successors(w))))
                    break
                if w not in comp:
                    low[v] = min(low[v], order[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == order[v]:
                    while True:
                        w = path.pop()
                        comp[w] = v
                        if w == v:
                            break
    return comp


def elementary_analysis(g: PlaneGraph) -> ElementaryReport:
    """Classify edges as allowed/forbidden and judge (weak) elementarity.

    An edge is allowed when it lies in some perfect matching.  The graph is
    elementary when it is connected and every edge is allowed; it is weakly
    elementary when re-tracing the faces of the allowed subgraph yields no
    finite face that was not already a finite face of ``g``.

    One perfect matching decides every edge (:func:`elementary_verdict`, which
    the decomposition's peel runs on its candidate reductions too).  No
    perfect matching raises :class:`NoPerfectMatching`.

    The report is memoised on the graph, so the commands share one verdict
    per graph.
    """
    return g._elementary


def elementary_verdict(vertices, neighbours, coloring) -> tuple:
    """Whether the bipartite graph on ``vertices`` (``neighbours(v)`` the
    neighbours of v, properly 2-coloured by ``coloring``) is elementary, and
    a test whether an edge ``(u, v)`` is allowed (in some perfect matching).

    One perfect matching M decides both (Dulmage-Mendelsohn; Lovasz &
    Plummer, *Matching Theory*, ch. 4).  In the digraph on the white
    vertices where w points to the mate of each other neighbour, an edge
    not in M is allowed exactly when it closes an M-alternating cycle: when
    its white end and its black end's mate are strongly connected.  The
    graph is elementary (connected, every edge allowed) exactly when that
    digraph is strongly connected, since its arcs are the edges not in M
    and each black vertex is a mate.  Raises :class:`NoPerfectMatching`
    when there is no perfect matching."""
    mate = _perfect_matching(vertices, neighbours, coloring)
    whites = [v for v in vertices if coloring[v] == WHITE]
    comp = _strong_components(
        whites, lambda w: (mate[b] for b in neighbours(w) if b != mate[w])
    )

    def allowed(u, v) -> bool:
        w, b = (u, v) if coloring[u] == WHITE else (v, u)
        return mate[w] == b or comp[w] == comp[mate[b]]

    return len(set(comp.values())) == 1, allowed


def _analyse_elementary(g: PlaneGraph) -> ElementaryReport:
    elementary, allowed = elementary_verdict(g.vertices, g.rotation.__getitem__, g.coloring)
    allowed_edges = frozenset(e for e in g.edges if allowed(*e))
    forbidden = g.edges - allowed_edges
    sub = edge_subgraph(g, allowed_edges) if forbidden else g

    return ElementaryReport(
        is_elementary=elementary,
        elementary_components=sub.components,
        is_weakly_elementary=all(
            f.edges in g.face_by_edge_set for f in sub.finite_faces
        ),
        allowed_edges=allowed_edges,
        forbidden_edges=forbidden,
    )


# ---------------------------------------------------------------------------
# peripherally 2-colorable
# ---------------------------------------------------------------------------


def is_peripherally_two_colorable(g: PlaneGraph) -> PeripheralColorVerdict:
    """Test the defining clauses in order and report the first failure.

    Clauses: more than two vertices; plane elementary bipartite; maximum
    degree 3; every degree-3 vertex on the periphery; degree-3 vertices
    alternate black/white along the clockwise periphery.
    """
    if len(g.vertices) <= 2:
        return PeripheralColorVerdict(False, "min-size", len(g.vertices))

    try:
        report = elementary_analysis(g)
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

