"""Definitional oracles, kept for the tests only.

These are the brute-force versions of the recognizers in
``rescube.cube_kit``: components and bipartiteness from union-find instead
of a traversal, Theta from the four-point inequality on every pair of
edges, partial cubes from string labels checked pair by pair against the
distance table, medianness from the intersection of the three intervals of
every vertex triple, daisy cubes from string orientation flips (every root,
or every one of the 2^idim masks), and convexity from intervals.  The
library's flood fill, bit-vector core and label certificate must agree
with them; ``test_cube_oracles.py`` checks that they do.  The graph
expansion, the Theta-class side sets and the median split check build
graphs and tables that no library path needs; they live here too, read
``mg.dist`` directly, and serve as references for the step checks of
``rescube.decomposition``.

The cycle-space section enumerates every cycle of a plane graph as a union
of finite faces (2^F of them, so at most ``MAX_FACES_FOR_CYCLES`` faces per
component) and finds the lattice extremes by scanning all of them for
alternating cycles: the reference for the resonant-face rule of
``rescube.matchings.extremal_matchings``.
"""

from dataclasses import dataclass
from itertools import combinations

from rescube.cube_kit import (
    DaisyVerdict,
    MetricGraph,
    PartialCubeVerdict,
    ThetaClasses,
    operator_o,
)
from rescube.errors import CapExceeded, RescubeError
from rescube.matchings import IMPROPER, PROPER, alternation_kind

SWEEP_IDIM_CAP = 20
MAX_FACES_FOR_CYCLES = 16


class NotAnExpansion(RescubeError):
    """The two vertex sets do not describe an expansion of the base graph."""


def d(mg: MetricGraph, u, v) -> int:
    return mg.dist[u][v]


def interval(mg: MetricGraph, u, v) -> frozenset:
    """The vertices on shortest u-v paths (u and v in one component)."""
    du, dv = mg.dist[u], mg.dist[v]
    return frozenset(w for w in du if du[w] + dv[w] == du[v])


def induced(mg: MetricGraph, vertex_subset) -> MetricGraph:
    sub = set(vertex_subset)
    return MetricGraph(sorted(sub), [(u, v) for u, v in mg.edges if u in sub and v in sub])


def label_leq(u: str, v: str) -> bool:
    """Coordinatewise order on equal-length bit strings."""
    return all(a <= b for a, b in zip(u, v))


def _union_find(items, pairs) -> dict:
    """Each item mapped to the representative of its class under the pairs."""
    parent = {x: x for x in items}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {x: find(x) for x in items}


def components(mg: MetricGraph) -> tuple:
    """Vertex sets of the components, by smallest vertex."""
    groups = {}
    for v, rep in _union_find(mg.vertices, mg.edges).items():
        groups.setdefault(rep, set()).add(v)
    return tuple(sorted((frozenset(c) for c in groups.values()), key=min))


def is_connected(mg: MetricGraph) -> bool:
    return len(components(mg)) <= 1


def is_bipartite(mg: MetricGraph) -> bool:
    """No vertex shares a class with its own copy in the doubled graph,
    where every edge joins each side of one end to the other side of the
    other end."""
    doubled = [(v, side) for v in mg.vertices for side in (0, 1)]
    pairs = [((u, 0), (v, 1)) for u, v in mg.edges]
    pairs += [((u, 1), (v, 0)) for u, v in mg.edges]
    rep = _union_find(doubled, pairs)
    return all(rep[(v, 0)] != rep[(v, 1)] for v in mg.vertices)


def theta_related(mg: MetricGraph, e1, e2) -> bool:
    """Four-point test: d(x1,y1) + d(x2,y2) != d(x1,y2) + d(x2,y1)."""
    (x1, x2), (y1, y2) = e1, e2
    return d(mg, x1, y1) + d(mg, x2, y2) != d(mg, x1, y2) + d(mg, x2, y1)


def theta_classes(mg: MetricGraph) -> ThetaClasses:
    """Transitive closure of Theta over all edge pairs."""
    edges = sorted(mg.edges)
    parent = {e: e for e in edges}

    def find(e):
        while parent[e] != e:
            parent[e] = parent[parent[e]]
            e = parent[e]
        return e

    related = {}
    for e1, e2 in combinations(edges, 2):
        r = theta_related(mg, e1, e2)
        related[(e1, e2)] = r
        if r:
            parent[find(e1)] = find(e2)

    groups = {}
    for e in edges:
        groups.setdefault(find(e), []).append(e)
    classes = tuple(
        sorted((frozenset(g) for g in groups.values()), key=lambda c: sorted(c))
    )
    raw = all(
        related[(e1, e2)]
        for cls in classes
        for e1, e2 in combinations(sorted(cls), 2)
    )
    return ThetaClasses(classes, raw)


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def is_isometric_labelling(mg: MetricGraph, labels: dict) -> bool:
    """Hamming distance is graph distance for every pair; a pair in two
    components has no distance and fails."""
    return all(
        hamming(labels[u], labels[v]) == mg.dist[u].get(v)
        for u, v in combinations(mg.vertices, 2)
    )


def is_partial_cube(mg: MetricGraph) -> PartialCubeVerdict:
    """One string bit per Theta class, the first vertex on the zero side."""
    if not mg.vertices:
        return PartialCubeVerdict(False, reason="empty graph")
    if not is_connected(mg):
        return PartialCubeVerdict(False, reason="not connected")
    if not is_bipartite(mg):
        return PartialCubeVerdict(False, reason="not bipartite")
    classes = theta_classes(mg)
    if not classes.raw_transitive:
        return PartialCubeVerdict(
            False, theta_raw_transitive=False, reason="Theta not transitive"
        )
    root = mg.vertices[0]
    bits = {v: [] for v in mg.vertices}
    for cls in classes.classes:
        x, y = sorted(cls)[0]
        if d(mg, root, x) > d(mg, root, y):
            x, y = y, x
        for v in mg.vertices:
            dx, dy = d(mg, v, x), d(mg, v, y)
            if dx == dy:
                return PartialCubeVerdict(
                    False, theta_raw_transitive=True, reason="tied side distances"
                )
            bits[v].append("0" if dx < dy else "1")
    labelling = {v: "".join(b) for v, b in bits.items()}
    if not is_isometric_labelling(mg, labelling):
        return PartialCubeVerdict(
            False, theta_raw_transitive=True, reason="labelling not isometric"
        )
    return PartialCubeVerdict(
        True, labelling=labelling, idim=len(classes.classes), theta_raw_transitive=True
    )


def is_median(mg: MetricGraph) -> bool:
    """Every vertex triple has exactly one vertex in all three intervals."""
    if not is_connected(mg):
        return False
    return all(
        len(interval(mg, u, v) & interval(mg, v, w) & interval(mg, u, w)) == 1
        for u, v, w in combinations(mg.vertices, 3)
    )


def is_downward_closed(label_set) -> bool:
    """Every lower cover of every member is a member."""
    labs = set(label_set)
    return all(
        lab[:i] + "0" + lab[i + 1 :] in labs
        for lab in labs
        for i, c in enumerate(lab)
        if c == "1"
    )


def is_daisy_cube(mg: MetricGraph, method: str) -> DaisyVerdict:
    """Orientation search over string labels.

    ``'roots'`` flips the labels so that each vertex in turn is the
    all-zeros root, as the library does; ``'exhaustive'`` sweeps all
    2^idim orientation masks, an independent check capped at idim
    ``SWEEP_IDIM_CAP``."""
    pc = is_partial_cube(mg)
    if not pc:
        return DaisyVerdict(False, reason=f"not a partial cube ({pc.reason})")
    base = pc.labelling
    n = pc.idim

    def flipped(mask):
        return {
            v: "".join(
                ("1" if c == "0" else "0") if mask >> i & 1 else c
                for i, c in enumerate(lab)
            )
            for v, lab in base.items()
        }

    if method == "roots":
        masks = [sum(1 << i for i, c in enumerate(base[v]) if c == "1") for v in mg.vertices]
        failure = "no root works"
    elif method == "exhaustive":
        if n > SWEEP_IDIM_CAP:
            raise CapExceeded(f"orientation sweep over idim {n} exceeds the cap")
        masks = range(1 << n)
        failure = "no orientation works"
    else:
        raise ValueError(f"unknown method {method!r}")
    for mask in masks:
        labelling = flipped(mask)
        if is_downward_closed(labelling.values()):
            return DaisyVerdict(True, labelling, n)
    return DaisyVerdict(False, idim=n, reason=failure)


def is_convex_subset(mg: MetricGraph, subset) -> bool:
    """Every interval between two members of one component lies inside."""
    members = frozenset(subset)
    return all(
        interval(mg, u, v) <= members
        for u, v in combinations(members, 2)
        if v in mg.dist[u]
    )


# ---------------------------------------------------------------------------
# class splits, expansions and the median split check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassSplit:
    """The side sets of one Theta class for a representative edge (x, y).

    ``w_x`` holds the vertices strictly closer to x, ``u_x`` those of them
    with a neighbor across the cut; a side is peripheral when u = w."""

    edge: tuple
    w_x: frozenset
    w_y: frozenset
    u_x: frozenset
    u_y: frozenset

    @property
    def x_peripheral(self) -> bool:
        return self.w_x == self.u_x

    @property
    def y_peripheral(self) -> bool:
        return self.w_y == self.u_y

    @property
    def peripheral(self) -> bool:
        return self.x_peripheral or self.y_peripheral


def split_class(mg: MetricGraph, class_edges) -> ClassSplit:
    """Compute W/U side sets for the smallest edge of the class."""
    x, y = min(tuple(sorted(e)) for e in class_edges)
    w_x = frozenset(v for v in mg.vertices if d(mg, v, x) < d(mg, v, y))
    w_y = frozenset(v for v in mg.vertices if d(mg, v, y) < d(mg, v, x))
    u_x = frozenset(v for v in w_x if mg.adjacency[v] & w_y)
    u_y = frozenset(v for v in w_y if mg.adjacency[v] & w_x)
    return ClassSplit((x, y), w_x, w_y, u_x, u_y)


@dataclass(frozen=True)
class ExpansionResult:
    """An expansion graph plus the flags of the variant actually performed.

    Vertices of the result are ``(0, v)`` for the first copy and ``(1, v)``
    for the second; shared vertices appear in both copies joined by an edge.
    """

    graph: MetricGraph
    convex: bool
    peripheral: bool
    le: bool


def _is_isometric_subset(mg: MetricGraph, subset) -> bool:
    sub = induced(mg, subset)
    if not is_connected(sub):
        return False
    return all(
        d(sub, u, v) == d(mg, u, v) for u, v in combinations(sub.vertices, 2)
    )


def expand(mg: MetricGraph, v1, v2) -> ExpansionResult:
    """Expansion of the graph along two isometric covering subsets.

    ``v1`` and ``v2`` must cover the vertex set, intersect, both induce
    isometric subgraphs, and admit no edge between their private parts.  The
    result takes disjoint copies of both induced subgraphs and joins the two
    copies of every shared vertex.
    """
    v1, v2 = set(v1), set(v2)
    verts = set(mg.vertices)
    if v1 | v2 != verts:
        raise NotAnExpansion("the two sets do not cover the vertex set")
    shared = v1 & v2
    if not shared:
        raise NotAnExpansion("the two sets do not intersect")
    for u, v in mg.edges:
        if (u in v1 - v2 and v in v2 - v1) or (u in v2 - v1 and v in v1 - v2):
            raise NotAnExpansion(f"edge ({u!r}, {v!r}) joins the private parts")
    if not _is_isometric_subset(mg, v1) or not _is_isometric_subset(mg, v2):
        raise NotAnExpansion("a side is not isometric in the base graph")

    vertices = [(0, v) for v in mg.vertices if v in v1]
    vertices += [(1, v) for v in mg.vertices if v in v2]
    edges = []
    for u, v in mg.edges:
        if u in v1 and v in v1:
            edges.append(((0, u), (0, v)))
        if u in v2 and v in v2:
            edges.append(((1, u), (1, v)))
    edges += [((0, v), (1, v)) for v in shared]
    graph = MetricGraph(vertices, edges)

    convex = is_convex_subset(mg, shared)
    peripheral = v1 == verts or v2 == verts
    le = False
    if peripheral and mg.labels is not None:
        le = operator_o(mg.labels, shared) == frozenset(shared)
    return ExpansionResult(graph, convex=convex, peripheral=peripheral, le=le)


@dataclass(frozen=True)
class MedianSplitReport:
    matching_isomorphism: bool
    sides_convex: bool
    sides_median: bool

    @property
    def ok(self) -> bool:
        return self.matching_isomorphism and self.sides_convex and self.sides_median


def check_median_split(mg: MetricGraph, class_edges, _memo=None) -> MedianSplitReport:
    """Instance check of the three median-characterization clauses for one class."""
    memo = _memo if _memo is not None else {}
    split = split_class(mg, class_edges)
    cls = {tuple(sorted(e)) for e in class_edges}

    pairing = {}
    ok_matching = True
    for u, v in cls:
        a, b = (u, v) if u in split.w_x else (v, u)
        if a in pairing or b in pairing or a not in split.u_x or b not in split.u_y:
            ok_matching = False
            break
        pairing[a] = b
        pairing[b] = a
    if ok_matching:
        ok_matching = set(pairing) == set(split.u_x) | set(split.u_y)
    if ok_matching:
        ux = induced(mg, split.u_x)
        for a, b in combinations(ux.vertices, 2):
            adjacent_here = b in ux.adjacency[a]
            adjacent_there = pairing[b] in mg.adjacency[pairing[a]]
            if adjacent_here != adjacent_there:
                ok_matching = False
                break

    def convex_inside(u_set, w_set):
        return is_convex_subset(induced(mg, w_set), u_set)

    sides_convex = convex_inside(split.u_x, split.w_x) and convex_inside(
        split.u_y, split.w_y
    )

    def median_side(w_set):
        key = frozenset(w_set)
        if key not in memo:
            memo[key] = is_median(induced(mg, w_set))
        return memo[key]

    sides_median = median_side(split.w_x) and median_side(split.w_y)
    return MedianSplitReport(ok_matching, sides_convex, sides_median)


# ---------------------------------------------------------------------------
# cycle space
# ---------------------------------------------------------------------------


def all_cycles(g) -> tuple:
    """Every cycle of the plane graph as a clockwise-oriented closed walk.

    Cycles are enumerated as boundaries of nonempty unions of finite faces
    (the finite faces are a basis of the cycle space per component); the
    orientation is inherited from the clockwise facial walks, so each cycle
    comes out clockwise.  2^F unions per component of F faces, so more
    than ``MAX_FACES_FOR_CYCLES`` faces raise :class:`CapExceeded`.
    """
    cycles = []
    for comp in g.components:
        faces = [f for f in g.finite_faces if f.boundary[0] in comp]
        if len(faces) > MAX_FACES_FOR_CYCLES:
            raise CapExceeded(
                f"cycle enumeration over {len(faces)} faces exceeds the desk-scale guard"
            )
        for r in range(1, len(faces) + 1):
            for subset in combinations(faces, r):
                darts = set()
                for f in subset:
                    for d in f.darts:
                        rev = (d[1], d[0])
                        if rev in darts:
                            darts.discard(rev)
                        else:
                            darts.add(d)
                walk = _assemble_single_cycle(darts)
                if walk is not None:
                    cycles.append(walk)
    return tuple(cycles)


def _assemble_single_cycle(darts):
    if not darts:
        return None
    succ = {}
    for u, v in darts:
        if u in succ:
            return None
        succ[u] = v
    heads = set(succ.values())
    if heads != set(succ):
        return None
    start = min(succ)
    walk = [start]
    v = succ[start]
    while v != start:
        walk.append(v)
        v = succ[v]
        if len(walk) > len(darts):
            return None
    if len(walk) != len(darts):
        return None
    walk.append(start)
    return tuple(walk)


def has_alternating_cycle(g, matching, kind: str) -> bool:
    """Scan every cycle of the graph for a proper or improper alternating one."""
    return any(alternation_kind(g, matching, walk) == kind for walk in all_cycles(g))


def cycle_scan_extremes(g, family) -> tuple:
    """The lattice extremes by definition: the ids of the matchings with no
    proper alternating cycle, and of those with no improper one."""
    cycles = all_cycles(g)
    bottoms, tops = [], []
    for m in family:
        kinds = {alternation_kind(g, m, walk) for walk in cycles}
        if PROPER not in kinds:
            bottoms.append(m.id)
        if IMPROPER not in kinds:
            tops.append(m.id)
    return bottoms, tops
