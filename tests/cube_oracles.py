"""Definitional oracles, kept for the tests only.

These are the brute-force versions of the recognizers in
``rescube.cube_kit``: the all-pairs distance table (one breadth-first row
per vertex), components and bipartiteness from union-find instead of a
traversal, Theta from the four-point inequality on every pair of edges and
from the distance differences of each edge's ends (on any graph, with the
flag whether Theta is transitive), partial cubes from string labels
checked pair by pair against the distance table, medianness from the
intersection of the three intervals of every vertex triple, daisy cubes
from string orientation flips (every root, or every one of the 2^idim
masks), convexity from intervals, and the downward-closure operator o.  The oracles reason on bit strings
and take and return the library's ``int`` labels: ``bits`` and ``text``
convert at their boundary, character p - 1 being bit p - 1.  The
library's flood fill, BFS-pair embedding, bit-vector core and label
certificate must agree with them; ``test_cube_oracles.py`` checks that
they do.  Convexity read edge by edge from isometric labels sits with
them: the reference for a decomposition step's inner side, which
``rescube.decomposition`` reads off the face pairs.  The graph expansion,
the Theta-class side sets and the median split check build graphs and
tables that no library path needs; they live here too, read the distance
table directly, and serve as references for the step checks of
``rescube.decomposition``.

The cycle-space section enumerates every cycle of a plane graph as a union
of finite faces (2^F of them, so at most ``MAX_FACES_FOR_CYCLES`` faces per
component) and finds the lattice extremes by scanning all of them for
alternating cycles: the reference for the resonant-face rule of
``rescube.matchings.extremal_matchings``.

The elementarity section enumerates the perfect matchings as edge sets,
one frozenset per matching: the reference for the column enumeration of
``rescube.plane_graph.enumerate_matching_columns``.  It also holds the
edge-set view of a family (:func:`matchings`, :func:`index`), the columns
transposed, which every oracle below reads one matching at a time, and the
composed labels of a weakly elementary graph by a second enumeration per
elementary component: the reference for
``rescube.coding.composed_labels``.  It keys a resonance graph by content
(matchings as edge sets, faces as boundary edge sets) and builds the
Cartesian product of the components' resonance graphs the same way: the
reference for ``rescube.resonance.build_resonance`` on a weakly elementary
graph, whose resonance graph is that product.  It decides
elementarity from every perfect matching: the reference for the
single-matching analysis of ``rescube.plane_graph.elementary_analysis``.

The handle section selects matching subsets by a small grammar of handle
predicates and checks the paper's set equalities between them: the
reference for the face conditions of ``rescube.decomposition``.  It splits
the resonance graph by a face with the components of what the face's edges
leave found by union-find: the reference for the split that
``rescube.decomposition.split_by_face`` reads from the Theta-class sides
of the partial-cube embedding.  It walks every handle from every vertex of
degree >= 3: the reference for the facial-walk runs of
``rescube.plane_graph.handles`` and ``facial_handle_decomposition``.  It
also finds cut vertices by deleting each vertex in turn: the reference for
the facial-walk test of ``rescube.plane_graph.handles``.

The per-matching section holds the single-matching predicates (resonance
of a face, alternation of a walk, the end-edge state of an odd handle) and
reads every face condition one matching at a time through them: the
reference for the per-edge column reads of ``rescube.matchings`` and
``rescube.coding``, and, by a reference matching, for the even cycle's
daisy bit.

The step section checks a decomposition step with the restriction, lift
and twist maps looked up matching by matching as edge sets, its ear and
inner path assembled from edge sets, its labels read matching by matching,
and o-closure by the downward-closure operator (:func:`operator_o`): the
reference for the packed-column step check of ``rescube.decomposition``,
which reads the ear and inner path as arcs of the face's walk, the labels
as daisy columns, and o-closure as a down-set test.

The decomposition sections validate a face order ear by ear, each new
face's edges checked as an odd path attached at its ends and each prefix
embedded and analysed: the reference for the one reducible-step rule that
``rescube.decomposition.rfd_from_face_order`` and ``auto_rfd`` share.
They also peel a graph with every candidate reduction embedded and
analysed, as a full plane graph: the reference for the peel of
``auto_rfd`` and ``find_reducible_faces``, which reads the reductions off
the graph's own faces.
"""

from dataclasses import dataclass, replace
from itertools import combinations, product
from weakref import WeakKeyDictionary

from rescube.coding import daisy_labelling, fdl_labelling
from rescube.cube_kit import (
    DaisyVerdict,
    MetricGraph,
    PartialCubeVerdict,
    ThetaClasses,
)
from rescube.decomposition import (
    RfdSequence,
    _rest,
    _sequence,
    auto_rfd,
)
from rescube.errors import (
    CapExceeded,
    InternalInvariantBroken,
    NoHandles,
    NoPerfectMatching,
    NotReducibleAtStep,
    PeelingStuck,
    RescubeError,
    UnsupportedInput,
)
from rescube.matchings import enumerate_matchings
from rescube.plane_graph import (
    BLACK,
    DEFAULT_MATCHING_CAP,
    WHITE,
    ElementaryReport,
    Handle,
    canonical_coloring,
    edge_key,
    edge_subgraph,
    elementary_analysis,
    facial_handle_decomposition,
)

SWEEP_IDIM_CAP = 20
MAX_FACES_FOR_CYCLES = 16

CONTAINS_END_EDGES = "contains_end_edges"
AVOIDS_END_EDGES = "avoids_end_edges"

PROPER = "proper"
IMPROPER = "improper"
NOT_ALTERNATING = "not_alternating"


class NotAnExpansion(RescubeError):
    """The two vertex sets do not describe an expansion of the base graph."""


_TABLES = WeakKeyDictionary()


def dist(mg: MetricGraph) -> dict:
    """The all-pairs distance table, one breadth-first row per vertex
    (reachable vertices only), built once per graph."""
    table = _TABLES.get(mg)
    if table is None:
        table = _TABLES[mg] = {}
        for source in mg.vertices:
            row = {source: 0}
            frontier = [source]
            while frontier:
                reached = []
                for v in frontier:
                    for w in mg.adjacency[v]:
                        if w not in row:
                            row[w] = row[v] + 1
                            reached.append(w)
                frontier = reached
            table[source] = row
    return table


def d(mg: MetricGraph, u, v) -> int:
    return dist(mg)[u][v]


def interval(mg: MetricGraph, u, v) -> frozenset:
    """The vertices on shortest u-v paths (u and v in one component)."""
    du, dv = dist(mg)[u], dist(mg)[v]
    return frozenset(w for w in du if du[w] + dv[w] == du[v])


def induced(mg: MetricGraph, vertex_subset) -> MetricGraph:
    sub = set(vertex_subset)
    return MetricGraph(sorted(sub), [(u, v) for u, v in mg.edges if u in sub and v in sub])


def bits(string: str) -> int:
    """The label of a bit string: character p - 1 is bit p - 1."""
    return int(string[::-1] or "0", 2)


def text(label: int, n: int) -> str:
    """The n-character bit string of a label; ``bits`` inverts it."""
    return "".join("1" if label >> p & 1 else "0" for p in range(n))


def _texts(labels: dict) -> dict:
    """The labels as bit strings of one length, wide enough for all."""
    n = max(labels.values(), default=0).bit_length()
    return {k: text(lab, n) for k, lab in labels.items()}


def label_leq(u: int, v: int) -> bool:
    """Coordinatewise order on the labels' equal-length bit strings."""
    a, b = _texts({0: u, 1: v}).values()
    return all(x <= y for x, y in zip(a, b))


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


def theta_from_distance_differences(mg: MetricGraph) -> ThetaClasses:
    """Theta read from the distance table, on any graph.

    With delta_e(w) = d(x, w) - d(y, w) for e = (x, y), the four-point
    condition e Theta f reads delta_e(u) != delta_e(v) for f = (u, v).
    Edges whose delta vectors agree up to sign cross the same edges, so one
    representative per vector is enough; it crosses its own group, and
    Theta is transitive exactly when every crossing set fills its class."""
    edges = sorted(mg.edges)
    table = dist(mg)
    rows = {v: [table[v].get(w, -1) for w in mg.vertices] for v in mg.vertices}
    position = {v: i for i, v in enumerate(mg.vertices)}
    ends = [(position[u], position[v]) for u, v in edges]
    groups = {}
    for k, (x, y) in enumerate(edges):
        delta = tuple(a - b for a, b in zip(rows[x], rows[y]))
        groups.setdefault(min(delta, tuple(-a for a in delta)), (k, delta))
    crossings = [
        (rep, [k for k, (a, b) in enumerate(ends) if delta[a] != delta[b]])
        for rep, delta in groups.values()
    ]
    rep_of = _union_find(range(len(edges)), [(rep, k) for rep, cross in crossings for k in cross])
    by_root = {}
    for k, e in enumerate(edges):
        by_root.setdefault(rep_of[k], []).append(e)
    raw = all(len(cross) == len(by_root[rep_of[rep]]) for rep, cross in crossings)
    return ThetaClasses(tuple(frozenset(c) for c in by_root.values()), raw)


def hamming(a: str, b: str) -> int:
    return sum(x != y for x, y in zip(a, b))


def is_isometric_labelling(mg: MetricGraph, labels: dict) -> bool:
    """Hamming distance is graph distance for every pair; a pair in two
    components has no distance and fails."""
    return _is_isometric_text(mg, _texts(labels))


def _is_isometric_text(mg: MetricGraph, labels: dict) -> bool:
    return all(
        hamming(labels[u], labels[v]) == dist(mg)[u].get(v)
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
    digits = {v: [] for v in mg.vertices}
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
            digits[v].append("0" if dx < dy else "1")
    labelling = {v: "".join(b) for v, b in digits.items()}
    if not _is_isometric_text(mg, labelling):
        return PartialCubeVerdict(
            False, theta_raw_transitive=True, reason="labelling not isometric"
        )
    return PartialCubeVerdict(
        True,
        labelling={v: bits(lab) for v, lab in labelling.items()},
        idim=len(classes.classes),
        theta_raw_transitive=True,
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
    return _is_downward_closed_text(_texts(dict(enumerate(label_set))).values())


def _is_downward_closed_text(label_set) -> bool:
    labs = set(label_set)
    return all(
        lab[:i] + "0" + lab[i + 1 :] in labs
        for lab in labs
        for i, c in enumerate(lab)
        if c == "1"
    )


def operator_o(labels: dict, subset) -> frozenset:
    """Downward closure of a vertex subset inside the labelled vertex set:
    the definition of o-closure, which a decomposition step reads as the
    down-set test on the subset's labels."""
    chosen = [labels[v] for v in subset]
    # b lies below c exactly when b & c == b
    return frozenset(v for v, b in labels.items() if b in map(b.__and__, chosen))


def is_daisy_cube(mg: MetricGraph, method: str) -> DaisyVerdict:
    """Orientation search over string labels.

    ``'roots'`` flips the labels so that each vertex in turn is the
    all-zeros root, as the library does; ``'exhaustive'`` sweeps all
    2^idim orientation masks, an independent check capped at idim
    ``SWEEP_IDIM_CAP``."""
    pc = is_partial_cube(mg)
    if not pc:
        return DaisyVerdict(False, reason=f"not a partial cube ({pc.reason})")
    n = pc.idim
    base = {v: text(lab, n) for v, lab in pc.labelling.items()}

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
        if _is_downward_closed_text(labelling.values()):
            return DaisyVerdict(True, {v: bits(lab) for v, lab in labelling.items()}, n)
    return DaisyVerdict(False, idim=n, reason=failure)


def is_convex_subset(mg: MetricGraph, subset) -> bool:
    """Every interval between two members of one component lies inside."""
    members = frozenset(subset)
    return all(
        interval(mg, u, v) <= members
        for u, v in combinations(members, 2)
        if v in dist(mg)[u]
    )


def is_convex_by_labels(edges, subset, bits: dict) -> bool:
    """Whether every shortest path between members stays inside the subset,
    read from an isometric labelling ``bits`` of the graph with ``edges``.

    A neighbour w of u is a step on a shortest path from u to v exactly
    when (L(w) ^ L(u)) & (L(u) ^ L(v)) != 0, and every shortest path is a
    chain of such steps, so the subset is convex when no step from a member
    towards another member leaves it.  The bits on which u differs from
    some member are the bits that vary across the subset, so it is convex
    exactly when no edge from a member to a non-member flips a varying bit.
    The reference for the face-pair reading of a step's inner side in
    ``rescube.decomposition``, which knows each edge's bit from its face."""
    members = set(subset)
    ones, common = 0, -1
    for v in members:
        ones |= bits[v]
        common &= bits[v]
    varying = ones & ~common
    return not any(
        (bits[u] ^ bits[v]) & varying
        for u, v in edges
        if (u in members) != (v in members)
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


def expand(mg: MetricGraph, v1, v2, labels=None) -> ExpansionResult:
    """Expansion of the graph along two isometric covering subsets.

    ``v1`` and ``v2`` must cover the vertex set, intersect, both induce
    isometric subgraphs, and admit no edge between their private parts.  The
    result takes disjoint copies of both induced subgraphs and joins the two
    copies of every shared vertex.  The ``le`` flag needs the vertex
    ``labels``; without them it is False.
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
    if peripheral and labels is not None:
        le = operator_o(labels, shared) == frozenset(shared)
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
    for m in matchings(family):
        kinds = {alternation_kind(g, m, walk) for walk in cycles}
        if PROPER not in kinds:
            bottoms.append(m.id)
        if IMPROPER not in kinds:
            tops.append(m.id)
    return bottoms, tops


# ---------------------------------------------------------------------------
# elementarity by enumeration; the edge-set view of a family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Matching:
    """One perfect matching of a family as its edge set."""

    id: int
    edges: frozenset


_VIEWS = WeakKeyDictionary()


def matchings(family) -> tuple:
    """The family's matchings as edge sets, in id order: its columns
    transposed, built once per family."""
    view = _VIEWS.get(family)
    if view is None:
        held = [set() for _ in family.ids]
        for e, col in family.columns.items():
            for mid, bit in enumerate(reversed(bin(col)[2:])):
                if bit == "1":
                    held[mid].add(e)
        view = _VIEWS[family] = tuple(
            Matching(mid, frozenset(edges)) for mid, edges in enumerate(held)
        )
    return view


def index(family) -> dict:
    """Edge set -> matching id."""
    return {m.edges: m.id for m in matchings(family)}


def composed_labels(g, scheme: str) -> tuple:
    """The labels of a weakly elementary graph's matchings, keyed by its
    matching ids, and their width, by definition: every elementary
    component with finite faces is enumerated on its own and labelled by
    its own automatic decomposition, and each matching of the graph takes
    the concatenated labels of its restrictions, looked up by edge set."""
    analysis = elementary_analysis(g)
    fn = daisy_labelling if scheme == "daisy" else fdl_labelling
    parts = []
    for comp in analysis.elementary_components:
        sub = edge_subgraph(g, [e for e in analysis.allowed_edges if set(e) <= comp])
        if sub.finite_faces:
            sub_family = enumerate_matchings(sub)
            parts.append((sub, index(sub_family), fn(sub, sub_family, auto_rfd(sub))))
    labels = {}
    for m in matchings(enumerate_matchings(g)):
        label = shift = 0
        for sub, ids, lab in parts:
            label |= lab.labels[ids[m.edges & sub.edges]] << shift
            shift += lab.length
        labels[m.id] = label
    return labels, sum(lab.length for _, _, lab in parts)


@dataclass(frozen=True)
class KeyedResonance:
    """A resonance graph keyed by content: each matching as its edge set,
    and each edge as its two matchings with the boundary edges of its face."""

    vertices: frozenset
    edges: frozenset


def keyed_resonance(g, r) -> KeyedResonance:
    """R(G) built by the library, keyed by content through :func:`matchings`."""
    ms = matchings(r.family)
    return KeyedResonance(
        frozenset(m.edges for m in ms),
        frozenset(
            (frozenset((ms[u].edges, ms[v].edges)), g.faces[f].edges)
            for u, v, f in r.edges
        ),
    )


def product_resonance(parts) -> tuple:
    """The Cartesian product of the parts' resonance graphs, each part a
    (graph, resonance graph) pair: a vertex takes one matching of every
    part, and an edge changes one part's matching along an edge of that
    part's resonance graph, labelled by that part's face.

    Returns the product keyed by content, each vertex the union of its
    parts' matchings (on edge-disjoint parts, the matching of their union
    graph), and the product as a metric graph on the tuples of part ids."""
    views = [matchings(r.family) for _, r in parts]
    combos = list(product(*(r.vertices for _, r in parts)))

    def key(combo):
        return frozenset().union(*(view[mid].edges for view, mid in zip(views, combo)))

    pairs, labelled = [], set()
    for pos, (g, r) in enumerate(parts):
        for u, v, f in r.edges:
            for combo in combos:
                if combo[pos] == u:
                    other = combo[:pos] + (v,) + combo[pos + 1 :]
                    pairs.append((combo, other))
                    labelled.add((frozenset((key(combo), key(other))), g.faces[f].edges))
    keyed = KeyedResonance(frozenset(map(key, combos)), frozenset(labelled))
    return keyed, MetricGraph(combos, pairs)


def enumerate_matching_edge_sets(g, cap: int = DEFAULT_MATCHING_CAP) -> list:
    """All perfect matchings as frozensets of edges, in deterministic order.

    Backtracking over vertices in id order, branching on incident edges in
    neighbor-id order; raises :class:`CapExceeded` past ``cap`` matchings.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    order = list(g.vertices)
    if len(order) % 2 == 1:
        return []
    neighbors = {v: sorted(ns) for v, ns in g.rotation.items()}
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
        for w in neighbors[v]:
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


def enumerated_elementary_analysis(g) -> ElementaryReport:
    """The elementary analysis by definition: an edge is allowed when some
    perfect matching holds it, read off the union of all of them."""
    sets = enumerate_matching_edge_sets(g)
    if not sets:
        raise NoPerfectMatching("graph has no perfect matching")
    allowed = frozenset().union(*sets)
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
# handles: matching subsets, set equalities, the branch walk, cut vertices
# ---------------------------------------------------------------------------

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


def matching_subset(g, family, face_id, selector, handle_index=None) -> frozenset:
    """Matching ids selected by a handle predicate on one facial cycle.

    Selectors pair a handle side ('exterior'/'interior') with a state
    ('avoid'/'contain').  The plain forms take a 1-based ``handle_index``
    into the clockwise handle order; the 'all-' forms quantify over every
    handle of that side, and an '-resonant' suffix additionally requires the
    face to be resonant.  A bad selector or index raises ValueError.
    """
    if selector not in SELECTORS:
        raise ValueError(f"unknown selector {selector!r}")
    indexed = not selector.startswith("all-")
    if indexed != (handle_index is not None):
        raise ValueError(f"{selector} takes a handle index exactly when not all-")
    body = selector[4:] if selector.startswith("all-") else selector
    resonant = body.endswith("-resonant")
    if resonant:
        body = body[: -len("-resonant")]
    side, state = body.split("-")
    want = CONTAINS_END_EDGES if state == "contain" else AVOIDS_END_EDGES
    dec = facial_handle_decomposition(g, face_id)
    pool = dec.exterior if side == "exterior" else dec.interior
    if indexed:
        if not 1 <= handle_index <= len(pool):
            raise ValueError(f"handle index {handle_index} out of range 1..{len(pool)}")
        pool = (pool[handle_index - 1],)
    return frozenset(
        m.id
        for m in matchings(family)
        if not any(end_edge_state(m, h.path) != want for h in pool)
        and (not resonant or is_resonant(g, m, face_id))
    )


def subset_equalities_hold(g, family, face_id) -> bool:
    """Single-handle subsets equal the all-handle ones, and the resonant
    refinements swap sides between exterior and interior handles."""
    dec = facial_handle_decomposition(g, face_id)

    def sel(selector, index=None):
        return matching_subset(g, family, face_id, selector, index)

    all_eavoid = sel("all-exterior-avoid")
    all_econt = sel("all-exterior-contain")
    for idx in range(1, dec.m + 1):
        if sel("exterior-avoid", idx) != all_eavoid:
            return False
        if sel("exterior-contain", idx) != all_econt:
            return False
    if sel("all-exterior-contain-resonant") != all_econt:
        return False
    if sel("all-interior-avoid-resonant") != all_econt:
        return False
    all_icont = sel("all-interior-contain")
    if sel("all-interior-contain-resonant") != all_icont:
        return False
    if sel("all-exterior-avoid-resonant") != all_icont:
        return False
    if not (all_eavoid | all_econt) == frozenset(family.ids):
        return False
    return not (all_eavoid & all_econt)


def face_split_by_flood(g, r, face_id) -> dict:
    """The clauses of the split of the resonance graph ``r`` by one face, by
    definition: the components of ``r`` without the face's edges, found by
    union-find, must be the matchings whose exterior handles all avoid
    their end edges and the resonant ones whose exterior handles all
    contain them, read one matching at a time.  Stops at the first failing
    clause of the first three, as ``split_by_face`` does."""
    class_edges = [(u, v) for u, v, f in r.edges if f == face_id]
    clauses = {"class-nonempty": bool(class_edges)}
    if not class_edges:
        return clauses
    others = [(u, v) for u, v, f in r.edges if f != face_id]
    rest = components(MetricGraph(r.vertices, others))
    clauses["two-components"] = len(rest) == 2
    if len(rest) != 2:
        return clauses
    minus = matching_subset(g, r.family, face_id, "all-exterior-avoid")
    plus = matching_subset(g, r.family, face_id, "all-exterior-contain-resonant")
    clauses["side-sets"] = {minus, plus} == set(rest)
    if not clauses["side-sets"]:
        return clauses
    ends = [v for e in class_edges for v in e]
    u_minus, u_plus = minus.intersection(ends), plus.intersection(ends)
    clauses["class-matching"] = len(ends) == len(set(ends)) and (
        len(u_minus) == len(u_plus) == len(class_edges)
    )
    clauses["plus-peripheral"] = u_plus == plus
    clauses["strictly-smaller-plus"] = len(plus) < len(minus)
    return clauses


def branch_walk_handles(g) -> frozenset:
    """All handles of ``g``, walked from every vertex of degree >= 3 along
    each of its edges to the next such vertex, each classified by whether
    its edges are peripheral.  A graph without such a vertex raises
    :class:`NoHandles`, one with a cut vertex :class:`UnsupportedInput`:
    the reference for the facial-walk runs of
    ``rescube.plane_graph.handles``."""
    branch = [v for v in g.vertices if g.degree(v) >= 3]
    if not branch:
        raise NoHandles("every vertex has degree 2")
    if has_cut_vertex(g):
        raise UnsupportedInput("handles are only defined for 2-connected components")
    out = set()
    for b in branch:
        for n in g.rotation[b]:
            path = [b, n]
            while g.degree(path[-1]) == 2:
                prev, cur = path[-2], path[-1]
                path.append(next(w for w in g.rotation[cur] if w != prev))
            peripheral = {
                edge_key(a, c) in g.periphery_edges for a, c in zip(path, path[1:])
            }
            if len(peripheral) > 1:
                raise InternalInvariantBroken("handle mixes peripheral and interior edges")
            out.add(Handle(tuple(path), "exterior" if peripheral.pop() else "interior"))
    return frozenset(out)


def has_cut_vertex(g) -> bool:
    """Whether deleting some vertex leaves more components than the graph
    has, counted by union-find."""

    def count(vertices, edges):
        return len(set(_union_find(vertices, edges).values()))

    whole = count(g.vertices, g.edges)
    return any(
        count([u for u in g.vertices if u != v], [e for e in g.edges if v not in e])
        > whole
        for v in g.vertices
    )


# ---------------------------------------------------------------------------
# per-matching face reads
# ---------------------------------------------------------------------------


def is_resonant(g, matching, face_id: int) -> bool:
    """True when the facial cycle alternates in and out of the matching."""
    face = g.faces[face_id]
    darts = face.darts
    states = [edge_key(*d) in matching.edges for d in darts]
    return all(states[i] != states[(i + 1) % len(states)] for i in range(len(states)))


def alternation_kind(g, matching, walk) -> str:
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
    return PROPER if kinds == {WHITE} else IMPROPER


def end_edge_state(matching, path) -> str:
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


def bitset(family, predicate) -> int:
    """The ids of the matchings on which ``predicate`` holds, as a bitset,
    read one matching at a time in id order."""
    return sum(1 << m.id for m in matchings(family) if predicate(m))


def face_scan_extremes(g, family) -> tuple:
    """The ids of the fully resonant matchings, of those with no proper
    resonant face and of those with no improper one, from
    :func:`alternation_kind` on every closed facial walk of every matching."""
    walks = [f.boundary + (f.boundary[0],) for f in g.finite_faces]
    fully, bottoms, tops = [], [], []
    for m in matchings(family):
        kinds = {alternation_kind(g, m, walk) for walk in walks}
        if NOT_ALTERNATING not in kinds:
            fully.append(m.id)
        if PROPER not in kinds:
            bottoms.append(m.id)
        if IMPROPER not in kinds:
            tops.append(m.id)
    return fully, bottoms, tops


def handle_orientation(g, matching, path):
    """Orientation of one clockwise-oriented handle path under a matching:
    the color at the tail of every matched dart, None when they run both
    ways.  A single avoided edge carries no matched dart; it reads as the
    color opposite its first vertex."""
    tails = {
        g.color(u) for u, v in zip(path, path[1:]) if edge_key(u, v) in matching.edges
    }
    if not tails:
        return WHITE if g.color(path[0]) == BLACK else BLACK
    return tails.pop() if len(tails) == 1 else None


def daisy_bits(g, family, face_id) -> int:
    """The matchings whose daisy bit at the face is 1: the states of the
    face's exterior handles are not all 'avoids'."""
    exterior = facial_handle_decomposition(g, face_id).exterior
    return bitset(
        family,
        lambda m: {end_edge_state(m, h.path) for h in exterior} != {AVOIDS_END_EDGES},
    )


def even_cycle_daisy_bits(g, family) -> int:
    """The matchings whose daisy bit on the even cycle ``g`` is 1: all but
    the reference matching, the cycle's darts whose tails are black under
    the anchor coloring (improper clockwise), which survives color swaps."""
    anchor = canonical_coloring(g)
    reference = {edge_key(*d) for d in g.finite_faces[0].darts if anchor[d[0]] == BLACK}
    return bitset(family, lambda m: not reference <= m.edges)


def fdl_bits(g, family, face_id) -> tuple:
    """The matchings whose lattice bit at the face is 1 (every exterior
    handle proper), and the matchings under which the face's exterior
    handles are of mixed orientation."""
    exterior = facial_handle_decomposition(g, face_id).exterior

    def tails(m):
        return {handle_orientation(g, m, h.path) for h in exterior}

    return (
        bitset(family, lambda m: tails(m) <= {WHITE}),
        bitset(family, lambda m: {WHITE, BLACK} <= tails(m)),
    )


# ---------------------------------------------------------------------------
# decomposition steps by edge sets
# ---------------------------------------------------------------------------


def _assemble_path(edges):
    """Order an edge set into a simple path's vertex sequence, from its
    smaller end, or None: the reference for the walk arcs
    (``rescube.decomposition._arc``) that read a step's ear and inner path
    and a face's shared periphery."""
    if not edges:
        return None
    deg = {}
    adj = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d > 2 for d in deg.values()):
        return None
    ends = sorted(v for v, d in deg.items() if d == 1)
    if len(ends) != 2:
        return None
    path = [ends[0]]
    prev = None
    while path[-1] != ends[1]:
        nxts = [w for w in adj[path[-1]] if w != prev]
        if len(nxts) != 1:
            return None
        prev = path[-1]
        path.append(nxts[0])
    if len(path) != len(edges) + 1:
        return None
    return tuple(path)


def step_clauses(g, rfd, i, prev, cur) -> dict:
    """The clauses of decomposition step i by definition, from the records of
    prefixes i - 1 and i (``prev`` and ``cur``: graph, translated
    decomposition, family, resonance graph, daisy labelling).

    The ear and inner sides are read by :func:`end_edge_state` one matching
    at a time; the restriction, the lift and the twist along the face's
    cycle are looked up by edge set in the families; convexity is read from
    the distance table.  The reference for the packed-column step check of
    ``rescube.decomposition``.  A map that finds no matching makes its
    clause false, as the packed check does."""
    fam_i, fam_prev = cur.family, prev.family
    res_i, res_prev = cur.resonance, prev.resonance
    labels_i = cur.daisy.labels
    clauses = {}

    ear = _assemble_path(rfd.subgraph_edges[i - 1] - rfd.subgraph_edges[i - 2])
    ear_edges = [edge_key(a, b) for a, b in zip(ear, ear[1:])]
    cycle = g.faces[rfd.faces[i - 1]].edges
    inner = _assemble_path(cycle - set(ear_edges))
    clauses["inner-path"] = inner is not None
    if inner is None:
        return clauses

    def side(family, path, state):
        return [m.id for m in matchings(family) if end_edge_state(m, path) == state]

    minus = side(fam_i, ear, AVOIDS_END_EDGES)
    plus = side(fam_i, ear, CONTAINS_END_EDGES)
    restrict = {}
    for mid in minus:
        image = index(fam_prev).get(matchings(fam_i)[mid].edges & prev.graph.edges)
        if image is not None:
            restrict[mid] = image
    clauses["restriction-bijection"] = ok = (
        len(minus) == len(fam_prev) == len(restrict) == len(set(restrict.values()))
    )
    if not ok:
        return clauses

    pos_i = {fid: p for p, fid in enumerate(cur.rfd.faces, start=1)}
    pos_prev = {fid: p for p, fid in enumerate(prev.rfd.faces, start=1)}

    def edge(a, b, pos):
        return (min(a, b), max(a, b), pos)

    clauses["restriction-isomorphism"] = {
        edge(restrict[u], restrict[v], pos_i[f])
        for u, v, f in res_i.edges
        if u in restrict and v in restrict
    } == {(u, v, pos_prev[f]) for u, v, f in res_prev.edges}

    new = 1 << (i - 1)
    labels_prev = {restrict[mid]: labels_i[mid] & ~new for mid in minus}
    clauses["label-deletion"] = (
        not any(labels_i[mid] & new for mid in minus)
        and all(labels_i[mid] & new for mid in plus)
        and len(set(labels_prev.values())) == len(labels_prev)
        and (i < 3 or labels_prev == prev.daisy.labels)
    )

    inner_set = frozenset(side(fam_prev, inner, CONTAINS_END_EDGES))
    convex = is_convex_subset(res_prev.metric(), inner_set)
    o_closed = operator_o(labels_prev, inner_set) == inner_set
    clauses["inner-convex"] = convex
    clauses["inner-le-subgraph"] = o_closed
    att_bit = 1 << (rfd.attachment[i] - 1)
    clauses["inner-zero-at-attachment"] = inner_set == {
        k for k, label in labels_prev.items() if not label & att_bit
    }

    # the lift adds the ear's even edges; the twin twists the lift along
    # the face's cycle
    even_ear = frozenset(ear_edges[1::2])
    ids_i = index(fam_i)
    lift = {m.id: ids_i.get(m.edges | even_ear) for m in matchings(fam_prev)}
    twin = {
        k: ids_i.get(matchings(fam_i)[lift[k]].edges ^ cycle)
        for k in inner_set
        if lift[k] is not None
    }
    found = set(lift.values()) | set(twin.values())
    expected_edges = set()
    if None not in found:
        for u, v, f in res_prev.edges:
            pos = pos_i[cur.rfd.faces[pos_prev[f] - 1]]
            expected_edges.add(edge(lift[u], lift[v], pos))
            if u in inner_set and v in inner_set:
                expected_edges.add(edge(twin[u], twin[v], pos))
        for k in inner_set:
            expected_edges.add(edge(lift[k], twin[k], pos_i[cur.rfd.faces[i - 1]]))
    clauses["expansion-equality"] = (
        None not in found
        and found == set(res_i.vertices)
        and all(labels_i[twin[k]] == labels_i[lift[k]] | new for k in inner_set)
        and expected_edges == {(u, v, pos_i[f]) for u, v, f in res_i.edges}
    )

    clauses["expansion-flags"] = bool(inner_set) and convex and o_closed
    clauses["zero-positions"] = {
        mid for mid, label in labels_i.items() if not label & (att_bit | new)
    } == set(side(fam_i, inner, CONTAINS_END_EDGES))
    return clauses


# ---------------------------------------------------------------------------
# decompositions by ears
# ---------------------------------------------------------------------------


def rfd_by_ears(g, order) -> RfdSequence:
    """Validate a full face order as a reducible face decomposition, ear by
    ear.

    The first face only needs to bound a cycle; each later face must attach
    by a single odd ear on the periphery of the previous subgraph, each
    previous subgraph must be elementary, and every face of a grown
    subgraph must be a face of ``g``.  Raises :class:`NotReducibleAtStep`
    at the first failing step, and ValueError when the order does not list
    every finite face once."""
    order = tuple(order)

    def embedded(edges):
        return g if edges == g.edges else edge_subgraph(g, edges)

    finite_ids = sorted(f.id for f in g.finite_faces)
    if sorted(order) != finite_ids:
        raise ValueError(f"order must list all finite faces {finite_ids}")

    notes = (
        f"first face {order[0]} accepted because its boundary is a cycle",
    )
    first = g.faces[order[0]]
    if len(set(first.boundary)) != len(first.boundary):
        raise NotReducibleAtStep(1, "first face boundary is not a cycle")

    current_edges = set(first.edges)
    current_vertices = set(first.boundary)
    previous = embedded(frozenset(current_edges))
    graphs = [previous]
    attachments = {}
    complete = True

    for idx in range(1, len(order)):
        step = idx + 1
        face = g.faces[order[idx]]
        ear_edges = face.edges - current_edges
        if not ear_edges:
            raise NotReducibleAtStep(step, "face adds no new edges")
        ear = _assemble_path(ear_edges)
        if ear is None:
            raise NotReducibleAtStep(step, "new edges do not form a path")
        if (len(ear) - 1) % 2 == 0:
            raise NotReducibleAtStep(step, "ear has even length")
        if ear[0] not in current_vertices or ear[-1] not in current_vertices:
            raise NotReducibleAtStep(step, "ear endpoints are not attached")
        if set(ear[1:-1]) & current_vertices:
            raise NotReducibleAtStep(step, "ear interior touches the subgraph")

        if not _is_plane_elementary(previous):
            raise NotReducibleAtStep(step, "previous subgraph is not elementary")
        old_part = face.edges & current_edges
        if not old_part <= previous.periphery_edges:
            raise NotReducibleAtStep(step, "face does not sit on the periphery")

        current_edges |= ear_edges
        current_vertices |= set(ear)

        grown = embedded(frozenset(current_edges))
        for f in grown.finite_faces:
            if f.edges not in g.face_by_edge_set:
                raise NotReducibleAtStep(step, "step creates a face not in the graph")
        previous = grown
        graphs.append(grown)

        sharers = [
            j + 1
            for j in range(idx)
            if g.faces[order[j]].edges & face.edges
        ]
        if len(sharers) == 1:
            attachments[step] = sharers[0]
        else:
            complete = False

    if current_edges != g.edges:
        raise NotReducibleAtStep(len(order), "edges remain outside all faces")
    return RfdSequence(
        faces=order,
        attachment=attachments if complete else None,
        notes=notes,
        prefixes=Carried(graphs),
    )


# ---------------------------------------------------------------------------
# decompositions by embedding every reduction
# ---------------------------------------------------------------------------


class Carried:
    """Prefix subgraphs built up front, read as a decomposition reads its
    lazily embedded ones."""

    def __init__(self, graphs):
        self.graphs = tuple(graphs)
        self.edges = tuple(sub.edges for sub in self.graphs)

    def graph(self, k):
        return self.graphs[k - 1]


def _is_plane_elementary(g) -> bool:
    try:
        return elementary_analysis(g).is_elementary
    except NoPerfectMatching:
        return False


def _reduction(g, face_id):
    """``g`` embedded on the face's rest (``rescube.decomposition._rest``
    on ``g``'s own periphery), when that is plane elementary bipartite;
    otherwise None."""
    rest = _rest(g.faces[face_id], g.edges, g.periphery_edges)
    if rest is None:
        return None
    reduced = edge_subgraph(g, rest)
    if len(reduced.vertices) >= 2 and _is_plane_elementary(reduced):
        return reduced
    return None


def embedded_reducible_faces(g) -> frozenset:
    """The reducible faces, each reduction embedded and analysed: the
    reference for ``rescube.decomposition.find_reducible_faces``."""
    return frozenset(f.id for f in g.finite_faces if _reduction(g, f.id) is not None)


def embedded_auto_rfd(g) -> RfdSequence:
    """The greedy peel with every reduction embedded and analysed, and the
    reductions carried as the prefixes: the reference for
    ``rescube.decomposition.auto_rfd``, which peels on the graph's own faces."""
    if len(g.vertices) <= 2:
        raise UnsupportedInput("need more than two vertices")
    if g.is_cycle_graph():
        face = g.finite_faces[0]
        return RfdSequence(
            (face.id,), {}, ("even cycle: single-face decomposition",),
            prefixes=Carried((g,)),
        )

    graphs = [g]
    peeled = []
    while not graphs[-1].is_cycle_graph():
        current = graphs[-1]
        own = {g.face_by_edge_set[f.edges]: f.id for f in current.finite_faces}
        for fid in sorted(own):
            reduced = _reduction(current, own[fid])
            if reduced is not None:
                break
        else:
            raise PeelingStuck("no reducible face; the graph is not plane elementary")
        peeled.append(fid)
        graphs.append(reduced)
    base = g.face_by_edge_set[graphs[-1].finite_faces[0].edges]
    order = (base, *reversed(peeled))
    return replace(_sequence(g, order), prefixes=Carried(reversed(graphs)))
