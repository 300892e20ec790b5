"""Finite-graph metric machinery: the component search, the edge relation
Theta, partial-cube and median recognition, daisy-cube recognition with
proper labellings, and the expansion operations used to rebuild resonance
graphs step by step.

Distances come from breadth-first search.  The recognizers share one
bit-vector embedding per graph: Theta classes read from the distance
differences d(x, w) - d(y, w) of each edge (x, y), one ``int`` label per
vertex with bit i for class i, checked against the distance table by
popcount.  Medianness is closure of the labels under bitwise majority
(Bandelt and Chepoi, "Metric graph theory and geometry: a survey", 2008),
and daisy recognition is an orientation search over XOR masks.  The
definitional brute-force versions live with the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from operator import add, ne, neg, sub

from .errors import CapExceeded, NotAnExpansion

_EXHAUSTIVE_IDIM_CAP = 20


def _edge_key(u, v):
    return (u, v) if u <= v else (v, u)


def flood(vertices, neighbors) -> dict:
    """Breadth-first component search, the one flood fill of the library.

    Maps every vertex to ``(root, parity)``: the first vertex of its
    component in ``vertices`` order and the parity of its distance from that
    root.  ``neighbors(v)`` yields the neighbors of ``v``.  On a bipartite
    graph the parity is the proper 2-coloring that gives every root 0."""
    found = {}
    for root in vertices:
        if root in found:
            continue
        found[root] = (root, 0)
        frontier = [root]
        parity = 0
        while frontier:
            parity ^= 1
            reached = []
            for v in frontier:
                for w in neighbors(v):
                    if w not in found:
                        found[w] = (root, parity)
                        reached.append(w)
            frontier = reached
    return found


def components(vertices, neighbors) -> tuple:
    """Vertex sets of the components, in the order of their roots."""
    groups = {}
    for v, (root, _) in flood(vertices, neighbors).items():
        groups.setdefault(root, []).append(v)
    return tuple(frozenset(c) for c in groups.values())


class MetricGraph:
    """An undirected graph with its all-pairs distance table and optional labels."""

    def __init__(self, vertices, edges, labels=None):
        self.vertices = tuple(vertices)
        vset = set(self.vertices)
        adj = {v: set() for v in self.vertices}
        eset = set()
        for u, v in edges:
            if u not in vset or v not in vset or u == v:
                raise ValueError(f"bad edge ({u!r}, {v!r})")
            adj[u].add(v)
            adj[v].add(u)
            eset.add(_edge_key(u, v))
        self.adjacency = {v: frozenset(ws) for v, ws in adj.items()}
        self.edges = frozenset(eset)
        self.labels = dict(labels) if labels else None

    @cached_property
    def dist(self) -> dict:
        table = {}
        for source in self.vertices:
            d = {source: 0}
            frontier = [source]
            step = 0
            while frontier:
                step += 1
                nxt = []
                for v in frontier:
                    for w in self.adjacency[v]:
                        if w not in d:
                            d[w] = step
                            nxt.append(w)
                frontier = nxt
            table[source] = d
        return table

    @cached_property
    def _rows(self) -> dict:
        """Distance rows in vertex order; -1 stands for an unreachable vertex."""
        verts = self.vertices
        return {v: tuple(map(d.get, verts, repeat(-1))) for v, d in self.dist.items()}

    @cached_property
    def _theta(self) -> "ThetaClasses":
        return _theta_from_distance_differences(self)

    @cached_property
    def _embedding(self) -> "PartialCubeVerdict":
        """The partial-cube verdict with ``int`` labels, computed once per graph."""
        return _embed(self)

    def d(self, u, v) -> int:
        return self.dist[u][v]

    @property
    def is_connected(self) -> bool:
        return all(len(self.dist[v]) == len(self.vertices) for v in self.vertices[:1])

    @cached_property
    def is_bipartite(self) -> bool:
        side = flood(self.vertices, self.adjacency.__getitem__)
        return all(side[u][1] != side[v][1] for u, v in self.edges)

    def interval(self, u, v) -> frozenset:
        duv = self.d(u, v)
        du = self.dist[u]
        dv = self.dist[v]
        return frozenset(w for w in self.vertices if du[w] + dv[w] == duv)

    def induced(self, vertex_subset, keep_labels=True) -> "MetricGraph":
        sub = set(vertex_subset)
        edges = [(u, v) for u, v in self.edges if u in sub and v in sub]
        labels = None
        if keep_labels and self.labels is not None:
            labels = {v: self.labels[v] for v in sub}
        return MetricGraph(sorted(sub), edges, labels)


# ---------------------------------------------------------------------------
# bit labels
# ---------------------------------------------------------------------------


def _to_bits(label: str) -> int:
    """Bit string to ``int``: string position i is bit i."""
    return int(label[::-1] or "0", 2)


def _to_str(bits: int, n: int) -> str:
    return format(bits, f"0{n}b")[::-1] if n else ""


def _isometric(mg: MetricGraph, bits: dict) -> bool:
    """Whether popcount of XOR equals graph distance for every vertex pair."""
    labels = [bits[v] for v in mg.vertices]
    rows = mg._rows
    return not any(
        any(map(ne, map(int.bit_count, map(bits[v].__xor__, labels)), rows[v]))
        for v in mg.vertices
    )


def _is_down_set(labels: set) -> bool:
    """Every lower cover (one set bit cleared) of every member is a member."""
    for lab in labels:
        rest = lab
        while rest:
            low = rest & -rest
            if lab ^ low not in labels:
                return False
            rest ^= low
    return True


# ---------------------------------------------------------------------------
# relation Theta
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThetaClasses:
    classes: tuple  # tuple of frozensets of edges, sorted by smallest edge
    raw_transitive: bool


def theta_classes(mg: MetricGraph) -> ThetaClasses:
    """Partition the edges by the transitive closure of Theta.

    The ``raw_transitive`` flag records whether Theta itself was already an
    equivalence (true on every partial cube).  Computed once per graph."""
    return mg._theta


def _theta_from_distance_differences(mg: MetricGraph) -> ThetaClasses:
    # With delta_e(w) = d(x, w) - d(y, w) for e = (x, y), the four-point
    # condition e Theta f reads delta_e(u) != delta_e(v) for f = (u, v).  Edges
    # whose delta vectors agree up to sign cross the same edges, so one
    # representative per vector is enough; it crosses its own group.
    edges = sorted(mg.edges)
    position = {v: i for i, v in enumerate(mg.vertices)}
    ends = [(position[u], position[v]) for u, v in edges]
    rows = mg._rows
    groups = {}
    for k, (x, y) in enumerate(edges):
        delta = tuple(map(sub, rows[x], rows[y]))
        groups.setdefault(min(delta, tuple(map(neg, delta))), (k, delta))

    parent = list(range(len(edges)))

    def find(k):
        while parent[k] != k:
            parent[k] = parent[parent[k]]
            k = parent[k]
        return k

    crossings = []
    for rep, delta in groups.values():
        crossing = [k for k, (a, b) in enumerate(ends) if delta[a] != delta[b]]
        crossings.append((rep, len(crossing)))
        root = find(rep)
        for k in crossing:
            parent[find(k)] = root

    by_root = {}
    for k, e in enumerate(edges):
        by_root.setdefault(find(k), []).append(e)
    # a representative's crossing set lies inside its class, so Theta is
    # transitive exactly when every crossing set fills its class
    raw = all(size == len(by_root[find(rep)]) for rep, size in crossings)
    # classes come out ordered by their smallest edge, as the edges are sorted
    return ThetaClasses(tuple(frozenset(c) for c in by_root.values()), raw)


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
    cls = sorted(_edge_key(u, v) for u, v in class_edges)
    x, y = cls[0]
    w_x = frozenset(v for v in mg.vertices if mg.d(v, x) < mg.d(v, y))
    w_y = frozenset(v for v in mg.vertices if mg.d(v, y) < mg.d(v, x))
    u_x = frozenset(
        v for v in w_x if any(w in w_y for w in mg.adjacency[v])
    )
    u_y = frozenset(
        v for v in w_y if any(w in w_x for w in mg.adjacency[v])
    )
    return ClassSplit((x, y), w_x, w_y, u_x, u_y)


# ---------------------------------------------------------------------------
# partial cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialCubeVerdict:
    ok: bool
    labelling: dict = None  # vertex -> bit string, root gets all zeros
    idim: int = None
    theta_raw_transitive: bool = None
    reason: str = None
    bits: dict = None  # vertex -> int, bit i is string position i

    def __bool__(self):
        return self.ok


def is_partial_cube(mg: MetricGraph) -> PartialCubeVerdict:
    """Recognize isometric subgraphs of hypercubes.

    Builds a candidate labelling (one bit per Theta class, the first vertex
    on the zero side everywhere) and verifies that Hamming distance equals
    graph distance for every pair; the verification is the verdict.  The
    verdict is computed once per graph and shared by the other recognizers.
    """
    return mg._embedding


def _embed(mg: MetricGraph) -> PartialCubeVerdict:
    if not mg.vertices:
        return PartialCubeVerdict(False, reason="empty graph")
    if not mg.is_connected:
        return PartialCubeVerdict(False, reason="not connected")
    if not mg.is_bipartite:
        return PartialCubeVerdict(False, reason="not bipartite")
    classes = theta_classes(mg)
    if not classes.raw_transitive:
        return PartialCubeVerdict(
            False, theta_raw_transitive=False, reason="Theta not transitive"
        )
    rows = mg._rows
    labels = [0] * len(mg.vertices)
    for i, cls in enumerate(classes.classes):
        # bipartite and connected: no vertex is equidistant from x and y
        x, y = min(cls)
        near, far = rows[x], rows[y]
        if near[0] > far[0]:
            near, far = far, near
        bit = 1 << i
        for j, (a, b) in enumerate(zip(near, far)):
            if a > b:
                labels[j] |= bit
    bits = dict(zip(mg.vertices, labels))
    if not _isometric(mg, bits):
        return PartialCubeVerdict(
            False, theta_raw_transitive=True, reason="labelling not isometric"
        )
    n = len(classes.classes)
    return PartialCubeVerdict(
        True,
        labelling={v: _to_str(b, n) for v, b in bits.items()},
        idim=n,
        theta_raw_transitive=True,
        bits=bits,
    )


def is_median(mg: MetricGraph) -> bool:
    """Median test: a partial cube whose labels are closed under majority.

    The labelling is isometric, so a vertex lies in the interval of two
    others exactly when its label lies in the hypercube interval of theirs;
    the one candidate median of three vertices is the bitwise majority of
    their labels, and the graph is median exactly when that label is there.
    Pairs at distance two suffice: if a and b are further apart, step from
    a (or from b) towards the other along a shortest path to a' in the
    graph; majority(a, b, c) is majority(a', b, c) or majority(a, m, c) with
    m = majority(a', b, c), and one of the two ends gives pairs closer than
    a and b, so induction on the distance covers every triple.
    """
    if not mg.vertices:
        return True
    pc = is_partial_cube(mg)
    if not pc:
        return False
    present = set(pc.bits.values())
    flips = [(1 << i) | (1 << j) for i, j in combinations(range(pc.idim), 2)]
    for a in present:
        for differ in flips:
            b = a ^ differ
            if b > a and b in present:
                # majority(a, b, c) keeps a's bits where a and b agree and
                # takes c's bits where they differ
                medians = map((a & b).__or__, map(differ.__and__, present))
                if not present.issuperset(medians):
                    return False
    return True


# ---------------------------------------------------------------------------
# daisy cubes
# ---------------------------------------------------------------------------


def label_leq(u: str, v: str) -> bool:
    """Coordinatewise order on equal-length bit strings."""
    return all(a <= b for a, b in zip(u, v))


def operator_o(labels: dict, subset) -> frozenset:
    """Downward closure of a vertex subset inside the labelled vertex set."""
    bits = {v: _to_bits(lab) for v, lab in labels.items()}
    chosen = [bits[v] for v in subset]
    # b lies below c exactly when b & c == b
    return frozenset(v for v, b in bits.items() if b in map(b.__and__, chosen))


def is_downward_closed(label_set) -> bool:
    """Whether a set of equal-length bit strings is closed downward in the
    coordinatewise order."""
    # every lower cover of every member is present; induction gives full closure
    return _is_down_set({_to_bits(lab) for lab in label_set})


def is_isometric_labelling(mg: MetricGraph, labels: dict) -> bool:
    """Whether Hamming distance on the equal-length labels equals graph
    distance for all pairs."""
    return _isometric(mg, {v: _to_bits(labels[v]) for v in mg.vertices})


@dataclass(frozen=True)
class DaisyVerdict:
    ok: bool
    labelling: dict = None  # a proper labelling when one exists
    idim: int = None
    method: str = None
    reason: str = None

    def __bool__(self):
        return self.ok


def is_daisy_cube(mg: MetricGraph, method: str = "auto") -> DaisyVerdict:
    """Search for a proper labelling realizing the graph as a daisy cube.

    A proper labelling is an isometric hypercube embedding whose image is
    a downward-closed subset of the bit strings.  ``method='auto'`` first
    tries every vertex as the all-zeros root (any downward-closed image
    contains the all-zeros string, so this pass is decisive); the
    ``'exhaustive'`` method sweeps all 2^idim orientation masks as an
    independent oracle, with a hard cap at idim 20.
    """
    pc = is_partial_cube(mg)
    if not pc:
        return DaisyVerdict(False, reason=f"not a partial cube ({pc.reason})")
    if method not in ("auto", "roots", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    n = pc.idim
    present = set(pc.bits.values())

    def proper(mask, found_by):
        labelling = {v: _to_str(b ^ mask, n) for v, b in pc.bits.items()}
        return DaisyVerdict(True, labelling, n, method=found_by)

    if method in ("auto", "roots"):
        for root in mg.vertices:
            mask = pc.bits[root]
            if _is_down_set({b ^ mask for b in present}):
                return proper(mask, "roots")
        if method == "roots":
            return DaisyVerdict(False, idim=n, method="roots", reason="no root works")

    if n > _EXHAUSTIVE_IDIM_CAP:
        raise CapExceeded(
            f"orientation sweep over idim {n} exceeds the cap {_EXHAUSTIVE_IDIM_CAP}"
        )
    for mask in range(1 << n):
        # a downward-closed image holds the all-zeros label, so the mask
        # must be some vertex's label
        if mask in present and _is_down_set({b ^ mask for b in present}):
            return proper(mask, "exhaustive")
    return DaisyVerdict(False, idim=n, method=method, reason="no orientation works")


# ---------------------------------------------------------------------------
# expansions
# ---------------------------------------------------------------------------


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
    sub = mg.induced(subset, keep_labels=False)
    if not sub.is_connected:
        return False
    return all(
        sub.d(u, v) == mg.d(u, v) for u, v in combinations(sub.vertices, 2)
    )


def is_convex_subset(mg: MetricGraph, subset) -> bool:
    """Whether every shortest path between members stays inside the subset."""
    members = set(subset)
    outside = [i for i, w in enumerate(mg.vertices) if w not in members]
    rows = mg._rows
    to_outside = {u: [rows[u][i] for i in outside] for u in members}
    # w lies on a shortest u-v path exactly when d(u, w) + d(w, v) = d(u, v)
    return not any(
        mg.d(u, v) in map(add, to_outside[u], to_outside[v])
        for u, v in combinations(sorted(members), 2)
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


# ---------------------------------------------------------------------------
# median decomposition check
# ---------------------------------------------------------------------------


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
    cls = {( _edge_key(u, v)) for u, v in class_edges}

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
        ux = mg.induced(split.u_x, keep_labels=False)
        for a, b in combinations(ux.vertices, 2):
            adjacent_here = b in ux.adjacency[a]
            adjacent_there = pairing[b] in mg.adjacency[pairing[a]]
            if adjacent_here != adjacent_there:
                ok_matching = False
                break

    def convex_inside(u_set, w_set):
        sub = mg.induced(w_set, keep_labels=False)
        return is_convex_subset(sub, u_set)

    sides_convex = convex_inside(split.u_x, split.w_x) and convex_inside(
        split.u_y, split.w_y
    )

    def median_side(w_set):
        key = frozenset(w_set)
        if key not in memo:
            memo[key] = is_median(mg.induced(w_set, keep_labels=False))
        return memo[key]

    sides_median = median_side(split.w_x) and median_side(split.w_y)
    return MedianSplitReport(ok_matching, sides_convex, sides_median)
