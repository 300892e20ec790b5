"""Finite-graph metric machinery: the component search, the edge relation
Theta, partial-cube and median recognition, daisy-cube recognition with
proper labellings, and convexity read from labels.

The one distance table, from breadth-first search, serves a graph that
comes without labels: its Theta classes read the distance differences
d(x, w) - d(y, w) of each edge (x, y), and give one ``int`` label per
vertex with bit i for class i.  Labels, found so or given, are certified
without a table: they are isometric exactly when every edge flips one bit
and every vertex differs from every other vertex at a bit that one of its
own edges flips.  On certified labels distance is popcount, so convexity,
medianness (closure under bitwise majority; Bandelt and Chepoi, "Metric
graph theory and geometry: a survey", 2008) and the daisy search, which
tries each vertex's label as the XOR mask that makes it the all-zeros
root, need no distances.  The definitional brute-force versions (among
them the sweep over all 2^idim masks), and the expansion construction,
live with the tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, repeat
from operator import neg, sub


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
    """An undirected graph with optional labels; its all-pairs distance
    table is built on first use, for the Theta classes."""

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

    @property
    def is_connected(self) -> bool:
        return all(len(self.dist[v]) == len(self.vertices) for v in self.vertices[:1])

    @cached_property
    def is_bipartite(self) -> bool:
        side = flood(self.vertices, self.adjacency.__getitem__)
        return all(side[u][1] != side[v][1] for u, v in self.edges)


# ---------------------------------------------------------------------------
# bit labels
# ---------------------------------------------------------------------------


def _to_bits(label: str) -> int:
    """Bit string to ``int``: string position i is bit i."""
    return int(label[::-1] or "0", 2)


def _to_str(bits: int, n: int) -> str:
    return format(bits, f"0{n}b")[::-1] if n else ""


def _isometric(mg: MetricGraph, bits: dict) -> bool:
    """Certify that Hamming distance of the labels is graph distance.

    Accepts exactly when every edge flips one bit and, with F(u) the OR of
    the bits flipped at u, (L(u) ^ L(v)) & F(u) != 0 for every u != v.
    Single-bit edges make graph distance at least Hamming distance; the
    second condition gives u a neighbour one bit closer to v, so by
    induction graph distance is at most Hamming distance.  It fails on
    repeated labels and on a disconnected graph.  No table is built."""
    flips = dict.fromkeys(mg.vertices, 0)
    for u, v in mg.edges:
        bit = bits[u] ^ bits[v]
        if bit.bit_count() != 1:
            return False
        flips[u] |= bit
        flips[v] |= bit
    labels = [bits[v] for v in mg.vertices]
    # u is the one vertex that agrees with u on every bit of F(u)
    return all(
        list(map(flips[u].__and__, map(bits[u].__xor__, labels))).count(0) == 1
        for u in mg.vertices
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

    Builds a candidate labelling from the distance table (one bit per Theta
    class, the first vertex on the zero side everywhere) and certifies it
    isometric; the certificate is the verdict.  The verdict is computed
    once per graph and shared by the other recognizers.
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
    distance for all pairs, by the label certificate (no distance table)."""
    return _isometric(mg, {v: _to_bits(labels[v]) for v in mg.vertices})


def isometric_bits(mg: MetricGraph, labels: dict):
    """``int`` labels that embed the graph isometrically: the given bit
    strings when they pass the certificate, else the partial-cube labels,
    or None when the graph is not a partial cube."""
    bits = {v: _to_bits(labels[v]) for v in mg.vertices}
    return bits if _isometric(mg, bits) else is_partial_cube(mg).bits


@dataclass(frozen=True)
class DaisyVerdict:
    ok: bool
    labelling: dict = None  # a proper labelling when one exists
    idim: int = None
    reason: str = None

    def __bool__(self):
        return self.ok


def is_daisy_cube(mg: MetricGraph) -> DaisyVerdict:
    """Search for a proper labelling realizing the graph as a daisy cube.

    A proper labelling is an isometric hypercube embedding whose image is
    a downward-closed subset of the bit strings.  Up to the order of the
    bits, every such embedding is the partial-cube labelling with some bits
    flipped, and its image holds the all-zeros string, so the flip mask is
    some vertex's label: trying every vertex as the all-zeros root is
    decisive.  At most one pass over the vertices, with no cap.
    """
    pc = is_partial_cube(mg)
    if not pc:
        return DaisyVerdict(False, reason=f"not a partial cube ({pc.reason})")
    n = pc.idim
    present = set(pc.bits.values())
    for root in mg.vertices:
        mask = pc.bits[root]
        if _is_down_set({b ^ mask for b in present}):
            labelling = {v: _to_str(b ^ mask, n) for v, b in pc.bits.items()}
            return DaisyVerdict(True, labelling, n)
    return DaisyVerdict(False, idim=n, reason="no root works")


# ---------------------------------------------------------------------------
# convexity
# ---------------------------------------------------------------------------


def is_convex_subset(mg: MetricGraph, subset, bits: dict) -> bool:
    """Whether every shortest path between members stays inside the subset.

    ``bits`` must be an isometric labelling of the graph (certified, or the
    partial-cube labels).  A neighbour w of u is a step on a shortest path
    from u to v exactly when (L(w) ^ L(u)) & (L(u) ^ L(v)) != 0, and every
    shortest path is a chain of such steps, so the subset is convex when no
    step from a member towards another member leaves it: with X(u) the OR
    of the bits that u's edges to non-members flip, (L(u) ^ L(v)) & X(u) is
    0 for all members u, v.  O(|S|^2) word operations."""
    members = set(subset)
    labels = [bits[v] for v in members]
    for u in members:
        lu = bits[u]
        leaving = 0
        for w in mg.adjacency[u]:
            if w not in members:
                leaving |= bits[w] ^ lu
        if leaving and any(map(leaving.__and__, map(lu.__xor__, labels))):
            return False
    return True
