"""Finite-graph metric machinery: the component search, the edge relation
Theta, partial-cube and median recognition, daisy-cube recognition with
proper labellings, and the down-set test on labels.

No distance table is built.  A graph that comes without labels is embedded
from one pair of breadth-first rows per Theta class: the rows from the ends
x, y of the smallest unclassified edge split the vertices into those nearer
x and those nearer y, the edges between the two halves are the class, and
the far half sets the class's bit.  On a partial cube Theta is transitive
(Winkler, "Isometric embedding in products of complete graphs", 1984), so
one representative's crossing set is its whole class; Eppstein
("Recognizing partial cubes in quadratic time", 2011) builds on the same
fact.  A label is an ``int`` whose bit i is coordinate i of the hypercube.
Labels, found so or given, are certified: they are isometric exactly when
every edge flips one bit and every vertex differs from every other vertex
at a bit that one of its own edges flips.  On certified labels
distance is popcount, so medianness (closure under bitwise majority;
Bandelt and Chepoi, "Metric graph theory and geometry: a survey", 2008)
and the daisy search (the per-bit majority as the XOR mask that makes the
labels a down-set) need no distances.  The convexity of a decomposition
step's inner side is read off R(G)'s face pairs in
``rescube.decomposition``, its o-closure by the down-set test.  The
definitional brute-force versions, the distance table and the Theta
classes read from its distance differences, convexity from labels and from
intervals, the operator o, and the expansion construction live with the
tests as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import NotAPartialCube

_NOT_TRANSITIVE = "Theta not transitive"


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
    """An undirected graph; its partial-cube embedding is built on first
    use."""

    def __init__(self, vertices, edges):
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

    @cached_property
    def _flood(self) -> dict:
        return flood(self.vertices, self.adjacency.__getitem__)

    @cached_property
    def _theta(self):
        """The BFS-pair embedding, or why the graph is not a partial cube."""
        return _embed_by_bfs_pairs(self)

    @cached_property
    def _embedding(self) -> "PartialCubeVerdict":
        """The partial-cube verdict, computed once per graph."""
        return _embed(self)

    @property
    def is_connected(self) -> bool:
        return all(root == self.vertices[0] for root, _ in self._flood.values())

    @cached_property
    def is_bipartite(self) -> bool:
        side = self._flood
        return all(side[u][1] != side[v][1] for u, v in self.edges)


# ---------------------------------------------------------------------------
# bit labels
# ---------------------------------------------------------------------------


def _transpose(rows: list, width: int) -> list:
    """The bit matrix transposed: bit k of entry i is bit i of ``rows[k]``;
    ``width`` entries, one per bit of the rows."""
    if not rows or not width:
        return [0] * width
    digits = [format(row, f"0{width}b") for row in reversed(rows)]
    return [int("".join(column), 2) for column in zip(*digits)][::-1]


def _isometric(mg: MetricGraph, bits: dict, sides: list = None) -> bool:
    """Certify that Hamming distance of the labels is graph distance.

    Accepts exactly when every edge flips one bit and, with F(u) the OR of
    the bits flipped at u, (L(u) ^ L(v)) & F(u) != 0 for every u != v.
    Single-bit edges make graph distance at least Hamming distance; the
    second condition gives u a neighbour one bit closer to v, so by
    induction graph distance is at most Hamming distance.  It fails on
    repeated labels and on a disconnected graph.  ``sides[i]`` has bit k
    set when vertex k has bit i (built from the labels when not given); the
    vertices that agree with u on F(u) are the AND of |F(u)| of them and
    their complements, and u passes when that AND holds u alone."""
    flips = dict.fromkeys(mg.vertices, 0)
    for u, v in mg.edges:
        bit = bits[u] ^ bits[v]
        if bit.bit_count() != 1:
            return False
        flips[u] |= bit
        flips[v] |= bit
    if sides is None:
        labels = [bits[v] for v in mg.vertices]
        sides = _transpose(labels, max(labels, default=0).bit_length())
    everyone = (1 << len(mg.vertices)) - 1
    for k, u in enumerate(mg.vertices):
        lu, rest, agree = bits[u], flips[u], everyone
        while rest:
            low = rest & -rest
            side = sides[low.bit_length() - 1]
            agree &= side if lu & low else ~side
            rest ^= low
        if agree != 1 << k:
            return False
    return True


def is_downward_closed(labels) -> bool:
    """Whether a set of labels is closed downward in the bitwise order:
    every lower cover (one set bit cleared) of every member is a member,
    which by induction gives the whole closure."""
    present = set(labels)
    for lab in present:
        rest = lab
        while rest:
            low = rest & -rest
            if lab ^ low not in present:
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


@dataclass(frozen=True)
class _Embedding:
    theta: ThetaClasses
    bits: dict  # vertex -> int, bit i for class i
    sides: list  # class i -> int, bit k set when vertex k has bit i


def _distances(neighbours: list, source: int) -> list:
    """One breadth-first row: the distance of every vertex index from
    ``source`` in a connected graph given by neighbour index lists."""
    row = [-1] * len(neighbours)
    row[source] = 0
    frontier = [source]
    step = 0
    while frontier:
        step += 1
        reached = []
        for v in frontier:
            for w in neighbours[v]:
                if row[w] < 0:
                    row[w] = step
                    reached.append(w)
        frontier = reached
    return row


def _embed_by_bfs_pairs(mg: MetricGraph):
    """Theta classes and labels from two BFS rows per class, certified.

    The smallest unclassified edge xy starts class i: the vertices nearer
    y than x (the graph is connected and bipartite, so none is equidistant)
    form one half, the edges between the halves form the class, and bit i
    is set on the half without the first vertex.  Classes come out ordered
    by their smallest edge.  Two overlapping crossing sets show Theta is
    not transitive; so does a failed certificate, since a connected
    bipartite graph with transitive Theta is a partial cube (Winkler).
    Returns the reason as a string on every graph that is not a partial
    cube."""
    if not mg.vertices:
        return "empty graph"
    if not mg.is_connected:
        return "not connected"
    if not mg.is_bipartite:
        return "not bipartite"
    position = {v: k for k, v in enumerate(mg.vertices)}
    neighbours = [[position[w] for w in mg.adjacency[v]] for v in mg.vertices]
    edges = sorted(mg.edges)
    ends = [(position[u], position[v]) for u, v in edges]
    owner = [None] * len(edges)
    classes, sides = [], []
    everyone = (1 << len(mg.vertices)) - 1
    for k, (x, y) in enumerate(ends):
        if owner[k] is not None:
            continue
        near_x, near_y = _distances(neighbours, x), _distances(neighbours, y)
        far = "".join(["1" if a > b else "0" for a, b in zip(near_x, near_y)])
        crossing = [j for j, (a, b) in enumerate(ends) if far[a] != far[b]]
        if any(owner[j] is not None for j in crossing):
            return _NOT_TRANSITIVE
        for j in crossing:
            owner[j] = len(classes)
        classes.append(frozenset(edges[j] for j in crossing))
        side = int(far[::-1], 2)
        sides.append(everyone ^ side if side & 1 else side)
    bits = dict(zip(mg.vertices, _transpose(sides, len(mg.vertices))))
    if not _isometric(mg, bits, sides):
        return _NOT_TRANSITIVE
    return _Embedding(ThetaClasses(tuple(classes), True), bits, sides)


def theta_classes(mg: MetricGraph) -> ThetaClasses:
    """The Theta classes of a partial cube, ordered by their smallest edge.

    Theta is an equivalence there, so ``raw_transitive`` is always True.
    On any other graph (empty, disconnected, not bipartite, or with Theta
    not transitive) raises :class:`NotAPartialCube`.  Computed once per
    graph, from one BFS pair per class."""
    found = mg._theta
    if isinstance(found, str):
        raise NotAPartialCube(found)
    return found.theta


def class_sides(mg: MetricGraph) -> dict:
    """Each Theta class of a partial cube -> its side: the vertices whose
    label has the class's bit, as a bitset over vertex positions (bit k for
    ``mg.vertices[k]``).  Raises :class:`NotAPartialCube` as
    :func:`theta_classes` does."""
    return dict(zip(theta_classes(mg).classes, mg._theta.sides))


# ---------------------------------------------------------------------------
# partial cubes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PartialCubeVerdict:
    ok: bool
    labelling: dict = None  # vertex -> int, bit i for class i; root gets 0
    idim: int = None
    theta_raw_transitive: bool = None
    reason: str = None

    def __bool__(self):
        return self.ok


def is_partial_cube(mg: MetricGraph) -> PartialCubeVerdict:
    """Recognize isometric subgraphs of hypercubes.

    Builds a candidate labelling from one BFS pair per Theta class (the
    first vertex on the zero side everywhere) and certifies it isometric;
    the certificate is the verdict.  The verdict is computed once per graph
    and shared by the other recognizers.
    """
    return mg._embedding


def _embed(mg: MetricGraph) -> PartialCubeVerdict:
    try:
        classes = theta_classes(mg).classes
    except NotAPartialCube as exc:
        reason = str(exc)
        # a connected bipartite graph fails only by a non-transitive Theta
        raw = False if reason == _NOT_TRANSITIVE else None
        return PartialCubeVerdict(False, theta_raw_transitive=raw, reason=reason)
    return PartialCubeVerdict(
        True, labelling=mg._theta.bits, idim=len(classes), theta_raw_transitive=True
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
    a and b, so induction on the distance covers every triple.  A pair at
    distance two has a common neighbour and differs at two bits e_i | e_j;
    majority(a, b, c) is (a & b) | (c & (e_i | e_j)), and c & (e_i | e_j)
    takes at most four values over the labels, collected once per bit pair.
    """
    if not mg.vertices:
        return True
    pc = is_partial_cube(mg)
    if not pc:
        return False
    bits = pc.labelling
    present = set(bits.values())
    projections = {}
    for w in mg.vertices:
        for a, b in combinations([bits[u] for u in mg.adjacency[w]], 2):
            differ = a ^ b
            values = projections.get(differ)
            if values is None:
                values = projections[differ] = {c & differ for c in present}
            base = a & b
            if any(base | value not in present for value in values):
                return False
    return True


# ---------------------------------------------------------------------------
# daisy cubes
# ---------------------------------------------------------------------------


def is_isometric_labelling(mg: MetricGraph, labels: dict) -> bool:
    """Whether Hamming distance on the labels equals graph distance for all
    pairs, by the label certificate (no distance table)."""
    return _isometric(mg, labels)


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
    a downward-closed set of labels.  Up to the order of the bits, every
    such embedding is the partial-cube labelling XOR some mask.
    In a down-set no bit is set on more labels than it is clear on
    (clearing it maps the first labels into the second), and a bit set on
    exactly half of them can be flipped without changing the set.  So the
    per-bit majority decides with one down-set test, and the labelling is
    the one that makes the first vertex (in vertex order) whose label
    agrees with the majority on every untied bit the zero root: the
    first root that works.
    """
    pc = is_partial_cube(mg)
    if not pc:
        return DaisyVerdict(False, reason=f"not a partial cube ({pc.reason})")
    n, size = pc.idim, len(mg.vertices)
    mask = untied = 0
    for i, side in enumerate(mg._theta.sides):
        ones = 2 * side.bit_count()
        if ones != size:
            untied |= 1 << i
        if ones > size:
            mask |= 1 << i
    if not is_downward_closed({b ^ mask for b in pc.labelling.values()}):
        return DaisyVerdict(False, idim=n, reason="no root works")
    root = next(b for b in pc.labelling.values() if (b ^ mask) & untied == 0)
    labelling = {v: b ^ root for v, b in pc.labelling.items()}
    return DaisyVerdict(True, labelling, n)
