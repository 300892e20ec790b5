"""Definitional metric oracles, kept for the tests only.

These are the brute-force versions of the recognizers in
``rescube.cube_kit``: components and bipartiteness from union-find instead
of a traversal, Theta from the four-point inequality on every pair of
edges, partial cubes from string labels checked pair by pair, medianness
from the intersection of the three intervals of every vertex triple, and
daisy cubes from string orientation flips.  The library's flood fill and
bit-vector core must agree with them; ``test_cube_oracles.py`` checks that
they do.
"""

from itertools import combinations

from rescube.cube_kit import (
    _EXHAUSTIVE_IDIM_CAP,
    DaisyVerdict,
    MetricGraph,
    PartialCubeVerdict,
    ThetaClasses,
)
from rescube.errors import CapExceeded


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
    return mg.d(x1, y1) + mg.d(x2, y2) != mg.d(x1, y2) + mg.d(x2, y1)


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
    return all(
        hamming(labels[u], labels[v]) == mg.d(u, v)
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
        if mg.d(root, x) > mg.d(root, y):
            x, y = y, x
        for v in mg.vertices:
            dx, dy = mg.d(v, x), mg.d(v, y)
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

    def iv(a, b):
        return mg.interval(a, b) if a != b else frozenset((a,))

    return all(
        len(iv(u, v) & iv(v, w) & iv(u, w)) == 1
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


def is_daisy_cube(mg: MetricGraph, method: str = "auto") -> DaisyVerdict:
    """Orientation search over string labels: every root, then every mask."""
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

    if method not in ("auto", "roots", "exhaustive"):
        raise ValueError(f"unknown method {method!r}")
    if method in ("auto", "roots"):
        for root in mg.vertices:
            mask = sum(1 << i for i, c in enumerate(base[root]) if c == "1")
            labelling = flipped(mask)
            if is_downward_closed(labelling.values()):
                return DaisyVerdict(True, labelling, n, method="roots")
        if method == "roots":
            return DaisyVerdict(False, idim=n, method="roots", reason="no root works")
    if n > _EXHAUSTIVE_IDIM_CAP:
        raise CapExceeded(f"orientation sweep over idim {n} exceeds the cap")
    for mask in range(1 << n):
        labelling = flipped(mask)
        if is_downward_closed(labelling.values()):
            return DaisyVerdict(True, labelling, n, method="exhaustive")
    return DaisyVerdict(False, idim=n, method=method, reason="no orientation works")
