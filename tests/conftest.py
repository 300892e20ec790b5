"""Shared fixtures: small benzenoids and hand-built plane graphs."""

import pytest

from rescube.benzenoid import build_benzenoid, hexagon_face_id
from rescube.plane_graph import build_plane_graph

# five fused hexagons: a branched catacondensed system whose resonance graph
# has 14 vertices; rings two..five attach to rings one, two, three, two
BRANCHED_CELLS = ((0, 0), (1, -1), (2, -1), (2, 0), (1, -2))


def zigzag(h):
    """h rings from (0, 0), stepping q + 1 and r + 1 in turn."""
    cells = [(0, 0)]
    for i in range(1, h):
        q, r = cells[-1]
        cells.append((q + 1, r) if i % 2 else (q, r + 1))
    return build_benzenoid(cells)


@pytest.fixture(scope="session")
def hexagon():
    return build_benzenoid([(0, 0)])


@pytest.fixture(scope="session")
def branched5():
    return build_benzenoid(BRANCHED_CELLS)


@pytest.fixture(scope="session")
def branched5_faces(branched5):
    """Face ids of the five rings in attachment order (ring 1 first)."""
    return tuple(hexagon_face_id(branched5, c) for c in BRANCHED_CELLS)


@pytest.fixture(scope="session")
def naphthalene():
    return build_benzenoid([(0, 0), (1, 0)])


@pytest.fixture(scope="session")
def phenanthrene():
    return build_benzenoid([(0, 0), (1, 0), (1, 1)])


@pytest.fixture(scope="session")
def anthracene():
    return build_benzenoid([(0, 0), (1, 0), (2, 0)])


@pytest.fixture(scope="session")
def pyrene():
    return build_benzenoid([(0, 0), (1, 0), (0, 1), (-1, 1)])


@pytest.fixture(scope="session")
def triphenylene():
    return build_benzenoid([(0, 0), (1, 0), (-1, 1), (0, -1)])


def _shifted_union(graphs, dx=50):
    """Disjoint union of coordinate graphs, shifting each copy to the right."""
    vertices = []
    edges = []
    offset = 0
    shift = 0
    for g in graphs:
        remap = {v: v + offset for v in g.vertices}
        for v in g.vertices:
            x, y = g.coords[v]
            vertices.append((remap[v], x + shift, y))
        edges.extend((remap[u], remap[v]) for u, v in g.edges)
        offset += max(g.vertices) + 1
        shift += dx
    return build_plane_graph(vertices, edges)


@pytest.fixture(scope="session")
def two_hexagons(hexagon):
    return _shifted_union([hexagon, hexagon])


@pytest.fixture(scope="session")
def branched5_plus_hexagon(branched5, hexagon):
    return _shifted_union([branched5, hexagon])


@pytest.fixture(scope="session")
def hexagon_plus_naphthalene(hexagon, naphthalene):
    return _shifted_union([hexagon, naphthalene])


@pytest.fixture(scope="session")
def hexagon_with_pendant_path(hexagon):
    """A hexagon with a path of two edges hanging off its rightmost vertex."""
    vertices = [(v, *hexagon.coords[v]) for v in hexagon.vertices]
    anchor = max(hexagon.vertices, key=lambda v: hexagon.coords[v][0])
    vertices += [(100, 10, 0), (101, 12, 0)]
    edges = list(hexagon.edges) + [(anchor, 100), (100, 101)]
    return build_plane_graph(vertices, edges)


@pytest.fixture(scope="session")
def nested_rings():
    """Two concentric octagons joined by two spokes two steps apart.

    Parity forces both spokes out of every perfect matching, and deleting
    them leaves the two rings whose disk faces are not faces of the original
    graph: the graph is not weakly elementary."""
    outer = [(4, 0), (3, 3), (0, 4), (-3, 3), (-4, 0), (-3, -3), (0, -4), (3, -3)]
    inner = [(2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1), (0, -2), (1, -1)]
    vertices = [(i, *outer[i]) for i in range(8)]
    vertices += [(8 + i, *inner[i]) for i in range(8)]
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
    edges += [(0, 8), (2, 10)]
    return build_plane_graph(vertices, edges)
