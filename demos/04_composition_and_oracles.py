"""
Composition over components, and the metric oracles saying no
=============================================================

Resonance graphs multiply over elementary components, concatenating the
codings.  The metric recognizers (partial cube, median, daisy cube)
also reject the right graphs: a pericondensed system loses the daisy
structure, and a graph that is not weakly elementary loses connectivity.
"""

from rescube import (
    build_benzenoid,
    build_plane_graph,
    build_resonance,
    cartesian_compose,
    connectivity_report,
    edge_subgraph,
    elementary_analysis,
    enumerate_matchings,
    is_daisy_cube,
    is_median,
    is_partial_cube,
    same_labelled_resonance,
)

# Two hexagons drawn far apart: one plane graph, two elementary components.
hexagon = build_benzenoid([(0, 0)])
vertices = [(v, *hexagon.coords[v]) for v in hexagon.vertices]
vertices += [(v + 10, hexagon.coords[v][0] + 50, hexagon.coords[v][1])
             for v in hexagon.vertices]
edges = list(hexagon.edges) + [(u + 10, v + 10) for u, v in hexagon.edges]
two = build_plane_graph(vertices, edges)

analysis = elementary_analysis(two)
print("elementary components:", len(analysis.elementary_components))
print("weakly elementary:", analysis.is_weakly_elementary)

parts = []
for comp in analysis.elementary_components:
    sub = edge_subgraph(two, [e for e in analysis.allowed_edges if set(e) <= comp])
    parts.append(build_resonance(sub, enumerate_matchings(sub)))

direct = build_resonance(two, enumerate_matchings(two))
product = cartesian_compose(parts)
print("direct == product of parts:", same_labelled_resonance(direct, product))
print("the product of two single edges is a four-cycle:",
      len(product), "vertices,", len(product.edges), "edges")

# Pyrene has interior branch vertices; its resonance graph is still a
# median partial cube but no orientation of the classes is downward closed.
pyrene = build_benzenoid([(0, 0), (1, 0), (0, 1), (-1, 1)])
metric = build_resonance(pyrene, enumerate_matchings(pyrene)).metric()
print("\npyrene resonance graph:")
print("  partial cube:", is_partial_cube(metric).ok)
print("  median:      ", is_median(metric))
print("  daisy cube:  ", is_daisy_cube(metric).ok)

# Two nested octagons joined by two spokes: parity keeps both spokes out of
# every perfect matching, deleting them exposes a face that never existed,
# and the resonance graph falls apart.
outer = [(4, 0), (3, 3), (0, 4), (-3, 3), (-4, 0), (-3, -3), (0, -4), (3, -3)]
inner = [(2, 0), (1, 1), (0, 2), (-1, 1), (-2, 0), (-1, -1), (0, -2), (1, -1)]
ring_vertices = [(i, *outer[i]) for i in range(8)]
ring_vertices += [(8 + i, *inner[i]) for i in range(8)]
ring_edges = [(i, (i + 1) % 8) for i in range(8)]
ring_edges += [(8 + i, 8 + (i + 1) % 8) for i in range(8)]
ring_edges += [(0, 8), (2, 10)]
nested = build_plane_graph(ring_vertices, ring_edges)

analysis = elementary_analysis(nested)
print("\nnested rings weakly elementary:", analysis.is_weakly_elementary)
print("forbidden edges:", sorted(analysis.forbidden_edges))
r = build_resonance(nested, enumerate_matchings(nested))
print("resonance graph components:", connectivity_report(r))
