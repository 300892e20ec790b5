"""
The decomposition structure, checked step by step
=================================================

Every finite face of a peripherally 2-colorable graph cuts the resonance
graph into two sides along its edge class, and a reducible face
decomposition rebuilds the whole resonance graph from a single edge by
peripheral convex expansions.  This demo runs those instance checks and
prints what they see.
"""

from rescube import (
    build_benzenoid,
    build_resonance,
    enumerate_matchings,
    find_reducible_faces,
    rfd_from_face_order,
    split_by_face,
    theorem_report,
    verify_reducible_split,
)
from rescube.benzenoid import hexagon_face_id

cells = [(0, 0), (1, -1), (2, -1), (2, 0), (1, -2)]
g = build_benzenoid(cells)
family = enumerate_matchings(g)
r = build_resonance(g, family)

print("reducible faces:", sorted(find_reducible_faces(g)))

# Fix the decomposition order ring one .. ring five.
order = [hexagon_face_id(g, c) for c in cells]
rfd = rfd_from_face_order(g, order)
print("face order:", rfd.faces)
print("attachment map:", rfd.attachment)
print("subgraph edge counts:", [len(e) for e in rfd.subgraph_edges])

# Splitting along each face: the face's edges are one Theta class of the
# resonance graph, whose two sides are the avoid side and the contain side;
# the class is a perfect matching between them, the avoid side is strictly
# larger, the contain side is peripheral.  Being peripheral, the contain
# side has one vertex per class edge, and the avoid side holds the rest.
# R(G) holds each class as two bitsets of matchings, the proper and the
# improper resonant ones, the k-th of one joined to the k-th of the other.
print("\nface splits (avoid side / contain side / class size):")
for face in g.finite_faces:
    clauses = split_by_face(g, r, face.id)
    proper, _ = r.pairs[face.id]
    size = proper.bit_count()
    print(f"  face {face.id}: {len(family) - size:2d} / {size} / {size}"
          f"   all clauses pass: {all(clauses.values())}")

# Step checks: each step restricts to the previous subgraph, finds the
# convex o-closed inner side at the attachment position, and expands.  Every
# clause comes back in the report, true or false.
print("\nexpansion steps:")
for report in verify_reducible_split(g, r, rfd):
    d = report.details
    print(f"  step {report.step}: {d['minus_size']} + {d['plus_size']} vertices,"
          f" copies {d['inner_size']};  ok: {report.ok}")

# And the whole suite at once.
report = theorem_report(g, rfd)
print("\nfull report ok:", report["ok"])
print("labelling checks:", report["labelling"])
