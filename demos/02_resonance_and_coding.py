"""
Resonance graphs and the two binary codings
===========================================

Perfect matchings become vertices; flipping one finite face at a time
becomes edges.  Two codings of the matchings embed the resonance graph
into a hypercube: one realizes it as a daisy cube, the other as a finite
distributive lattice, and they differ only in how each edge class is
oriented.
"""

from rescube import (
    auto_rfd,
    bit_string,
    build_benzenoid,
    build_resonance,
    daisy_labelling,
    enumerate_matchings,
    extremal_matchings,
    fdl_labelling,
    resonance_to_dot,
)

g = build_benzenoid([(0, 0), (1, -1), (2, -1), (2, 0), (1, -2)])
family = enumerate_matchings(g)
print("perfect matchings:", len(family))

r = build_resonance(g, family)
print("resonance graph:", len(r), "vertices,", len(r.edges), "edges")

# Each edge carries the finite face whose boundary is the symmetric
# difference of its two matchings.
u, v, face = r.edges[0]
print(f"edge M{u} -- M{v} flips face {face}")

# Bit positions follow a reducible face decomposition (here chosen
# automatically: peel reducible faces greedily, then reverse).
rfd = auto_rfd(g)
print("\nface order:", rfd.faces)
print("attachment:", rfd.attachment)

# A label is an int whose bit p - 1 is position p; bit_string writes it
# out with position 1 first.
daisy = daisy_labelling(g, family, rfd)
shown = {mid: bit_string(label, daisy.length) for mid, label in daisy.labels.items()}
print("\ndaisy labels:", sorted(shown.values()))

# The daisy coding's minimum is the matching that makes every finite face
# resonant at once; the lattice coding bottoms out at the matching without
# proper alternating cycles and tops out at its improper twin.
lattice = fdl_labelling(g, family, rfd)
special = extremal_matchings(r)
bottom, top = (
    bit_string(lattice.labels[mid], lattice.length)
    for mid in (special.lattice_bottom, special.lattice_top)
)
print("\nfully resonant matching  ->", shown[special.fully_resonant], "(daisy)")
print("lattice bottom matching  ->", bottom, "(fdl)")
print("lattice top matching     ->", top, "(fdl)")

# Both codings flip exactly the bit of the flipped face across every edge.
for u, v, face in r.edges[:3]:
    position = (daisy.labels[u] ^ daisy.labels[v]).bit_length()
    print(f"edge M{u}--M{v}: {shown[u]} -> {shown[v]}, flips position {position},"
          f" face at that position: {rfd.faces[position - 1]}")

# DOT export for rendering
print("\nDOT preview:")
print("\n".join(resonance_to_dot(r, labels=shown).splitlines()[:5]))
