"""Resonance graphs with face-labelled edges.

The resonance graph of a plane bipartite graph has the perfect matchings as
vertices; two matchings are adjacent exactly when their symmetric difference
is the boundary cycle of a single finite face, and the edge carries that
face as its label.
"""

from __future__ import annotations

import json
from functools import cached_property

from .cube_kit import MetricGraph, class_sides
from .errors import InternalInvariantBroken, NotAPartialCube
from .matchings import MatchingFamily, bit_ids, resonance_columns
from .plane_graph import PlaneGraph


class ResonanceGraph:
    """Face-labelled resonance graph over a matching family.

    ``pairs``, its one stored form, maps each finite face to the bitsets of
    the matchings under which it is proper and improper resonant; the
    face's edges join the k-th proper id to the k-th improper id, so the
    two must be of one size (else :class:`InternalInvariantBroken`).
    :attr:`edges` lists the edges for the exports only, and the one
    adjacency is the metric graph's (:meth:`metric`)."""

    def __init__(self, family: MatchingFamily, pairs: dict):
        for fid, (proper, improper) in pairs.items():
            if proper.bit_count() != improper.bit_count():
                raise InternalInvariantBroken(
                    f"face {fid} has {proper.bit_count()} proper and "
                    f"{improper.bit_count()} improper resonant matchings"
                )
        self.family = family
        self.vertices = tuple(family.ids)
        self.pairs = pairs  # face_id -> (proper, improper)

    def __len__(self):
        return len(self.vertices)

    def iter_edges(self):
        """Each edge as (proper id, improper id, face_id), face by face."""
        for fid, (proper, improper) in self.pairs.items():
            for u, v in zip(bit_ids(proper), bit_ids(improper)):
                yield u, v, fid

    @cached_property
    def edges(self) -> tuple:
        """The sorted (id, id, face_id) triples, id < id, for the exports."""
        return tuple(sorted((min(u, v), max(u, v), fid) for u, v, fid in self.iter_edges()))

    def metric(self) -> MetricGraph:
        """R(G) as a metric graph, built once, so that its embedding and its
        label certificates are shared by every caller."""
        return self._metric

    @cached_property
    def _metric(self) -> MetricGraph:
        return MetricGraph(self.vertices, ((u, v) for u, v, _ in self.iter_edges()))

    @cached_property
    def theta_sides(self) -> dict:
        """Face -> the side of the Theta class of R(G) that its edges form,
        as a bitset over matching ids (the metric graph's vertex positions),
        for every face whose edges form one: one map per R(G).  Empty when
        R(G) is not a partial cube."""
        try:
            sides = class_sides(self.metric())
        except NotAPartialCube:
            return {}
        faces = {}
        for u, v, fid in self.iter_edges():
            faces.setdefault(fid, set()).add((min(u, v), max(u, v)))
        faces = {frozenset(edges): fid for fid, edges in faces.items()}
        return {faces[cls]: side for cls, side in sides.items() if cls in faces}


def build_resonance(g: PlaneGraph, family: MatchingFamily) -> ResonanceGraph:
    """Construct the edges by pairing, on each finite face, the matchings
    under which it is proper resonant with those under which it is improper
    resonant, in id order.  ``family`` must be enumerated
    (:func:`~rescube.matchings.enumerate_matchings`), so that its ids follow
    the order :class:`~rescube.matchings.MatchingFamily` documents.

    The edge labelled f joins M to the twist M xor the boundary of f, and
    the k-th proper id pairs with the k-th improper id, because:

    (a) M xor the boundary of f is a perfect matching exactly when f is
        M-alternating, and the twist swaps the matched half of the boundary,
        so it is a bijection from the proper to the improper resonant
        matchings of f (Lam and Zhang, Order 20, 2003);
    (b) of two matchings, the one that gives the smaller mate to the smallest
        vertex whose mates differ has the smaller id;
    (c) two matchings under which f is proper resonant hold the same half of
        its boundary, so they agree on every vertex of f; twisting both
        changes no mate where they differ, and so keeps their order.

    Both resonant sets come from the family's columns
    (:func:`~rescube.matchings.resonance_columns`), and R(G) keeps them as
    they are, so no edge set is built or looked up.  Raises
    :class:`InternalInvariantBroken` when a face has more proper than
    improper resonant matchings or fewer.
    """
    pairs = {face.id: resonance_columns(g, family, face.id) for face in g.finite_faces}
    return ResonanceGraph(family, pairs)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def resonance_to_dot(r: ResonanceGraph, labels=None, face_names=None) -> str:
    """Deterministic DOT text; optional label texts (vertex -> string, as
    :func:`rescube.coding.bit_string` makes them) annotate the nodes."""
    names = face_names or {}
    lines = ["graph resonance {"]
    for v in r.vertices:
        if labels:
            lines.append(f'  M{v} [label="M{v}\\n{labels[v]}"];')
        else:
            lines.append(f'  M{v} [label="M{v}"];')
    for u, v, fid in r.edges:
        lines.append(f'  M{u} -- M{v} [face="{names.get(fid, f"s{fid}")}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def resonance_to_json(r: ResonanceGraph) -> str:
    obj = {
        "vertices": [{"id": v} for v in r.vertices],
        "edges": [{"face": f"s{fid}", "u": u, "v": v} for u, v, fid in r.edges],
    }
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
