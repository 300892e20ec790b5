"""Reducible faces, reducible face decompositions, and the instance checks
that rebuild a resonance graph from the one-edge graph by peripheral convex
expansions.

A finite face is reducible when its common periphery with the graph is a
single odd path whose internal removal leaves a plane elementary bipartite
graph.  A reducible face decomposition grows the graph from one facial
cycle by attaching odd ears, one new finite face per step; on peripherally
2-colorable inputs every step's face shares edges with exactly one earlier
face, recorded in the attachment map that drives the daisy label-set
construction.

The face conditions of the decomposition theorem (the two sides of a face's
edge class, the handle-set equalities, and the step checks' ear and inner
sides) are read from the matching family's per-edge columns: each is a set
of matchings held as one bitset over matching ids.  A face's two sides are
compared with the sides of the Theta class its edges form in the resonance
graph, so no check floods the resonance graph.  A step reads its ear and
inner path as the two arcs of its face's walk, and maps one prefix's
matchings, face pairs and daisy columns to the next by packing, so no
check builds a matching as an edge set or lists an edge, and each label
clause compares whole positions; the inner side's convexity is read off
the same face pairs.  R(G) is certified along the decomposition, step by
step, and not again as a whole graph.

Decompositions are found and checked on the graph's own facial walks, and
embed no subgraph.  The greedy peel keeps the remaining faces and their
periphery, and decides each candidate's elementarity from the rest's
adjacency alone.  A face order is checked ear by ear with no elementary
analysis of its prefixes: an even cycle with odd ears is elementary (the
bipartite ear theorem).  The step checks read each prefix off the graph's
first faces too (:func:`_prefix`), so no prefix is embedded either.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate
from operator import or_, xor

from . import cube_kit as ck
from . import coding
from . import plane_graph as pg
from .errors import (
    NoPerfectMatching,
    NotReducibleAtStep,
    PeelingStuck,
    TheoremViolated,
    UnsupportedInput,
)
from .matchings import (
    MatchingFamily,
    bit_ids,
    enumerate_matchings,
    extremal_matchings,
    handle_column,
    pack,
    resonance_columns,
)
from .plane_graph import (
    DEFAULT_MATCHING_CAP,
    PlaneGraph,
    _face_handles,
    edge_key,
    elementary_verdict,
    facial_handle_decomposition,
    is_peripherally_two_colorable,
)
from .resonance import ResonanceGraph, build_resonance


@dataclass(frozen=True)
class RfdSequence:
    """A reducible face decomposition: face order, the edge sets of the
    growing subgraphs, and the attachment map (1-based positions) when every
    step attaches to exactly one earlier face.  Prefix k is the union of the
    first k faces, ``subgraph_edges[k - 1]`` its edges (the last is the
    graph's); they take no part in equality or in the repr."""

    faces: tuple
    attachment: dict = None
    notes: tuple = field(default_factory=tuple)
    subgraph_edges: tuple = field(compare=False, repr=False, kw_only=True)

    @property
    def n(self) -> int:
        return len(self.faces)

    def prefix(self, i: int) -> "RfdSequence":
        att = None
        if self.attachment is not None:
            att = {k: v for k, v in self.attachment.items() if k <= i}
        return RfdSequence(self.faces[:i], att, self.notes, subgraph_edges=self.subgraph_edges[:i])


def _arc(face, edges):
    """The vertex path, along the face's walk, of the one run of walk edges
    that lie in ``edges``; None when none or all of them do, when they form
    several runs, or when the run passes a vertex twice."""
    inside = [edge_key(u, v) in edges for u, v in face.darts]
    starts = [k for k, held in enumerate(inside) if held and not inside[k - 1]]
    if len(starts) != 1:  # no run, or the whole walk, or several runs
        return None
    k = starts[0]
    length = (inside[k:] + inside[:k]).index(False)  # the run's edges
    path = (face.boundary[k:] + face.boundary[:k])[: length + 1]
    return path if len(set(path)) == len(path) else None


def _rest(face, edges, periphery):
    """The edges left of ``edges`` when the face's shared periphery path,
    its internal vertices and their edges are removed, if that path is odd;
    otherwise None.  The one rule of a decomposition step: read forward, the
    face attaches to the rest by an odd ear.  The path is the one run of
    ``periphery`` edges on the face's walk (:func:`_arc`), so a face all on
    the periphery has none."""
    path = _arc(face, periphery)
    if path is None or len(path) % 2:  # a path of an even number of edges
        return None
    internal = set(path[1:-1])
    path_edges = {edge_key(a, b) for a, b in zip(path, path[1:])}
    return frozenset(
        e for e in edges
        if e not in path_edges and e[0] not in internal and e[1] not in internal
    )


def _reduction(g: PlaneGraph, face_id: int, edges, periphery):
    """The face's :func:`_rest` in the subgraph of ``g`` on ``edges``, whose
    periphery is ``periphery``, when that rest is elementary; otherwise
    None.  Elementarity is decided from the rest's adjacency under ``g``'s
    coloring (:func:`~rescube.plane_graph.elementary_verdict`)."""
    rest = _rest(g.faces[face_id], edges, periphery)
    if rest is None:
        return None
    adjacency = _adjacency(rest)
    try:
        elementary, _ = elementary_verdict(list(adjacency), adjacency.__getitem__, g.coloring)
    except NoPerfectMatching:
        return None
    return rest if elementary else None


def _adjacency(edges) -> dict:
    """Each vertex of the edges -> its neighbours along them."""
    adjacency = {}
    for u, v in edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    return adjacency


def find_reducible_faces(g: PlaneGraph) -> frozenset:
    """Every finite face whose shared periphery is a single odd path and whose
    reduction stays plane elementary bipartite."""
    return frozenset(
        f.id for f in g.finite_faces
        if _reduction(g, f.id, g.edges, g.periphery_edges) is not None
    )


def _sequence(g: PlaneGraph, order: tuple) -> RfdSequence:
    """The decomposition of ``g`` with this face order; its attachment map
    names, for every step, the one earlier face whose edges the step's face
    shares, and is None when some step shares edges with several."""
    prefixes = accumulate((g.faces[fid].edges for fid in order[:-1]), or_)
    attachment = {}
    for idx in range(1, len(order)):
        edges = g.faces[order[idx]].edges
        sharers = [j + 1 for j in range(idx) if g.faces[order[j]].edges & edges]
        if len(sharers) != 1:
            attachment = None
            break
        attachment[idx + 1] = sharers[0]
    note = f"first face {order[0]} accepted because its boundary is a cycle"
    return RfdSequence(order, attachment, (note,), subgraph_edges=(*prefixes, g.edges))


def rfd_from_face_order(g: PlaneGraph, order) -> RfdSequence:
    """Validate a full face order as a reducible face decomposition.

    The first face only needs to bound a cycle.  Step i grows the union of
    the faces so far by face i; it holds when the face's edges outside the
    union are one odd path along its walk (:func:`_arc`) whose interior
    vertices are new.  Then every prefix is an even cycle (the graph is
    bipartite) with odd ears, which is elementary by the bipartite ear
    theorem (Lovasz and Plummer, *Matching Theory*, 4.1), and 2-connected,
    and its finite faces are the faces so far: each ear runs in the infinite
    face, since a face of the graph holds no edge, and splits off face i.
    So the ear is the face's shared periphery in the grown union, and the
    union before is its :func:`_rest` there.  Raises
    :class:`NotReducibleAtStep` at the first failing step.  No prefix is
    embedded or analysed.
    """
    order = tuple(order)
    finite_ids = sorted(f.id for f in g.finite_faces)
    if sorted(order) != finite_ids:
        raise ValueError(f"order must list all finite faces {finite_ids}")

    first = g.faces[order[0]]
    if len(set(first.boundary)) != len(first.boundary):
        raise NotReducibleAtStep(1, "first face boundary is not a cycle")
    edges, vertices = first.edges, set(first.boundary)
    for step in range(2, len(order) + 1):
        face = g.faces[order[step - 1]]
        ear = _arc(face, face.edges - edges)
        if ear is None or len(ear) % 2 or vertices.intersection(ear[1:-1]):
            raise NotReducibleAtStep(step, "face is not an odd ear on the periphery")
        edges |= face.edges
        vertices.update(ear)
    if edges != g.edges:
        raise NotReducibleAtStep(len(order), "edges remain outside all faces")
    return _sequence(g, order)


def auto_rfd(g: PlaneGraph) -> RfdSequence:
    """Greedy decomposition: repeatedly peel the face of smallest id that
    has a :func:`_reduction`, until one face is left.  The peel read
    backwards is the decomposition, and its rests are the prefixes.

    The peel runs on the graph's own faces.  The finite faces of an
    elementary rest are the other faces: removing the ear P merges the
    peeled face into the infinite face, and an internal vertex of P with a
    third edge would be a cut vertex, the infinite face passing it on both
    sides of P, so the rest would be disconnected or that edge a pendant
    one.  The rest is 2-connected, so its periphery is the set of its edges
    on exactly one of its finite faces: ``(periphery - P) | (face - P)``,
    less a pendant edge."""
    if len(g.vertices) <= 2:
        raise UnsupportedInput("need more than two vertices")
    if g.is_cycle_graph():
        face = g.finite_faces[0]
        return RfdSequence(
            (face.id,), {}, ("even cycle: single-face decomposition",),
            subgraph_edges=(g.edges,),
        )

    edges, periphery, faces = g.edges, g.periphery_edges, [f.id for f in g.finite_faces]
    peeled = []
    while not peeled or len(faces) != 1:  # g is not a cycle: one peel at least
        for fid in faces:
            rest = _reduction(g, fid, edges, periphery)
            if rest is not None:
                break
        else:
            raise PeelingStuck("no reducible face; the graph is not plane elementary")
        periphery = (periphery ^ g.faces[fid].edges) & rest
        edges, faces = rest, [h for h in faces if h != fid]
        peeled.append(fid)
    return _sequence(g, (faces[0], *reversed(peeled)))


# ---------------------------------------------------------------------------
# decomposition checks on the resonance graph
# ---------------------------------------------------------------------------


def _in_state(family, handles, contain: bool) -> int:
    """The matchings under which every handle contains (``contain``) or every
    handle avoids its end edges, as a bitset.  Handles are read in order
    while some matching is still in the state, so an even handle raises
    ValueError only when some matching's earlier handles are all in it."""
    held = family.full
    for h in handles:
        if not held:
            break
        col = handle_column(family, h.path)
        held &= col if contain else ~col
    return held


def split_by_face(g: PlaneGraph, r: ResonanceGraph, face_id: int):
    """Check the face-class split of the resonance graph.

    Removing the edges labelled by the face must leave exactly the
    avoid-all-end-edges side and the contain-all side, with the class a
    perfect matching between their boundary sets and the plus (contain)
    side peripheral: all of it ends of class edges, so resonant.  Returns
    the clauses; they stop at the first clause before ``class-matching``
    that fails or is undecided.  Every clause compares bitsets over
    matching ids: the sides, read from ``g``'s exterior handles (the face's
    handle decomposition, made once per graph), and the ends of the class's
    edges, read from R(G) (:attr:`ResonanceGraph.pairs`).  Raises
    ValueError when ``face_id`` is not a finite face of ``g``.

    The two components come from R(G)'s certified partial-cube embedding,
    not from a flood.  Let the face's edges be exactly Theta class i, and S
    the matchings whose label has bit i (:attr:`ResonanceGraph.theta_sides`).
    Every edge flips one bit of the certified labels, and only the class's
    edges flip bit i, so no other edge joins S to its complement.  Two
    vertices on one side are joined by a shortest path, which flips only the
    bits where its ends differ, never bit i, so it avoids the class.  Hence
    R(G) minus the class has exactly the two components S and its
    complement.  When R(G) is not a partial cube, or the face's edges form
    no Theta class, ``two-components`` is None (undecided) and the check
    stops there.
    """
    if face_id not in r.pairs:
        raise ValueError(f"face {face_id} is not a finite face of the graph")
    clauses = {}

    proper, improper = r.pairs[face_id]
    clauses["class-nonempty"] = bool(proper)
    if not proper:
        return clauses

    side = r.theta_sides.get(face_id)
    clauses["two-components"] = None if side is None else True
    if side is None:
        return clauses

    exterior = facial_handle_decomposition(g, face_id).exterior
    minus = _in_state(r.family, exterior, contain=False)
    plus = _in_state(r.family, exterior, contain=True)
    clauses["side-sets"] = {minus, plus} == {side, r.family.full ^ side}
    if not clauses["side-sets"]:
        return clauses

    # the sides partition the matchings, so size ends on each side are
    # 2 * size distinct ends: no two class edges share one
    ends, size = proper | improper, proper.bit_count()
    clauses["class-matching"] = (
        (ends & minus).bit_count() == (ends & plus).bit_count() == size
    )
    clauses["plus-peripheral"] = (ends & plus) == plus
    clauses["strictly-smaller-plus"] = plus.bit_count() < minus.bit_count()
    return clauses


@dataclass(frozen=True)
class StepReport:
    step: int
    clauses: dict
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


@dataclass(frozen=True)
class _Prefix:
    """One RFD prefix G_k, read once: its edges, matchings, face pairs in
    decomposition order (each face's proper and improper resonant
    matchings) and daisy labelling, and the whole graph's lattice
    labelling.  :func:`_chain` hands each record on to the next step."""

    edges: frozenset
    family: MatchingFamily
    pairs: tuple
    daisy: coding.Labelling
    fdl: coding.Labelling = None


def _prefix(g, r, rfd, k, cap) -> _Prefix:
    """The record of prefix k, read off ``g``'s first k faces, whose
    enumeration ``cap`` bounds; the last is ``g``'s, whose matchings and
    R(G) ``r`` holds, and whose codings are read in one pass.

    A prefix is 2-connected (an even cycle with odd ears) with those k
    faces of ``g`` as its finite faces (:func:`rfd_from_face_order`), so
    its periphery, the edges on just one of them, is their symmetric
    difference.  The matchings are enumerated on its adjacency, the face
    pairs read on ``g``'s walks, and the daisy columns split each walk by
    the prefix's own degrees.  G_1 is an even cycle, with one daisy bit."""
    faces = rfd.faces[:k]
    if k == rfd.n:
        daisy, fdl = coding.labellings(g, r.family, rfd)
        return _Prefix(g.edges, r.family, tuple(r.pairs[f] for f in faces), daisy, fdl)
    edges = rfd.subgraph_edges[k - 1]
    adjacency = _adjacency(edges)
    size, columns = pg.enumerate_matching_columns(sorted(adjacency), adjacency.__getitem__, cap)
    family = MatchingFamily(columns, size)
    pairs = tuple(resonance_columns(g, family, f) for f in faces)
    if k == 1:
        columns = [coding._cycle_column(g.coloring, pairs[0], adjacency)]
    else:
        periphery = reduce(xor, (g.faces[f].edges for f in faces))
        degree = {v: len(ns) for v, ns in adjacency.items()}.__getitem__
        exteriors = ((f, _face_handles(g.faces[f], degree, periphery).exterior) for f in faces)
        columns = coding._handle_columns(g, family, exteriors)[0]
    return _Prefix(edges, family, pairs, coding._certified_daisy(family, columns, rfd.prefix(k)))


def verify_reducible_split(g: PlaneGraph, r: ResonanceGraph, rfd: RfdSequence) -> tuple:
    """Instance checks of the decomposition steps 2..n, one report each, in
    order; ``()`` for a single face.

    Step i verifies that the avoid side of its face restricts to R(G_(i-1))
    (with the face's bit deleted from the daisy labels), that the inner side
    is convex and o-closed in it at zero bits of the attachment position,
    and that expanding along that side gives R(G_i) with the new bit
    appended (:func:`_check_step`).  ``r`` is the resonance graph of ``g``.
    Every clause is returned; only a decomposition without a complete
    attachment map raises :class:`TheoremViolated`.  The steps run in one
    pass, as in :func:`theorem_report` (see :func:`_chain`); a prefix's
    matchings extend to distinct matchings of ``g``, so ``len(r)`` bounds them.
    """
    return _chain(g, r, rfd, len(r))[0]


def _chain(g, r, rfd, cap):
    """Steps 2..n checked in order: their reports, the record of the whole
    graph (prefix n), and True when every step holds, else None.

    The steps certify R(G) by induction.  R(G_1) is K2, labelled 0 and
    1.  A step that holds grows R(G_(i-1)) by a peripheral expansion along
    a non-empty convex inner side; the lifts keep the labels of G_(i-1) and
    each twin has its lift's label with bit i set.  Such an expansion keeps
    the extended labels isometric (Chepoi, Cybernetics 24, 1988), and the
    graphs grown from K1 by convex expansions are the median graphs
    (Mulder, Discrete Math. 24, 1978).  So step i may read convexity from
    the daisy labels of G_(i-1) while steps 2..i-1 hold."""
    if rfd.attachment is None:
        raise TheoremViolated("attachment-unique", "no complete attachment map")
    cur, steps, holds = _prefix(g, r, rfd, 1, cap), [], True
    for i in range(2, rfd.n + 1):
        prev, cur = cur, _prefix(g, r, rfd, i, cap)
        steps.append(_check_step(g, rfd, i, prev, cur, holds))
        holds = holds and steps[-1].ok or None
    return tuple(steps), cur, holds


def _inside(pair, side: int) -> tuple:
    """The edges of a face class (two bitsets, k-th ids joined) inside
    ``side``, packed onto it, and whether no edge has just one end there."""
    in_a, in_b = (pack(side, x) for x in pair)  # bit k: edge k's end is in side
    if in_a != in_b:  # keep the edges with both ends in side
        keep = in_a & in_b
        pair = [sum(1 << u for k, u in enumerate(bit_ids(x)) if keep >> k & 1) for x in pair]
    return tuple(pack(x, side) for x in pair), in_a == in_b


def _is_convex(on_side, columns, members: int) -> bool:
    """Whether ``members`` (a bitset over ids) is a convex set of a graph
    whose labels, the transpose of ``columns``, are isometric and whose
    edges at position p flip bit p - 1; ``on_side[p - 1]`` is the face pair
    at position p read on the members by :func:`_inside`.  A neighbour w of
    u is a step on a shortest path from u to v exactly when the bit w flips
    is one where u and v differ, and every shortest path is a chain of such
    steps, so the set is convex when no step from a member towards another
    leaves it: no position whose column holds some but not all members has
    an edge with just one end inside."""
    varies = (col & members not in (0, members) for col in columns)
    return all(whole for (_, whole), vary in zip(on_side, varies) if vary)


def _check_step(
    g: PlaneGraph, rfd: RfdSequence, i: int, prev: _Prefix, cur: _Prefix, chain
) -> StepReport:
    """The clauses of step i, from the records of prefixes i - 1 and i;
    ``chain`` is True when every clause of steps 2..i-1 holds, else None.

    The ear and the inner path are the arcs of face i's walk outside and
    inside G_(i-1) (:func:`_arc`).  The restriction to G_(i-1), its inverse
    the lift, and the twist along the face's cycle C are compared as packed
    columns (:func:`pack`), so no matching is built or looked up as an edge
    set.  Matching k of G_(i-1) is the k-th matching of G_i that avoids the
    ear's end edges (the minus side), and the k-th twin is the k-th
    matching that holds them (the plus side).  Both families must come from
    :func:`~rescube.plane_graph.enumerate_matching_columns`, whose ids order
    matchings by the mate of the smallest vertex where two differ; the two
    orders follow from that:

    - restriction keeps rank: a minus matching avoids the ear's end edges,
      so it holds the ear's even edges, whose interior vertices have degree
      2.  Two minus matchings then agree on the ear and first differ at a
      vertex of G_(i-1), whose mates lie in G_(i-1), and both enumerations
      run on the graph's vertex ids;
    - twins keep order: lifted matchings under which C alternates hold the
      same half of C (the ear's even edges), so argument (c) of
      :func:`~rescube.resonance.build_resonance` applies to their twists.

    The label clauses compare daisy columns (:attr:`coding.Labelling.columns`)
    packed the same way: G_i's columns but the last, packed onto the minus
    side, are the kept labels, G_i's labels there without bit i.
    ``label-deletion`` holds when the last column is the plus side and the
    kept columns are G_(i-1)'s; G_1's one column is anchored by its own
    coloring and may be the complement, so at i = 2 the kept column need
    only split G_1's two matchings.  The inner side's label clauses read
    the kept labels, not G_(i-1)'s.

    The twins are derived from C, not from the resonant columns that built
    R(G_i), so the prediction of ``expansion-equality`` stays independent
    of that pairing; a lifted matching under which C does not alternate
    makes it false, and so does a twin whose daisy label is not its lift's
    with bit i set.  It meets R(G_i) position by position on the records'
    face pairs (:func:`_inside`): earlier, the lifts of R(G_(i-1))'s edges
    on the minus side, the twins of those inside the inner side on the plus
    side and no edge between; at i, the k-th lifted inner matching joined
    to the k-th twin.  Equal pairs, in either order, join the same ids.

    No distance table and no label certificate is built, and no edge of
    R(G_(i-1)) is listed.  With ``chain`` the daisy labels of G_(i-1) are
    isometric, and each edge of R(G_(i-1)) at position p flips exactly bit
    p - 1: by induction along :func:`_chain`, the lifted edges join lifts,
    which keep their labels, the twinned edges join twins, which each set
    the same new bit on their lift's label, and the new position's edges
    join a lift to its twin.  So ``inner-convex`` is read off the face
    pairs on the inner side and G_(i-1)'s columns (:func:`_is_convex`).
    Once ``label-deletion`` holds, the kept labels are G_(i-1)'s daisy
    labels, a down-set (:func:`coding.daisy_labelling` certifies it), in
    which the inner side is o-closed exactly when its labels are a down-set.
    ``expansion-flags`` is derived: the expansion along (all vertices,
    inner side) is peripheral by construction, and a non-empty convex side
    is connected and isometric, so the flags hold exactly when the inner
    side is non-empty, convex and o-closed.  Without ``chain``
    ``inner-convex`` and ``expansion-flags`` are None (undecided), and so
    is ``inner-le-subgraph`` without ``label-deletion``.
    """
    clauses, details = {}, {}

    fam_i, fam_prev = cur.family, prev.family
    col_i, col_prev = fam_i.columns, fam_prev.columns
    daisy_i = cur.daisy.columns

    face = g.faces[rfd.faces[i - 1]]
    ear = _arc(face, face.edges - prev.edges)
    inner = _arc(face, prev.edges)
    clauses["inner-path"] = ear is not None and inner is not None
    if not clauses["inner-path"]:
        return StepReport(i, clauses, details)

    # restriction: the k-th avoid-side matching of G_i is matching k of G_(i-1)
    plus_bits = handle_column(fam_i, ear)
    minus_bits = fam_i.full & ~plus_bits
    details["minus_size"] = minus_bits.bit_count()
    details["plus_size"] = plus_bits.bit_count()
    ok = details["minus_size"] == len(fam_prev) and all(
        pack(col_i.get(e, 0), minus_bits) == col_prev.get(e, 0) for e in prev.edges
    )
    clauses["restriction-bijection"] = ok
    if not ok:
        return StepReport(i, clauses, details)

    # R(G_(i-1)) has no edge at position i
    pairs, prev_pairs = cur.pairs, (*prev.pairs, (0, 0))
    on_minus = [_inside(pair, minus_bits) for pair in pairs]
    clauses["restriction-isomorphism"] = all(
        sorted(inside) == sorted(pair) for (inside, _), pair in zip(on_minus, prev_pairs)
    )

    # deleting the new bit, the last column, from the avoid side labels the
    # previous resonance graph as the previous daisy labelling does
    kept = [pack(col, minus_bits) for col in daisy_i[:-1]]
    same = kept == list(prev.daisy.columns) if i >= 3 else kept[0] in (1, 2)
    clauses["label-deletion"] = daisy_i[-1] == plus_bits and same

    # the inner-path side inside the previous resonance graph, and the face
    # pairs of R(G_(i-1)) read on it
    inner_bits = handle_column(fam_prev, inner)
    size = inner_bits.bit_count()
    on_inner = [_inside(pair, inner_bits) for pair in prev_pairs[:-1]]
    details["inner_size"] = size
    convex = chain and _is_convex(on_inner, prev.daisy.columns, inner_bits)
    clauses["inner-convex"] = convex
    o_closed = None  # undecided unless the kept labels are G_(i-1)'s
    if clauses["label-deletion"]:
        on_side = ck._transpose([pack(col, inner_bits) for col in kept], size)
        o_closed = ck.is_downward_closed(on_side)
    clauses["inner-le-subgraph"] = o_closed
    att = rfd.attachment[i]
    clauses["inner-zero-at-attachment"] = inner_bits == fam_prev.full & ~kept[att - 1]

    # expansion: the lift of matching k is minus[k], and the j-th twin, the
    # j-th lifted inner matching twisted along C, must be plus[j]: equal
    # columns on every edge, complemented on C.  minus and plus cover G_i's
    # matchings, so the twins are plus exactly when the vertices match.
    # minus[k] holds an edge of G_(i-1) exactly when matching k does, and
    # the inner path ends where the ear does, so the lifted inner side is
    # G_i's inner side
    inner_i = handle_column(fam_i, inner)
    on_cycle = (1 << size) - 1
    twins = details["plus_size"] == size and all(
        pack(col_i.get(e, 0), plus_bits)
        == pack(col_i.get(e, 0), inner_i) ^ (on_cycle if e in face.edges else 0)
        for e in cur.edges
    )
    # each twin's label is its lift's with the new bit set
    twins = twins and not plus_bits & ~daisy_i[-1] and all(
        pack(col, plus_bits) == pack(col, inner_i) for col in daisy_i[:-1]
    )
    clauses["expansion-equality"] = (
        twins
        and clauses["restriction-isomorphism"]
        and all(
            whole
            and sorted(pack(x, plus_bits) for x in pair) == sorted(inside)
            for pair, (_, whole), (inside, _) in zip(pairs, on_minus, on_inner)
        )
        and sorted(pairs[-1]) == sorted((inner_i, plus_bits))
    )

    clauses["expansion-flags"] = chain and bool(inner_bits) and convex and o_closed

    clauses["zero-positions"] = fam_i.full & ~(daisy_i[att - 1] | daisy_i[-1]) == inner_i

    return StepReport(i, clauses, details)


# ---------------------------------------------------------------------------
# whole-graph verification report
# ---------------------------------------------------------------------------


def theorem_report(
    g: PlaneGraph,
    rfd: RfdSequence = None,
    cap: int = DEFAULT_MATCHING_CAP,
    resonance: ResonanceGraph = None,
) -> dict:
    """Run every decomposition and coding check on one graph.

    The report nests one entry per clause per face and per step, plus the
    labelling, subset-equality, median and connectivity checks; ``ok``
    aggregates everything.  Works on peripherally 2-colorable inputs that
    are not even cycles.  ``cap`` bounds the enumeration of the perfect
    matchings of the graph and of each decomposition prefix; more of them
    raise :class:`CapExceeded`.  ``resonance`` is R(G) when the caller has
    built it already; the report then reuses it and its matching family
    instead of enumerating the graph again, and every face's resonant
    matchings are read off its face pairs.

    R(G) is certified once, by the step chain (:func:`_chain`): ``median``
    is its verdict, ``daisy_proper`` adds that the daisy labels are a
    down-set, and ``fdl_isometric`` that the lattice labels are the daisy
    labels XOR one mask.  All three are None once a step fails."""
    verdict = is_peripherally_two_colorable(g)
    report = {
        "peripherally_two_colorable": verdict.ok,
        "faces": {},
        "steps": {},
        "labelling": {},
        "subsets": {},
        "metric": {},
    }
    if not verdict.ok:
        report["failed_clause"] = verdict.failed_clause
        report["ok"] = False
        return report
    if g.is_cycle_graph():
        report["even_cycle"] = True
        report["ok"] = True
        return report

    if resonance is None:
        resonance = build_resonance(g, enumerate_matchings(g, cap=cap))
    r, family = resonance, resonance.family
    if rfd is None:
        rfd = auto_rfd(g)
    report["rfd"] = {
        "faces": list(rfd.faces),
        "attachment": {str(k): v for k, v in (rfd.attachment or {}).items()},
        "notes": list(rfd.notes),
    }

    for face in g.finite_faces:
        report["faces"][str(face.id)] = split_by_face(g, r, face.id)

    steps, last, chain = _chain(g, r, rfd, cap)
    report["steps"] = {str(step.step): dict(step.clauses) for step in steps}

    daisy, fdl = last.daisy, last.fdl  # the last step's record is the whole graph's
    metric = r.metric()
    extremal = extremal_matchings(r)
    bottom, top = extremal.lattice_bottom, extremal.lattice_top
    lab = report["labelling"]
    lab["daisy_proper"] = chain and ck.is_downward_closed(daisy.labels.values())
    lab["daisy_accepted_by_search"] = ck.is_daisy_cube(metric).ok
    masks = [d ^ f for d, f in zip(daisy.columns, fdl.columns)]  # per position
    lab["fdl_isometric"] = chain and all(m in (0, family.full) for m in masks)  # one XOR mask
    lab["fdl_bottom_zero"] = fdl.labels[bottom] == 0
    lab["fdl_top_ones"] = fdl.labels[top] == (1 << rfd.n) - 1
    lab["fdl_no_mixed_orientation"] = not fdl.mixed_orientation
    flip = {fid: 1 << p for p, fid in enumerate(rfd.faces)}  # the bit of each face
    lab["edges_flip_their_face_bit"] = all(
        labels[u] ^ labels[v] == flip[f]
        for labels in (daisy.labels, fdl.labels)
        for u, v, f in r.iter_edges()
    )
    lab["fully_resonant_is_daisy_zero"] = (
        extremal.fully_resonant is not None
        and daisy.labels[extremal.fully_resonant] == 0
    )
    lab["codings_differ"] = coding.codings_differ(daisy, fdl)

    subsets_ok = all(_subset_equalities_hold(g, r, face.id) for face in g.finite_faces)
    report["subsets"]["handle-set-equalities"] = subsets_ok

    # face classes are disjoint, so the faces whose edges form a Theta class
    # cover every class exactly when there are as many of them as classes
    report["metric"]["face_classes_are_theta_classes"] = (
        len(r.theta_sides) == len(g.finite_faces) == ck.is_partial_cube(metric).idim
    )
    report["metric"]["median"] = chain
    report["metric"]["connected"] = metric.is_connected

    report["ok"] = (
        all(all(c.values()) for c in report["faces"].values())
        and all(all(c.values()) for c in report["steps"].values())
        and all(v in (True, None) for v in lab.values())
        and subsets_ok
        and all(report["metric"].values())
    )
    return report


def _subset_equalities_hold(g: PlaneGraph, r: ResonanceGraph, face_id: int) -> bool:
    """The handle-set equalities of one finite face, read on bitsets of
    matchings: the handles from the face's handle decomposition, the
    resonant matchings from R(G)'s face pairs.

    With ext(M) and int(M) the state that all exterior, or all interior,
    handles of the face share under M, and res(M) whether M makes the face
    resonant, they hold when for every M:

    - ext(M) exists: then single-handle subsets equal the all-handle ones,
      and the two exterior sides partition the family;
    - ext(M) = contain implies res(M);
    - int(M) = avoid and res(M) exactly when ext(M) = contain;
    - int(M) = contain exactly when ext(M) = avoid and res(M).

    Every exterior condition is read before any interior handle, so a face
    that fails one returns False before an even interior handle can
    raise."""
    family, dec = r.family, facial_handle_decomposition(g, face_id)
    avoid = _in_state(family, dec.exterior, contain=False)
    contain = _in_state(family, dec.exterior, contain=True)
    if (avoid | contain) != family.full:
        return False
    proper, improper = r.pairs[face_id]
    resonant = proper | improper
    if contain & ~resonant:
        return False
    if (_in_state(family, dec.interior, contain=False) & resonant) != contain:
        return False
    return _in_state(family, dec.interior, contain=True) == (avoid & resonant)
