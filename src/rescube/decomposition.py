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
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import cube_kit as ck
from . import coding
from .errors import (
    NoPerfectMatching,
    NotAnExpansion,
    NotReducibleAtStep,
    PeelingStuck,
    TheoremViolated,
    UnsupportedInput,
)
from .matchings import (
    AVOIDS_END_EDGES,
    CONTAINS_END_EDGES,
    end_edge_state,
    enumerate_matchings,
    extremal_matchings,
    matching_subset,
)
from .plane_graph import (
    DEFAULT_MATCHING_CAP,
    PlaneGraph,
    edge_key,
    edge_subgraph,
    elementary_analysis,
    is_peripherally_two_colorable,
)
from .resonance import ResonanceGraph, build_resonance, connectivity_report


@dataclass(frozen=True)
class RfdSequence:
    """A reducible face decomposition: face order, edge sets of the growing
    subgraphs, and the attachment map (1-based positions) when every step
    attaches to exactly one earlier face."""

    faces: tuple
    subgraph_edges: tuple
    attachment: dict = None
    notes: tuple = field(default_factory=tuple)

    @property
    def n(self) -> int:
        return len(self.faces)

    def prefix(self, i: int) -> "RfdSequence":
        att = None
        if self.attachment is not None:
            att = {k: v for k, v in self.attachment.items() if k <= i}
        return RfdSequence(self.faces[:i], self.subgraph_edges[:i], att, self.notes)

    def position_of(self, face_id) -> int:
        return self.faces.index(face_id) + 1


@dataclass(frozen=True)
class FaceSplit:
    """The two sides of a resonance graph across one face's edge class."""

    face: int
    class_edges: tuple
    minus_side: frozenset
    plus_side: frozenset
    u_minus: frozenset
    u_plus: frozenset


def _assemble_path(edges):
    """Order an edge set into a simple path's vertex sequence, or None."""
    if not edges:
        return None
    deg = {}
    adj = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(d > 2 for d in deg.values()):
        return None
    ends = sorted(v for v, d in deg.items() if d == 1)
    if len(ends) != 2:
        return None
    path = [ends[0]]
    prev = None
    while path[-1] != ends[1]:
        nxts = [w for w in adj[path[-1]] if w != prev]
        if len(nxts) != 1:
            return None
        prev = path[-1]
        path.append(nxts[0])
    if len(path) != len(edges) + 1:
        return None
    return tuple(path)


def _shared_periphery_path(g: PlaneGraph, face_id: int):
    """The common periphery of a finite face and the graph, if it is one path."""
    face = g.faces[face_id]
    shared = face.edges & g.periphery_edges
    if not shared or shared == face.edges:
        return None
    return _assemble_path(shared)


def _is_plane_elementary(g: PlaneGraph) -> bool:
    if not g.is_connected:
        return False
    try:
        return elementary_analysis(g).is_elementary
    except NoPerfectMatching:
        return False


def _reduce_by_path(g: PlaneGraph, path) -> PlaneGraph:
    """Remove the path's edges and internal vertices (with their edges)."""
    internal = set(path[1:-1])
    path_edges = {edge_key(a, b) for a, b in zip(path, path[1:])}
    keep = [
        e for e in g.edges if e not in path_edges and not (set(e) & internal)
    ]
    return edge_subgraph(g, keep)


def find_reducible_faces(g: PlaneGraph) -> frozenset:
    """Every finite face whose shared periphery is a single odd path and whose
    reduction stays plane elementary bipartite."""
    out = []
    for face in g.finite_faces:
        path = _shared_periphery_path(g, face.id)
        if path is None or (len(path) - 1) % 2 == 0:
            continue
        reduced = _reduce_by_path(g, path)
        if len(reduced.vertices) >= 2 and _is_plane_elementary(reduced):
            out.append(face.id)
    return frozenset(out)


def rfd_from_face_order(g: PlaneGraph, order) -> RfdSequence:
    """Validate a full face order as a reducible face decomposition.

    The first face only needs to bound a cycle; each later face must attach
    by a single odd ear on the periphery of the previous subgraph, and each
    previous subgraph must be elementary.  Raises
    :class:`NotReducibleAtStep` at the first failing step.
    """
    order = tuple(order)
    finite_ids = sorted(f.id for f in g.finite_faces)
    if sorted(order) != finite_ids:
        raise ValueError(f"order must list all finite faces {finite_ids}")

    notes = (
        f"first face {order[0]} accepted because its boundary is a cycle",
    )
    first = g.faces[order[0]]
    if len(set(first.boundary)) != len(first.boundary):
        raise NotReducibleAtStep(1, "first face boundary is not a cycle")

    current_edges = set(first.edges)
    current_vertices = set(first.boundary)
    subgraphs = [frozenset(current_edges)]
    previous = edge_subgraph(g, current_edges)
    attachments = {}
    complete = True

    for idx in range(1, len(order)):
        step = idx + 1
        face = g.faces[order[idx]]
        ear_edges = face.edges - current_edges
        if not ear_edges:
            raise NotReducibleAtStep(step, "face adds no new edges")
        ear = _assemble_path(ear_edges)
        if ear is None:
            raise NotReducibleAtStep(step, "new edges do not form a path")
        if (len(ear) - 1) % 2 == 0:
            raise NotReducibleAtStep(step, "ear has even length")
        if ear[0] not in current_vertices or ear[-1] not in current_vertices:
            raise NotReducibleAtStep(step, "ear endpoints are not attached")
        if set(ear[1:-1]) & current_vertices:
            raise NotReducibleAtStep(step, "ear interior touches the subgraph")

        if not _is_plane_elementary(previous):
            raise NotReducibleAtStep(step, "previous subgraph is not elementary")
        old_part = face.edges & current_edges
        if not old_part <= previous.periphery_edges:
            raise NotReducibleAtStep(step, "face does not sit on the periphery")

        current_edges |= ear_edges
        current_vertices |= set(ear)
        subgraphs.append(frozenset(current_edges))

        grown = edge_subgraph(g, current_edges)
        for f in grown.finite_faces:
            if f.edges not in g.face_by_edge_set:
                raise NotReducibleAtStep(step, "step creates a face not in the graph")
        previous = grown

        sharers = [
            j + 1
            for j in range(idx)
            if g.faces[order[j]].edges & face.edges
        ]
        if len(sharers) == 1:
            attachments[step] = sharers[0]
        else:
            complete = False

    if current_edges != g.edges:
        raise NotReducibleAtStep(len(order), "edges remain outside all faces")
    return RfdSequence(
        faces=order,
        subgraph_edges=tuple(subgraphs),
        attachment=attachments if complete else None,
        notes=notes,
    )


def auto_rfd(g: PlaneGraph) -> RfdSequence:
    """Greedy decomposition: repeatedly peel the reducible face with the
    smallest id, then validate the reversed order."""
    if len(g.vertices) <= 2:
        raise UnsupportedInput("need more than two vertices")
    if g.is_cycle_graph():
        face = g.finite_faces[0]
        return RfdSequence(
            faces=(face.id,),
            subgraph_edges=(g.edges,),
            attachment={},
            notes=("even cycle: single-face decomposition",),
        )

    def to_own(sub: PlaneGraph, sub_face_id: int) -> int:
        return g.face_by_edge_set[sub.faces[sub_face_id].edges]

    current = g
    peeled = []
    while not current.is_cycle_graph():
        reducible = find_reducible_faces(current)
        if not reducible:
            raise PeelingStuck(
                "no reducible face; the graph is not plane elementary"
            )
        target = min(reducible, key=lambda fid: to_own(current, fid))
        peeled.append(to_own(current, target))
        path = _shared_periphery_path(current, target)
        current = _reduce_by_path(current, path)
    base = to_own(current, current.finite_faces[0].id)
    order = [base] + list(reversed(peeled))
    return rfd_from_face_order(g, order)


# ---------------------------------------------------------------------------
# decomposition checks on the resonance graph
# ---------------------------------------------------------------------------


def split_by_face(
    g: PlaneGraph, r: ResonanceGraph, face_id: int, strict: bool = True
):
    """Check the face-class split of the resonance graph.

    Removing the edges labelled by the face must leave exactly the
    avoid-all-end-edges side and the contain-all-and-resonant side, with the
    class a perfect matching between their boundary sets and the plus side
    peripheral.  Returns a (FaceSplit, clauses) pair; with ``strict`` the
    first failing clause raises :class:`TheoremViolated`.
    """
    family = r.family
    clauses = {}

    def fail(clause, detail=""):
        clauses[clause] = False
        if strict:
            raise TheoremViolated(clause, f"face {face_id} {detail}")

    class_edges = r.edges_with_label(face_id)
    clauses["class-nonempty"] = bool(class_edges)
    if not class_edges:
        fail("class-nonempty")
        return None, clauses

    comps = ck.components(
        r.vertices, lambda v: (w for w, f in r.adjacency[v].items() if f != face_id)
    )
    clauses["two-components"] = len(comps) == 2
    if len(comps) != 2:
        fail("two-components", f"got {len(comps)} components")
        return None, clauses

    minus_expected = matching_subset(g, family, face_id, "all-exterior-avoid")
    plus_expected = matching_subset(
        g, family, face_id, "all-exterior-contain-resonant"
    )
    if {minus_expected, plus_expected} != set(comps):
        fail("side-sets", "components differ from the matching subsets")
        return None, clauses
    clauses["side-sets"] = True

    u_minus = frozenset(
        v for e in class_edges for v in e if v in minus_expected
    )
    u_plus = frozenset(v for e in class_edges for v in e if v in plus_expected)
    tails = [v for e in class_edges for v in e]
    is_matching = len(tails) == len(set(tails))
    clauses["class-matching"] = is_matching and len(u_minus) == len(u_plus) == len(
        class_edges
    )
    if not clauses["class-matching"]:
        fail("class-matching")
    clauses["plus-peripheral"] = u_plus == plus_expected
    if not clauses["plus-peripheral"]:
        fail("plus-peripheral")
    clauses["strictly-smaller-plus"] = len(plus_expected) < len(minus_expected)
    if not clauses["strictly-smaller-plus"]:
        fail("strictly-smaller-plus")

    split = FaceSplit(
        face=face_id,
        class_edges=tuple(sorted((min(e[:2]), max(e[:2])) for e in class_edges)),
        minus_side=minus_expected,
        plus_side=plus_expected,
        u_minus=u_minus,
        u_plus=u_plus,
    )
    return split, clauses


@dataclass(frozen=True)
class StepReport:
    step: int
    clauses: dict
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(self.clauses.values())


def _translate_rfd(rfd: RfdSequence, g: PlaneGraph, sub: PlaneGraph) -> RfdSequence:
    faces = tuple(sub.face_by_edge_set[g.faces[fid].edges] for fid in rfd.faces)
    return RfdSequence(faces, rfd.subgraph_edges, rfd.attachment, rfd.notes)


def verify_reducible_split(
    g: PlaneGraph, r: ResonanceGraph, rfd: RfdSequence, i: int, strict: bool = True
) -> StepReport:
    """Instance check of one decomposition step (i >= 2).

    Verifies that the avoid-side of step i's face is the previous resonance
    graph under restriction (with the face's bit deleted from the daisy
    labels), that the contain-the-inner-path matchings induce a convex
    o-closed subgraph of the previous resonance graph sitting at zero bits
    of the attachment position, and that expanding along that subgraph
    reproduces the current resonance graph with the new bit appended.
    """
    if i < 2 or i > rfd.n:
        raise ValueError(f"step must be in 2..{rfd.n}")
    if rfd.attachment is None:
        raise TheoremViolated("attachment-unique", "no complete attachment map")
    clauses = {}
    details = {}

    def check(clause, value, detail=""):
        clauses[clause] = bool(value)
        if strict and not value:
            raise TheoremViolated(clause, f"step {i} {detail}")

    sub_i = edge_subgraph(g, rfd.subgraph_edges[i - 1])
    sub_prev = edge_subgraph(g, rfd.subgraph_edges[i - 2])
    rfd_i = _translate_rfd(rfd.prefix(i), g, sub_i)
    rfd_prev = _translate_rfd(rfd.prefix(i - 1), g, sub_prev)

    fam_i = enumerate_matchings(sub_i)
    fam_prev = enumerate_matchings(sub_prev)
    res_i = build_resonance(sub_i, fam_i)
    res_prev = build_resonance(sub_prev, fam_prev)
    labels_i = coding.daisy_labelling(sub_i, fam_i, rfd_i).labels

    ear = _assemble_path(rfd.subgraph_edges[i - 1] - rfd.subgraph_edges[i - 2])
    face_edges = g.faces[rfd.faces[i - 1]].edges
    inner = _assemble_path(face_edges - {edge_key(a, b) for a, b in zip(ear, ear[1:])})
    check("inner-path", inner is not None, "inner boundary is not one path")
    if inner is None:
        return StepReport(i, clauses, details)

    # restriction map: avoid-side matchings of sub_i <-> matchings of sub_prev
    minus = [m for m in fam_i if end_edge_state(m, ear) == AVOIDS_END_EDGES]
    plus = [m for m in fam_i if end_edge_state(m, ear) == CONTAINS_END_EDGES]
    restrict = {}
    ok = len(minus) == len(fam_prev)
    if ok:
        for m in minus:
            try:
                restrict[m.id] = fam_prev.by_edges(m.edges & sub_prev.edges).id
            except KeyError:
                ok = False
                break
        ok = ok and len(set(restrict.values())) == len(fam_prev)
    details["minus_size"] = len(minus)
    details["plus_size"] = len(plus)
    check("restriction-bijection", ok)
    if not ok:
        return StepReport(i, clauses, details)

    pos_i = {fid: p for p, fid in enumerate(rfd_i.faces, start=1)}
    pos_prev = {fid: p for p, fid in enumerate(rfd_prev.faces, start=1)}
    minus_ids = {m.id for m in minus}
    mapped = {
        (min(restrict[u], restrict[v]), max(restrict[u], restrict[v]), pos_i[f])
        for u, v, f in res_i.edges
        if u in minus_ids and v in minus_ids
    }
    prev_edges = {(u, v, pos_prev[f]) for u, v, f in res_prev.edges}
    check("restriction-isomorphism", mapped == prev_edges)

    # deleting the new bit from the avoid side labels the previous resonance
    # graph; when that subgraph is not an even cycle the handle rule must
    # reproduce exactly the same labelling
    bit = i - 1  # 0-based string index of position i
    ok = all(labels_i[m.id][bit] == "0" for m in minus) and all(
        labels_i[m.id][bit] == "1" for m in plus
    )
    labels_prev = {
        restrict[m.id]: labels_i[m.id][:bit] + labels_i[m.id][bit + 1 :]
        for m in minus
    }
    ok = ok and len(set(labels_prev.values())) == len(labels_prev)
    if i >= 3:
        handle_rule_prev = coding.daisy_labelling(sub_prev, fam_prev, rfd_prev).labels
        ok = ok and labels_prev == handle_rule_prev
    check("label-deletion", ok)

    # the inner-path side inside the previous resonance graph
    inner_set = frozenset(
        m.id for m in fam_prev if end_edge_state(m, inner) == CONTAINS_END_EDGES
    )
    details["inner_size"] = len(inner_set)
    metric_prev = res_prev.metric(labels_prev)
    check("inner-convex", ck.is_convex_subset(metric_prev, inner_set))
    check(
        "inner-le-subgraph",
        ck.operator_o(labels_prev, inner_set) == inner_set,
    )
    att = rfd.attachment[i]
    att_bit = att - 1
    zero_att = frozenset(
        mid for mid in labels_prev if labels_prev[mid][att_bit] == "0"
    )
    check("inner-zero-at-attachment", inner_set == zero_att,
          f"attachment position {att}")

    # expansion: extend previous matchings into sub_i and compare
    ear_edges_seq = [edge_key(a, b) for a, b in zip(ear, ear[1:])]
    even_ear = frozenset(ear_edges_seq[1::2])
    cycle_edges = face_edges

    def extend_minus(m_prev):
        return fam_i.by_edges(m_prev.edges | even_ear).id

    expected_vertices = set()
    expected_edges = set()
    lift = {}
    for m_prev in fam_prev:
        lid = extend_minus(m_prev)
        lift[m_prev.id] = lid
        expected_vertices.add(lid)
    for u, v, f in res_prev.edges:
        a, b = sorted((lift[u], lift[v]))
        expected_edges.add((a, b, pos_i[rfd_i.faces[pos_prev[f] - 1]]))
    partner = {}
    for mid in sorted(inner_set):
        base = fam_i[lift[mid]]
        twin = fam_i.by_edges(base.edges ^ cycle_edges).id
        partner[mid] = twin
        expected_vertices.add(twin)
        a, b = sorted((lift[mid], twin))
        expected_edges.add((a, b, pos_i[rfd_i.faces[i - 1]]))
    for u in sorted(inner_set):
        for v, f in res_prev.adjacency[u].items():
            if v in inner_set and u < v:
                a, b = sorted((partner[u], partner[v]))
                expected_edges.add((a, b, pos_i[rfd_i.faces[pos_prev[f] - 1]]))

    actual_edges = {(u, v, pos_i[f]) for u, v, f in res_i.edges}
    check(
        "expansion-equality",
        expected_vertices == set(res_i.vertices) and expected_edges == actual_edges,
    )

    try:
        expansion = ck.expand(metric_prev, set(metric_prev.vertices), inner_set)
        check("expansion-flags", expansion.peripheral and expansion.convex and expansion.le)
    except NotAnExpansion as exc:
        check("expansion-flags", False, str(exc))

    zero_both = frozenset(
        mid
        for mid in labels_i
        if labels_i[mid][att_bit] == "0" and labels_i[mid][bit] == "0"
    )
    inner_lifted = frozenset(
        m.id for m in fam_i if end_edge_state(m, inner) == CONTAINS_END_EDGES
    )
    check("zero-positions", zero_both == inner_lifted)

    return StepReport(i, clauses, details)


# ---------------------------------------------------------------------------
# whole-graph verification report
# ---------------------------------------------------------------------------


def theorem_report(
    g: PlaneGraph, rfd: RfdSequence = None, cap: int = DEFAULT_MATCHING_CAP
) -> dict:
    """Run every decomposition and coding check on one graph.

    The report nests one entry per clause per face and per step, plus the
    labelling, subset-equality, median and connectivity checks; ``ok``
    aggregates everything.  Works on peripherally 2-colorable inputs that
    are not even cycles.  ``cap`` bounds the enumeration of the graph's
    perfect matchings; more of them raise :class:`CapExceeded`."""
    verdict = is_peripherally_two_colorable(g, cap)
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

    family = enumerate_matchings(g, cap=cap)
    r = build_resonance(g, family)
    if rfd is None:
        rfd = auto_rfd(g)
    report["rfd"] = {
        "faces": list(rfd.faces),
        "attachment": {str(k): v for k, v in (rfd.attachment or {}).items()},
        "notes": list(rfd.notes),
    }

    for face in g.finite_faces:
        _, clauses = split_by_face(g, r, face.id, strict=False)
        report["faces"][str(face.id)] = clauses

    for i in range(2, rfd.n + 1):
        step = verify_reducible_split(g, r, rfd, i, strict=False)
        report["steps"][str(i)] = dict(step.clauses)

    daisy = coding.daisy_labelling(g, family, rfd)
    fdl = coding.fdl_labelling(g, family, rfd)
    metric = r.metric()
    extremal = extremal_matchings(g, family)
    bottom, top = extremal.lattice_bottom, extremal.lattice_top
    lab = report["labelling"]
    lab["daisy_proper"] = coding.labelling_is_proper(metric, daisy.labels)
    lab["daisy_accepted_by_search"] = ck.is_daisy_cube(metric).ok
    lab["fdl_isometric"] = ck.is_isometric_labelling(metric, fdl.labels)
    lab["fdl_bottom_zero"] = fdl.labels[bottom] == "0" * rfd.n
    lab["fdl_top_ones"] = fdl.labels[top] == "1" * rfd.n
    lab["fdl_no_mixed_orientation"] = not fdl.mixed_orientation
    lab["edges_flip_their_face_bit"] = all(
        _differ_only_at(labels[u], labels[v], rfd.position_of(f) - 1)
        for labels in (daisy.labels, fdl.labels)
        for u, v, f in r.edges
    )
    lab["fully_resonant_is_daisy_zero"] = (
        extremal.fully_resonant is not None
        and daisy.labels[extremal.fully_resonant] == "0" * rfd.n
    )
    lab["codings_differ"] = (
        coding.codings_differ(daisy, fdl) if rfd.n >= 2 else None
    )

    subsets_ok = True
    for face in g.finite_faces:
        subsets_ok = subsets_ok and _subset_equalities_hold(g, family, face.id)
    report["subsets"]["handle-set-equalities"] = subsets_ok

    classes = ck.theta_classes(metric)
    label_classes = {
        frozenset(tuple(sorted(e)) for e in r.edges_with_label(face.id))
        for face in g.finite_faces
    }
    theta_sets = {
        frozenset(tuple(sorted(e)) for e in cls) for cls in classes.classes
    }
    report["metric"]["face_classes_are_theta_classes"] = label_classes == theta_sets
    report["metric"]["median"] = ck.is_median(metric)
    report["metric"]["connected"] = connectivity_report(r) == 1

    report["ok"] = (
        all(all(c.values()) for c in report["faces"].values())
        and all(all(c.values()) for c in report["steps"].values())
        and all(v in (True, None) for v in lab.values())
        and subsets_ok
        and all(report["metric"].values())
    )
    return report


def _differ_only_at(a: str, b: str, index: int) -> bool:
    return all((x != y) == (k == index) for k, (x, y) in enumerate(zip(a, b)))


def _subset_equalities_hold(g, family, face_id) -> bool:
    """Single-handle subsets equal the all-handle ones, and the resonant
    refinements swap sides between exterior and interior handles."""
    from .plane_graph import facial_handle_decomposition

    dec = facial_handle_decomposition(g, face_id)
    m = dec.m
    sel = lambda s, idx=None: matching_subset(g, family, face_id, s, idx)

    all_eavoid = sel("all-exterior-avoid")
    all_econt = sel("all-exterior-contain")
    for idx in range(1, m + 1):
        if sel("exterior-avoid", idx) != all_eavoid:
            return False
        if sel("exterior-contain", idx) != all_econt:
            return False
    if sel("all-exterior-contain-resonant") != all_econt:
        return False
    if sel("all-interior-avoid-resonant") != all_econt:
        return False
    all_icont = sel("all-interior-contain")
    if sel("all-interior-contain-resonant") != all_icont:
        return False
    if sel("all-exterior-avoid-resonant") != all_icont:
        return False
    if not (all_eavoid | all_econt) == frozenset(family.ids):
        return False
    return not (all_eavoid & all_econt)
