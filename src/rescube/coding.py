"""Two binary codings of the perfect matchings of a peripherally 2-colorable graph.

Both codings assign one bit per finite face, positions following a fixed
reducible-face-decomposition order, and both embed the resonance graph
isometrically into a hypercube; they differ in how each Theta class is
oriented.

The daisy coding sets bit i to 0 exactly when the matching avoids every end
edge of every exterior handle on face i; its label set is downward closed,
realizing the resonance graph as a daisy cube.  The lattice coding sets bit
i to 1 exactly when every exterior handle on face i is proper alternating
along the clockwise periphery; it puts the unique matching without proper
alternating cycles at the zero label and realizes the resonance graph
as a finite distributive lattice.  Swapping the two color classes
complements every lattice-coding label and fixes every daisy label.

A label is an ``int`` whose bit p - 1 is position p.  Each position is one
bitset over matching ids: one pass over a face's exterior handles reads
both codings' bitsets off the family's end-edge columns, and the labels are
their transpose.  A :class:`Labelling` keeps both, so a check on a whole
position is a few big-int operations on its column.
:func:`bit_string` is the one place a label becomes text.

A weakly elementary graph is labelled by its elementary components, each
read on the graph's own columns at the component's edges, and the labels
of all components are concatenated, keyed by the graph's matching ids
(:func:`composed_labels`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import plane_graph as pg
from .cube_kit import _transpose, is_downward_closed, is_isometric_labelling
from .errors import BadAttachment, LabelSetMismatch, PropertyViolated, UnsupportedInput
from .matchings import MatchingFamily, bit_ids, handle_column, resonance_columns
from .plane_graph import PlaneGraph, facial_handle_decomposition, swap_colors

DAISY = "daisy"
FDL = "fdl"


def bit_string(label: int, n: int) -> str:
    """The n-character text of a label: character p - 1 is bit p - 1."""
    return format(label, f"0{n}b")[::-1] if n else ""


def daisy_label_set(attachment: dict, n: int) -> frozenset:
    """Iterate the daisy label sets from {0, 1} up to n positions.

    Step i keeps every label with bit i - 1 clear and adds it set to the
    labels whose attachment position is 0; ``attachment[i]`` must name an
    earlier position (1-based) for every i in 2..n.
    """
    if n < 1:
        raise BadAttachment("need at least one position")
    if sorted(attachment) != list(range(2, n + 1)):
        raise BadAttachment(f"attachment must cover positions 2..{n}")
    for i, a in attachment.items():
        if not 1 <= a < i:
            raise BadAttachment(f"attachment {i} -> {a} does not point earlier")
    labels = {0, 1}
    for i in range(2, n + 1):
        a, new = attachment[i] - 1, 1 << (i - 1)
        labels |= {x | new for x in labels if not x >> a & 1}
    return frozenset(labels)


@dataclass(frozen=True)
class Labelling:
    """A label per matching id; position p, bit p - 1, is face ``face_order[p - 1]``,
    and ``columns[p - 1]`` is its bitset of the matchings whose bit is 1."""

    scheme: str
    labels: dict
    face_order: tuple
    mixed_orientation: tuple = field(default_factory=tuple)
    columns: tuple = field(compare=False, repr=False, kw_only=True)

    @property
    def length(self) -> int:
        return len(self.face_order)


def _handle_columns(g: PlaneGraph, family: MatchingFamily, order) -> tuple:
    """Both codings' columns of the faces in the order, each face's exterior
    handles read once: per face, the daisy column (the OR of the handles'
    contain columns) and the lattice column (the AND of their proper
    columns); and the (matching id, face) pairs, by matching and then by
    position, where some handle is proper and some improper.

    A clockwise-oriented odd handle's matched darts all have tails of the
    color of ``path[0]`` when it contains its end edges, and of the other
    color when it avoids them; a single avoided edge reads the same way.
    So it is proper, its matched darts running white to black, on the
    contain column when ``path[0]`` is white and on its complement when
    ``path[0]`` is black.

    Every face is checked before any matching is read: an even exterior
    handle means the graph is not peripherally 2-colorable, and raises
    :class:`UnsupportedInput`."""
    exteriors = []
    for fid in order:
        exteriors.append(facial_handle_decomposition(g, fid).exterior)
        for h in exteriors[-1]:
            if h.length % 2 == 0:
                raise UnsupportedInput(
                    f"face {fid} has an exterior handle of even length {h.length}; "
                    "the graph is not peripherally 2-colorable"
                )
    full, coloring, white = family.full, g.coloring, pg.WHITE
    daisy, fdl, mixed = [], [], []
    for pos, (fid, handles) in enumerate(zip(order, exteriors)):
        any_contain, all_proper, any_proper = 0, full, 0
        for h in handles:
            contain = handle_column(family, h.path)
            proper = contain if coloring[h.path[0]] == white else full ^ contain
            any_contain |= contain
            all_proper &= proper
            any_proper |= proper
        daisy.append(any_contain)
        fdl.append(all_proper)
        if any_proper != all_proper:
            mixed.extend((mid, pos, fid) for mid in bit_ids(any_proper & ~all_proper))
    return daisy, fdl, tuple((mid, fid) for mid, _, fid in sorted(mixed))


def _rfd_columns(g: PlaneGraph, family: MatchingFamily, rfd) -> tuple:
    """:func:`_handle_columns` on a decomposition.  An even cycle's one bit
    is 1 where its face is proper resonant, for the daisy coding under the
    anchor coloring (smallest vertex white), so a color swap fixes it."""
    if len(rfd.faces) > 1:
        return _handle_columns(g, family, rfd.faces)
    if not g.is_cycle_graph():
        raise UnsupportedInput("a single finite face should mean an even cycle")
    proper, improper = resonance_columns(g, family, g.finite_faces[0].id)
    return [proper if g.coloring == pg.canonical_coloring(g) else improper], [proper], ()


def daisy_labelling(g: PlaneGraph, family: MatchingFamily, rfd) -> Labelling:
    """Per-matching daisy bits from the exterior-handle end-edge rule.

    Bit i is 0 when the matching contains no end edge of any exterior handle
    on face i, else 1.  The resulting label multiset is verified against the
    iterated label-set construction on the decomposition's attachment map
    and against injectivity; a mismatch raises :class:`LabelSetMismatch`.
    """
    return _certified_daisy(family, _rfd_columns(g, family, rfd)[0], rfd)


def _certified_daisy(family: MatchingFamily, columns, rfd) -> Labelling:
    """The daisy labelling of these columns, certified by
    :func:`_certify_daisy` unless it is an even cycle's."""
    labelling = _labelling(DAISY, family, columns, rfd.faces)
    if rfd.n > 1:  # an even cycle's two labels are 0 and 1
        _certify_daisy(labelling.labels, (rfd,))
    return labelling


def _certify_daisy(labels: dict, rfds) -> None:
    """Check daisy labels: injective, and their set is the product of the
    decompositions' daisy label sets, each shifted past the positions of
    those before it.  Raises :class:`LabelSetMismatch` otherwise, and
    :class:`BadAttachment` when a decomposition lacks its attachment map."""
    found = set(labels.values())
    if len(found) != len(labels):
        raise LabelSetMismatch("daisy labels are not injective")
    expected, n = {0}, 0
    for rfd in rfds:
        if rfd.attachment is None:
            raise BadAttachment("decomposition lacks a complete attachment map")
        part = daisy_label_set(rfd.attachment, len(rfd.faces))
        expected = {x | y << n for x in expected for y in part} if n else part
        n += len(rfd.faces)
    if found != expected:
        found, wanted = (sorted(bit_string(x, n) for x in side) for side in (found, expected))
        raise LabelSetMismatch(f"daisy label set {found} != expected {wanted}")


def _labelling(scheme: str, family: MatchingFamily, columns, order, mixed=()) -> Labelling:
    """The labelling of these columns: matching k's label has bit i set
    when ``columns[i]`` has bit k."""
    columns = tuple(columns)
    labels = dict(enumerate(_transpose(columns, len(family))))
    return Labelling(scheme, labels, tuple(order), mixed, columns=columns)


def fdl_labelling(g: PlaneGraph, family: MatchingFamily, rfd) -> Labelling:
    """Per-matching lattice bits from the proper-alternation rule.

    Bit i is 1 when every exterior handle on face i is proper alternating
    along the clockwise periphery.  Faces where handles with matched edges
    disagree in orientation are recorded in ``mixed_orientation`` rather
    than normalized away; the list stays empty on peripherally 2-colorable
    inputs."""
    _, ones, mixed = _rfd_columns(g, family, rfd)
    return _labelling(FDL, family, ones, rfd.faces, mixed)


@dataclass(frozen=True)
class ColorSwapReport:
    fdl_complemented: bool
    daisy_fixed: bool

    @property
    def ok(self) -> bool:
        return self.fdl_complemented and self.daisy_fixed


def color_swap_effect(g: PlaneGraph, family: MatchingFamily, rfd) -> ColorSwapReport:
    """Check that swapping the color classes complements the lattice coding
    and fixes the daisy coding; raises :class:`PropertyViolated` otherwise.

    Each coloring's faces are read once, for both codings' columns.  The
    daisy labels are certified on ``g`` alone (:func:`daisy_labelling`):
    the swapped side's must then equal them column by column."""
    # swapping colours changes no edge set, so the family serves both sides
    (daisy, fdl, _), (daisy_swapped, fdl_swapped, _) = (
        _rfd_columns(h, family, rfd) for h in (g, swap_colors(g))
    )
    fdl_ok = fdl_swapped == [col ^ family.full for col in fdl]
    daisy_ok = list(_certified_daisy(family, daisy, rfd).columns) == daisy_swapped

    report = ColorSwapReport(fdl_complemented=fdl_ok, daisy_fixed=daisy_ok)
    if not report.ok:
        raise PropertyViolated(
            f"color swap: fdl_complemented={fdl_ok} daisy_fixed={daisy_ok}"
        )
    return report


# ---------------------------------------------------------------------------
# composition over elementary components
# ---------------------------------------------------------------------------


def elementary_parts(g: PlaneGraph) -> tuple:
    """The elementary components of a weakly elementary graph that have
    finite faces, each embedded on its allowed edges with the graph's vertex
    ids, in the order of the elementary analysis.  Raises
    :class:`UnsupportedInput` on a graph that is not weakly elementary."""
    analysis = pg.elementary_analysis(g)
    if not analysis.is_weakly_elementary:
        raise UnsupportedInput("graph is not weakly elementary; no composed labelling")
    subs = (
        pg.edge_subgraph(g, [e for e in analysis.allowed_edges if set(e) <= comp])
        for comp in analysis.elementary_components
    )
    return tuple(sub for sub in subs if sub.finite_faces)  # an edge has no positions


def composed_labels(g: PlaneGraph, family: MatchingFamily, parts, scheme: str) -> Labelling:
    """The labelling of a weakly elementary graph's matchings, keyed by its
    matching ids: the labels of the parts (:func:`elementary_parts`), each
    by its own automatic decomposition, concatenated in part order.  Its
    face order names the parts' faces by their ids in ``g``, so position p
    is the face whose resonance edges flip bit p - 1 (None for a part's face
    that is not a face of ``g``).  Raises ValueError for a scheme other
    than ``"daisy"`` and ``"fdl"``.

    Every part reads its columns on the graph's own family: each read looks
    up only the part's edges, whose columns describe every matching's
    restriction to the part, so the parts' labels come out keyed by the
    graph's matching ids.  The columns of all parts are transposed once.
    Daisy labels are certified on the whole family: on a weakly elementary
    graph, whose matchings are the product of its parts' matchings, being
    injective with the product of the parts' label sets is the parts' own
    certification."""
    from .decomposition import auto_rfd  # decomposition imports this module

    if scheme not in (DAISY, FDL):
        raise ValueError(f"unknown scheme {scheme!r}; expected {DAISY!r} or {FDL!r}")
    columns, rfds, order = [], [], []
    for sub in parts:
        rfd = auto_rfd(sub)
        daisy, fdl, _ = _rfd_columns(sub, family, rfd)
        columns += daisy if scheme == DAISY else fdl
        rfds.append(rfd)
        order += (g.face_by_edge_set.get(sub.faces[fid].edges) for fid in rfd.faces)
    labelling = _labelling(scheme, family, columns, order)
    if scheme == DAISY:
        _certify_daisy(labelling.labels, rfds)
    return labelling


def labelling_is_proper(metric, labels) -> bool:
    """Isometric into the hypercube and downward closed: a proper daisy labelling."""
    return is_isometric_labelling(metric, labels) and is_downward_closed(labels.values())


def codings_differ(daisy: Labelling, fdl: Labelling) -> bool:
    """Report whether some matching receives different labels (expected as
    soon as the graph has at least two finite faces): whether some position's
    columns differ."""
    return daisy.columns != fdl.columns
