"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print; everything here is exact (no tolerances) and finishes in seconds.
"""

from contextlib import contextmanager

import pytest

from rescube.benzenoid import build_benzenoid, catacondensed_polyhexes
from rescube.coding import (
    color_swap_effect,
    composed_labels,
    daisy_label_set,
    daisy_labelling,
    elementary_parts,
    fdl_labelling,
    labelling_is_proper,
)
from rescube.cube_kit import MetricGraph, is_daisy_cube, is_median
from rescube.decomposition import rfd_from_face_order, theorem_report
from rescube.matchings import enumerate_matchings, extremal_matchings
from rescube.plane_graph import elementary_analysis, is_peripherally_two_colorable
from rescube.resonance import build_resonance

import cube_oracles as oracle
from conftest import BRANCHED_CELLS

BRANCHED_LABEL_SET = {
    oracle.bits(s)
    for s in (
        "00000",
        "10000",
        "01000",
        "00100",
        "10100",
        "00010",
        "10010",
        "01010",
        "00001",
        "10001",
        "00101",
        "10101",
        "00011",
        "10011",
    )
}


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {title}: PASS")


@pytest.fixture(scope="module")
def corpus():
    """Catacondensed systems with at most five rings that pass the
    peripherally-2-colorable test."""
    out = []
    for shape in catacondensed_polyhexes(5):
        g = build_benzenoid(shape)
        if is_peripherally_two_colorable(g).ok:
            out.append((shape, g))
    assert len(out) == 10
    return out


def test_criterion_1_branched_fixture(branched5, branched5_faces):
    with criterion(1, "branched fixture reproduction"):
        family = enumerate_matchings(branched5)
        assert len(family) == 14
        r = build_resonance(branched5, family)
        assert len(r) == 14 and len(r.edges) == 23
        rfd = rfd_from_face_order(branched5, branched5_faces)
        assert rfd.attachment == {2: 1, 3: 2, 4: 3, 5: 2}
        labelling = daisy_labelling(branched5, family, rfd)
        assert set(labelling.labels.values()) == BRANCHED_LABEL_SET


def test_criterion_2_label_set_trace():
    with criterion(2, "label-set trace"):
        attachment = {2: 1, 3: 2, 4: 3, 5: 2}
        sizes = [
            len(daisy_label_set({k: v for k, v in attachment.items() if k <= n}, n))
            for n in range(1, 6)
        ]
        assert sizes == [2, 3, 5, 8, 14]


def test_criterion_3_theorem_suite(corpus):
    with criterion(3, "theorem suite over the corpus"):
        failures = []
        for shape, g in corpus:
            report = theorem_report(g)
            if not report["ok"]:
                failures.append((shape, report))
        assert not failures, failures


def test_criterion_4_daisy_oracle_crosscheck(corpus, pyrene):
    with criterion(4, "daisy recognition oracle cross-check"):
        for shape, g in corpus:
            family = enumerate_matchings(g)
            metric = build_resonance(g, family).metric()
            found = oracle.is_daisy_cube(metric, "exhaustive")
            assert found.ok, shape
            assert is_daisy_cube(metric).ok, shape
            if g.is_cycle_graph():
                continue
            from rescube.decomposition import auto_rfd

            constructive = daisy_labelling(g, family, auto_rfd(g)).labels
            assert labelling_is_proper(metric, constructive), shape
            order = sorted(constructive)
            n = found.idim
            cols = lambda labels: sorted(
                "".join(oracle.text(labels[m], n)[i] for m in order)
                for i in range(n)
            )
            assert cols(constructive) == cols(found.labelling), shape

        pyrene_metric = build_resonance(pyrene, enumerate_matchings(pyrene)).metric()
        assert not oracle.is_daisy_cube(pyrene_metric, "exhaustive").ok
        assert not is_daisy_cube(pyrene_metric).ok
        p4 = MetricGraph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert not oracle.is_daisy_cube(p4, "exhaustive").ok
        assert not is_daisy_cube(p4).ok


def test_criterion_5_two_coding_contrast(branched5, branched5_faces):
    with criterion(5, "two-coding contrast and color swap"):
        family = enumerate_matchings(branched5)
        rfd = rfd_from_face_order(branched5, branched5_faces)
        fdl = fdl_labelling(branched5, family, rfd)
        ext = extremal_matchings(branched5, family)
        assert fdl.labels[ext.lattice_bottom] == oracle.bits("00000")
        assert fdl.labels[ext.lattice_top] == oracle.bits("11111")
        assert color_swap_effect(branched5, family, rfd).ok


def test_criterion_6_composition(two_hexagons, branched5_plus_hexagon):
    with criterion(6, "composition over elementary components"):
        for g, expected_idim in ((two_hexagons, 2), (branched5_plus_hexagon, 6)):
            parts = elementary_parts(g)
            family = enumerate_matchings(g)
            direct = build_resonance(g, family)
            product, _ = oracle.product_resonance(
                [(sub, build_resonance(sub, enumerate_matchings(sub))) for sub in parts]
            )
            assert oracle.keyed_resonance(g, direct) == product
            labels = composed_labels(g, family, parts, "daisy").labels
            metric = direct.metric()
            assert labelling_is_proper(metric, labels)
            verdict = is_daisy_cube(metric)
            assert verdict.ok and verdict.idim == expected_idim


def test_criterion_7_median_and_connectivity(corpus, nested_rings):
    with criterion(7, "median and connectivity properties"):
        for shape, g in corpus:
            r = build_resonance(g, enumerate_matchings(g))
            assert len(oracle.components(r.metric())) == 1, shape
            assert is_median(r.metric()), shape
        analysis = elementary_analysis(nested_rings)
        assert not analysis.is_weakly_elementary
        r = build_resonance(nested_rings, enumerate_matchings(nested_rings))
        assert len(oracle.components(r.metric())) == 2


def test_branched_fixture_is_in_corpus(corpus):
    from rescube.benzenoid import canonical_polyhex

    shapes = {shape for shape, _ in corpus}
    assert canonical_polyhex(BRANCHED_CELLS) in shapes
