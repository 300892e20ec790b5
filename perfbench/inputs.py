"""Seeded benzenoid inputs for the benchmark, built without the library.

Cells use the library's axial ``(q, r)`` convention, so the cell files this
module writes are exactly what ``rescube verify|label`` reads.  Geometry and
the perfect-matching count are recomputed here, independently of the
library, so the benchmark can check the program's outputs against them.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

# the same lattice as rescube.benzenoid: cell centers at (2q + r, 3r)
CORNER_OFFSETS = ((0, 2), (-1, 1), (-1, -1), (0, -2), (1, -1), (1, 1))
AXIAL_NEIGHBORS = ((1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1))


@dataclass(frozen=True)
class Case:
    """One generated input: its cells, its matching count N, and a tag."""

    name: str
    cells: tuple
    n_matchings: int
    zigzag_h: int = None  # set on zigzag chains, whose N must be F(h + 2)

    def cell_text(self) -> str:
        return "".join(f"{q} {r}\n" for q, r in self.cells)


def corners(cell) -> tuple:
    q, r = cell
    cx, cy = 2 * q + r, 3 * r
    return tuple((cx + dx, cy + dy) for dx, dy in CORNER_OFFSETS)


def zigzag_cells(h: int) -> tuple:
    """Start at (0, 0), then alternately step q + 1 and r + 1."""
    cells = [(0, 0)]
    q = r = 0
    for i in range(1, h):
        if i % 2:
            q += 1
        else:
            r += 1
        cells.append((q, r))
    return tuple(cells)


def fibonacci(k: int) -> int:
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def count_perfect_matchings(cells) -> int:
    """Kekule count by memoised branching on the lowest unmatched vertex."""
    points = sorted({p for c in cells for p in corners(c)})
    index = {p: i for i, p in enumerate(points)}
    nbrs = [0] * len(points)
    for c in cells:
        ring = corners(c)
        for a, b in zip(ring, ring[1:] + ring[:1]):
            i, j = index[a], index[b]
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    full = (1 << len(points)) - 1

    @lru_cache(maxsize=None)
    def count(matched: int) -> int:
        if matched == full:
            return 1
        free = ~matched & full
        v = (free & -free).bit_length() - 1
        total = 0
        options = nbrs[v] & free
        while options:
            w = options & -options
            total += count(matched | (1 << v) | w)
            options ^= w
        return total

    return count(0)


def place(cells, rng: random.Random) -> tuple:
    """The same shape under a random lattice symmetry and translation.

    The program sees other vertex ids, face ids and coordinates, while the
    graph, its verdict and its matching count stay the same."""
    mirror = rng.random() < 0.5
    shape = [(r, q) if mirror else (q, r) for q, r in cells]
    for _ in range(rng.randrange(6)):
        shape = [(-r, q + r) for q, r in shape]
    dq, dr = rng.randrange(-5, 6), rng.randrange(-5, 6)
    return tuple(sorted((q + dq, r + dr) for q, r in shape))


def random_catacondensed(rng: random.Random, h: int) -> tuple:
    """A random catacondensed system of ``h`` rings: every added ring touches
    exactly one earlier ring and no corner is shared by three rings."""
    cells = [(0, 0)]
    taken = {(0, 0)}
    corner_use = Counter(corners((0, 0)))
    while len(cells) < h:
        q, r = rng.choice(cells)
        dq, dr = rng.choice(AXIAL_NEIGHBORS)
        cand = (q + dq, r + dr)
        if cand in taken:
            continue
        touching = sum((cand[0] + a, cand[1] + b) in taken for a, b in AXIAL_NEIGHBORS)
        if touching != 1 or any(corner_use[p] >= 2 for p in corners(cand)):
            continue
        cells.append(cand)
        taken.add(cand)
        corner_use.update(corners(cand))
    return tuple(sorted(cells))


@dataclass
class Sampling:
    """What rejection sampling drew, kept and rejected."""

    drawn: int = 0
    duplicates: int = 0
    rejected_size: int = 0
    rejected_p2c: int = 0


def sample_p2c_systems(rng, h, want, n_range, tests, is_p2c, canonical, exclude=()):
    """Rejection-sample ``want`` distinct peripherally 2-colorable systems.

    A candidate must have its matching count in ``n_range`` (checked here,
    cheaply), differ from every earlier shape under ``canonical`` (a
    canonical form up to lattice symmetry), and pass ``is_p2c``, the
    library's verdict on its cell list.
    Exactly ``tests`` candidates of the right size are drawn, so the set-up
    cost does not depend on the seed's luck; more are drawn only if too few
    pass.
    """
    stats = Sampling()
    seen = {canonical(c) for c in exclude}
    kept = []
    while stats.drawn - stats.rejected_size < tests or len(kept) < want:
        if stats.drawn >= 1000 * (tests + want):
            raise RuntimeError(f"found {len(kept)} of {want} distinct {h}-ring systems")
        stats.drawn += 1
        cells = random_catacondensed(rng, h)
        n = count_perfect_matchings(cells)
        if not n_range[0] <= n <= n_range[1]:
            stats.rejected_size += 1
            continue
        form = canonical(cells)
        if form in seen:
            stats.duplicates += 1
            continue
        seen.add(form)
        if not is_p2c(cells):
            stats.rejected_p2c += 1
            continue
        kept.append((cells, n))
    return kept[:want], stats
