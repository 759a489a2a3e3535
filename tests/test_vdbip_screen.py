"""VDBiP's certified GEMM screen equals the literal per-pair bisector test.

The reference mask is built exactly as the pair loop the screen
replaced: :func:`_bisector_max` over every ordered pair ``(j, l)``, then
OR over ``j`` and the ``dead`` safety net.  The adversarial cases put
``max_h`` at or next to zero (duplicate centroids, point-mass boxes,
integer grids), at underflow and overflow scale, and at infinite
supports, where only the literal fallback may decide; a spy on the
helper asserts that the fallback really ran, so no case passes
vacuously.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.clustering import VDBiP
from repro.clustering import pruning
from repro.clustering.pruning import _bisector_max
from repro.datagen import UncertaintyGenerator
from repro.datagen.benchmarks import make_benchmark


def _reference_mask(lower, upper, centers):
    n, k = lower.shape[0], centers.shape[0]
    center_sq = np.einsum("cj,cj->c", centers, centers)
    candidates = np.ones((n, k), dtype=bool)
    for j in range(k):
        for l in range(k):
            if l == j:
                continue
            a = -2.0 * (centers[j] - centers[l])
            b = center_sq[j] - center_sq[l]
            candidates[_bisector_max(lower, upper, a, b) < 0.0, l] = False
    dead = ~candidates.any(axis=1)
    candidates[dead] = True
    return candidates


@pytest.fixture
def fallback_spy(monkeypatch):
    """Count the entries the screen hands to the literal helper."""
    seen = {"entries": 0}

    def spy(lower, upper, a, b):
        seen["entries"] += lower.shape[0]
        return _bisector_max(lower, upper, a, b)

    monkeypatch.setattr(pruning, "_bisector_max", spy)
    return seen


def _boxes(rng, n, m, scale=1.0):
    mid = rng.normal(size=(n, m)) * scale
    half = np.abs(rng.normal(size=(n, m))) * 0.3 * scale
    return mid - half, mid + half


def _duplicate_centroids():
    rng = np.random.default_rng(0)
    lower, upper = _boxes(rng, 60, 3)
    centers = rng.normal(size=(5, 3))
    centers[3] = centers[1]
    centers[4] = centers[1]
    return lower, upper, centers


def _point_mass_boxes():
    rng = np.random.default_rng(1)
    points = np.round(rng.normal(size=(80, 2)) * 4)
    centers = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    return points, points.copy(), centers


def _integer_grid():
    # Bisectors of integer centroids two apart sit on integer lines, so
    # boxes with an integer corner have max_h exactly 0.
    grid = np.stack(np.meshgrid(np.arange(-3, 4), np.arange(-3, 4)), -1)
    lower = grid.reshape(-1, 2).astype(np.float64)
    upper = lower + 1.0
    centers = np.array([[-2.0, 0.0], [0.0, 0.0], [2.0, 0.0], [0.0, 2.0]])
    return lower, upper, centers


def _scaled(scale):
    def build():
        rng = np.random.default_rng(2)
        lower, upper = _boxes(rng, 50, 4, scale)
        centers = lower[:6] + 0.5 * (upper[:6] - lower[:6])
        centers[5] = centers[4]
        return lower, upper, centers

    return build


def _infinite_supports():
    rng = np.random.default_rng(3)
    lower, upper = _boxes(rng, 40, 3)
    lower[::4, 0] = -np.inf
    upper[1::4, 2] = np.inf
    lower[2::8] = -np.inf
    upper[2::8] = np.inf
    centers = rng.normal(size=(4, 3))
    return lower, upper, centers


def _near_ties(scale):
    """Boxes whose corner sits on the (0, 1) bisector up to rounding:
    ``max_h`` is a few ulps of ``X`` either side of zero, where BLAS and
    the literal pairwise sum round differently."""

    def build():
        rng = np.random.default_rng(4)
        n, m = 400, 40
        centers = rng.normal(size=(2, m)) * scale
        a = -2.0 * (centers[0] - centers[1])
        b = np.einsum("cj,cj->c", centers, centers) @ [1.0, -1.0]
        corner = rng.normal(size=(n, m)) * scale * 1e3
        d = int(np.argmax(np.abs(a)))
        for _ in range(2):
            corner[:, d] -= (corner @ a + b) / a[d]
        width = np.abs(rng.normal(size=(n, m))) * scale
        positive = a > 0
        upper = np.where(positive, corner, corner + width)
        lower = np.where(positive, corner - width, corner)
        return lower, upper, centers

    return build


def _subnormal_ties():
    """Near-ties at subnormal scale: the products are odd multiples of
    half the smallest subnormal, so rounding them one by one (literal)
    and accumulating them another way (BLAS) can disagree by a few
    subnormals, and a unit step puts ``max_h`` that close to zero."""
    rng = np.random.default_rng(5)
    n, m = 600, 40
    grid = rng.integers(-40, 40, size=(2, m)).astype(np.float64)
    grid[1, 0] = grid[0, 0] + 1.0  # max_h moves by one subnormal per step
    centers = np.ldexp(grid, -537)
    step = grid[1] - grid[0]
    offset = 2.0 * ((grid[0] ** 2).sum() - (grid[1] ** 2).sum())
    odd = 2.0 * rng.integers(-500, 500, size=(n, m)) + 1.0
    target = -(offset + odd[:, 1:] @ step[1:]) / step[0]
    odd[:, 0] = 2.0 * np.round((target - 1.0) / 2.0) + 1.0
    odd[:, 0] += 2.0 * rng.integers(-3, 4, size=n)
    corner = np.ldexp(odd, -539)
    width = np.ldexp(np.ones((n, m)), -538)
    positive = -2.0 * (centers[0] - centers[1]) > 0
    upper = np.where(positive, corner, corner + width)
    lower = np.where(positive, corner - width, corner)
    return lower, upper, centers


def _smallest_shape():
    # m = 1, k = 2, n = 1, the box touching the bisector x = 1.
    return np.array([[0.0]]), np.array([[1.0]]), np.array([[0.0], [2.0]])


ADVERSARIAL = {
    "duplicate-centroids": _duplicate_centroids,
    "point-mass-boxes": _point_mass_boxes,
    "integer-grid": _integer_grid,
    "scale-1e+150": _scaled(1e150),
    "scale-1e-150": _scaled(1e-150),
    "infinite-supports": _infinite_supports,
    "near-ties-1e+0": _near_ties(1.0),
    "near-ties-1e+150": _near_ties(1e150),
    "subnormal-ties": _subnormal_ties,
    "m1-k2-n1": _smallest_shape,
}


@pytest.mark.parametrize("case", sorted(ADVERSARIAL))
def test_adversarial_mask_equals_literal(case, fallback_spy):
    lower, upper, centers = ADVERSARIAL[case]()
    expected = _reference_mask(lower, upper, centers)
    fallback_spy["entries"] = 0
    observed = VDBiP(centers.shape[0])._candidate_mask(lower, upper, centers)
    assert fallback_spy["entries"] > 0, "the literal fallback never ran"
    np.testing.assert_array_equal(observed, expected)


@pytest.mark.parametrize("case", ["near-ties-1e+0", "subnormal-ties"])
def test_near_ties_split_both_ways(case):
    """The tie cases must prune some objects and keep others, or they
    would not probe the margin."""
    lower, upper, centers = ADVERSARIAL[case]()
    pruned = ~_reference_mask(lower, upper, centers)
    assert 0 < pruned.sum() < lower.shape[0]


def test_non_finite_rows_bypass_the_screen(monkeypatch):
    """A BLAS that skips zero weights (so ``inf * 0`` never becomes NaN)
    must not change the mask: rows with a non-finite bound are routed
    to the literal fallback before the screen decides anything."""

    def zero_skipping_matmul(x, w):
        with np.errstate(invalid="ignore", over="ignore"):
            terms = x[:, :, None] * w[None, :, :]
        terms[np.broadcast_to(w == 0, terms.shape)] = 0.0
        return terms.sum(axis=1)

    rng = np.random.default_rng(6)
    lower, upper = _boxes(rng, 40, 3)
    centers = rng.normal(size=(3, 3))
    centers[:, 0] = 0.25  # a = 0 in dimension 0 for every pair
    lower[::2, 0] = -np.inf  # literal: -inf * 0 = NaN, never pruned
    expected = _reference_mask(lower, upper, centers)
    monkeypatch.setattr(np, "matmul", zero_skipping_matmul)
    observed = VDBiP(3)._candidate_mask(lower, upper, centers)
    np.testing.assert_array_equal(observed, expected)


@pytest.mark.parametrize("case", ["near-ties-1e+0", "subnormal-ties"])
def test_extended_precision_blas(case, monkeypatch):
    """A BLAS that accumulates in extended precision (no rounding of
    subnormal products) is within the proof's error bound; the mask
    must not change.  At subnormal scale its S differs in sign from the
    literal sum, so only the underflow routing keeps the masks equal."""
    matmul = np.matmul

    def extended_matmul(x, w):
        wide = matmul(x.astype(np.longdouble), w.astype(np.longdouble))
        return wide.astype(np.float64)

    lower, upper, centers = ADVERSARIAL[case]()
    expected = _reference_mask(lower, upper, centers)
    monkeypatch.setattr(np, "matmul", extended_matmul)
    observed = VDBiP(centers.shape[0])._candidate_mask(lower, upper, centers)
    np.testing.assert_array_equal(observed, expected)


def test_overflow_scale_entries_take_the_fallback(fallback_spy):
    """Entries whose error scale T exceeds max / 256 — where a partial
    sum of the literal could overflow — are recomputed, not screened."""
    rng = np.random.default_rng(2)
    lower, upper = _boxes(rng, 50, 4, 3e152)
    centers = rng.normal(size=(5, 4)) * 3e152
    expected = _reference_mask(lower, upper, centers)
    observed = VDBiP(5)._candidate_mask(lower, upper, centers)
    assert fallback_spy["entries"] > 0
    np.testing.assert_array_equal(observed, expected)


def test_mask_prunes_and_keeps_on_adversarial_grid():
    # The grid case must exercise both outcomes, not only ties.
    lower, upper, centers = _integer_grid()
    mask = VDBiP(4)._candidate_mask(lower, upper, centers)
    assert (~mask).any() and mask.sum(axis=1).min() >= 1
    assert (mask.sum(axis=1) > 1).any()


@pytest.mark.parametrize("seed", range(40))
def test_random_masks_equal_literal(seed):
    rng = np.random.default_rng(seed)
    n, m, k = (int(v) for v in rng.integers((1, 1, 2), (120, 8, 10)))
    lower, upper = _boxes(rng, n, m, 10.0 ** rng.uniform(-6, 6))
    if seed % 3 == 0:
        lower, upper = np.round(lower, 1), np.round(upper, 1)
    centers = lower[rng.integers(0, n, k)]
    if seed % 4 == 0:
        centers[-1] = centers[0]
    observed = VDBiP(k)._candidate_mask(lower, upper, centers)
    np.testing.assert_array_equal(observed, _reference_mask(lower, upper, centers))


def test_fallback_alone_equals_literal(monkeypatch, fallback_spy):
    """An infinite margin routes every off-diagonal entry through the
    vectorized fallback, whose per-entry gather must equal the loop."""
    monkeypatch.setattr(pruning, "_MARGIN_C", np.inf)
    rng = np.random.default_rng(7)
    lower, upper = _boxes(rng, 150, 5)
    centers = lower[:6].copy()
    observed = VDBiP(6)._candidate_mask(lower, upper, centers)
    assert fallback_spy["entries"] == 150 * 6 * 5
    np.testing.assert_array_equal(observed, _reference_mask(lower, upper, centers))


def test_blocked_screen_equals_literal(monkeypatch):
    """Row blocks smaller than one row still cover every object."""
    monkeypatch.setattr(pruning, "MASK_BLOCK_ELEMENTS", 7)
    rng = np.random.default_rng(8)
    lower, upper = _boxes(rng, 33, 4)
    centers = rng.normal(size=(5, 4))
    observed = VDBiP(5)._candidate_mask(lower, upper, centers)
    np.testing.assert_array_equal(observed, _reference_mask(lower, upper, centers))


def test_screen_decides_figure5_shaped_boxes(fallback_spy):
    """On KDD-shaped data (m=42, k=23) the GEMM screen decides every
    entry by itself — the fallback is for ties and extreme scales."""
    points, labels = make_benchmark("kddcup99", scale=400 / 4_000_000, seed=5)
    data = UncertaintyGenerator("normal", mass=0.95).uncertain_dataset(
        points, labels, seed=5
    )
    lower, upper = data.support_lower, data.support_upper
    centers = data.mu_matrix[np.random.default_rng(0).choice(len(data), 23, False)]
    observed = VDBiP(23)._candidate_mask(lower, upper, centers)
    assert fallback_spy["entries"] == 0
    np.testing.assert_array_equal(observed, _reference_mask(lower, upper, centers))
