"""Tests for the Section 5.1 uncertainty-generation pipeline (S22)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datagen import PDF_FAMILIES, UncertaintyGenerator
from repro.exceptions import InvalidParameterError


@pytest.fixture(scope="module")
def points():
    rng = np.random.default_rng(7)
    return rng.normal(0, 3, size=(40, 3)), rng.integers(0, 3, size=40)


@pytest.mark.parametrize("family", PDF_FAMILIES)
class TestPerFamily:
    def test_pair_shapes(self, family, points):
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5)
        pair = gen.generate(pts, labels, seed=0)
        assert len(pair.perturbed) == 40
        assert len(pair.uncertain) == 40
        assert pair.uncertain.dim == 3

    def test_perturbed_is_deterministic(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=0)
        assert np.all(pair.perturbed.total_variances == 0.0)

    def test_uncertain_has_variance(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=0)
        assert np.all(pair.uncertain.total_variances > 0.0)

    def test_expected_values_near_original(self, family, points):
        """mu(f_w) = w for the untruncated pdf; truncation (Case 2)
        preserves it exactly for the symmetric families and approximately
        for the exponential."""
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5, mass=0.95)
        pair = gen.generate(pts, labels, seed=1)
        mu = pair.uncertain.mu_matrix
        scale = pts.std(axis=0)
        if family == "exponential":
            assert np.all(np.abs(mu - pts) < 0.6 * scale)
        else:
            assert np.allclose(mu, pts, atol=1e-8)

    def test_labels_carried_through(self, family, points):
        pts, labels = points
        pair = UncertaintyGenerator(family=family).generate(pts, labels, seed=2)
        assert np.array_equal(pair.perturbed.labels, labels)
        assert np.array_equal(pair.uncertain.labels, labels)

    def test_reproducible(self, family, points):
        pts, labels = points
        a = UncertaintyGenerator(family=family).generate(pts, labels, seed=3)
        b = UncertaintyGenerator(family=family).generate(pts, labels, seed=3)
        assert np.allclose(a.perturbed.mu_matrix, b.perturbed.mu_matrix)
        assert np.allclose(a.uncertain.mu_matrix, b.uncertain.mu_matrix)

    def test_perturbation_draws_from_assigned_pdf(self, family, points):
        """Each perturbed point must lie within the (untruncated) support
        scale of its pdf — loosely: within a few column stds of w."""
        pts, labels = points
        gen = UncertaintyGenerator(family=family, spread=0.5)
        pair = gen.generate(pts, labels, seed=4)
        deviation = np.abs(pair.perturbed.mu_matrix - pts)
        column_std = pts.std(axis=0)
        assert np.all(deviation < 8.0 * column_std)

    def test_region_mass_is_truncated(self, family, points):
        """Case-2 regions are bounded (truncation happened)."""
        pts, labels = points
        pair = UncertaintyGenerator(family=family, mass=0.95).generate(
            pts, labels, seed=5
        )
        for obj in pair.uncertain:
            assert np.all(np.isfinite(obj.region.lower))
            assert np.all(np.isfinite(obj.region.upper))


class TestGeneratorOptions:
    def test_mcmc_mode(self, points):
        pts, labels = points
        gen = UncertaintyGenerator(family="normal", use_mcmc=True)
        pair = gen.generate(pts[:10], labels[:10], seed=0)
        assert len(pair.perturbed) == 10
        deviation = np.abs(pair.perturbed.mu_matrix - pts[:10])
        assert np.all(deviation < 10.0 * pts.std(axis=0))

    def test_spread_scales_variance(self, points):
        pts, labels = points
        small = UncertaintyGenerator(family="normal", spread=0.2).generate(
            pts, labels, seed=6
        )
        large = UncertaintyGenerator(family="normal", spread=2.0).generate(
            pts, labels, seed=6
        )
        assert (
            large.uncertain.total_variances.mean()
            > small.uncertain.total_variances.mean()
        )

    def test_uncertain_dataset_shortcut(self, points):
        pts, labels = points
        gen = UncertaintyGenerator(family="uniform")
        ds = gen.uncertain_dataset(pts, labels, seed=7)
        assert len(ds) == 40

    @pytest.mark.parametrize("family", PDF_FAMILIES)
    def test_invalid_parameters(self, family, points):
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator(family="cauchy")
        for spread in (0.0, np.nan, np.inf):
            with pytest.raises(InvalidParameterError, match="spread"):
                UncertaintyGenerator(family, spread=spread)
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator(family, mass=1.5)

        # Coordinates of order 1e154 overflow the column std: one typed
        # error naming the column, raised before any draw.
        pts, labels = points
        huge = pts.copy()
        huge[:, 1] *= 1e154
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidParameterError, match="column 1"):
            UncertaintyGenerator(family).generate(huge, labels, seed=rng)
        assert rng.bit_generator.state == state

        # Non-integral labels are rejected, not truncated to class 0.
        with pytest.raises(InvalidParameterError, match="integral"):
            UncertaintyGenerator(family).generate(
                pts[:20], np.linspace(0, 1, 20), seed=0
            )
        pair = UncertaintyGenerator(family).generate(
            pts, labels.astype(float), seed=0
        )
        assert np.array_equal(pair.uncertain.labels, labels)

    def test_label_length_mismatch(self, points):
        pts, _ = points
        with pytest.raises(InvalidParameterError):
            UncertaintyGenerator().generate(pts, labels=[0, 1], seed=0)

    def test_unlabeled_generation(self, points):
        pts, _ = points
        pair = UncertaintyGenerator().generate(pts, seed=8)
        assert pair.uncertain.labels is None
