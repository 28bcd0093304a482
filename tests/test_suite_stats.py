"""Tests for repro.experiments.stats (bootstrap CIs, paired tests)."""

import numpy as np
import pytest

from repro.experiments.stats import (
    bootstrap_ci,
    paired_permutation_test,
    wilcoxon_signed_rank,
)


class TestBootstrapCI:
    def test_single_value_degenerates_to_point(self):
        ci = bootstrap_ci([3.5])
        assert ci == {"mean": 3.5, "lo": 3.5, "hi": 3.5, "n": 1}

    def test_constant_sample_degenerates_to_point(self):
        ci = bootstrap_ci([2.0, 2.0, 2.0])
        assert ci["lo"] == ci["hi"] == ci["mean"] == 2.0

    def test_interval_brackets_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(10.0, 1.0, size=40)
        ci = bootstrap_ci(values)
        assert ci["lo"] < ci["mean"] < ci["hi"]
        assert ci["mean"] == pytest.approx(values.mean())
        assert ci["n"] == 40

    def test_deterministic_across_calls(self):
        values = [1.0, 2.5, 3.0, 4.75, 2.25]
        assert bootstrap_ci(values) == bootstrap_ci(values)

    def test_higher_confidence_widens(self):
        rng = np.random.default_rng(1)
        values = rng.normal(0.0, 1.0, size=30)
        narrow = bootstrap_ci(values, confidence=0.80)
        wide = bootstrap_ci(values, confidence=0.99)
        assert wide["hi"] - wide["lo"] > narrow["hi"] - narrow["lo"]

    def test_rejects_empty_and_bad_confidence(self):
        with pytest.raises(ValueError):
            bootstrap_ci([])
        with pytest.raises(ValueError):
            bootstrap_ci([1.0], confidence=1.0)


class TestPairedPermutation:
    def test_identical_samples_p_one(self):
        x = [1.0, 2.0, 3.0]
        out = paired_permutation_test(x, x)
        assert out["p"] == 1.0
        assert out["mean_diff"] == 0.0

    def test_exact_enumeration_small_n(self):
        out = paired_permutation_test([1.0, 2.0, 3.0], [0.0, 0.0, 0.0])
        assert out["exact"] is True
        # All 8 sign assignments; only (+,+,+) and (-,-,-) reach |mean|=2.
        assert out["p"] == pytest.approx(2 / 8)

    @pytest.mark.parametrize("n", [2, 5, 10, 16])
    def test_exact_p_matches_loop_enumeration(self, n):
        """The vectorized sign matrix gives the loop reference's p exactly."""
        rng = np.random.default_rng(n)
        x = rng.normal(0.0, 1.0, size=n)
        y = rng.normal(0.3, 1.0, size=n)
        diffs = x - y
        signs = np.array(
            [[1.0 if (m >> k) & 1 else -1.0 for k in range(n)]
             for m in range(1 << n)]
        )
        hits = np.abs(signs @ diffs / n) >= abs(float(diffs.mean())) - 1e-12
        out = paired_permutation_test(x, y)
        assert out["exact"] is True
        assert out["p"] == float(hits.mean())

    def test_strong_effect_significant(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 0.1, size=15)
        y = x + 1.0
        out = paired_permutation_test(x, y)
        assert out["p"] <= 2 / 2**15 + 1e-12
        assert out["mean_diff"] == pytest.approx(-1.0, abs=0.1)

    def test_monte_carlo_path_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0, 1, size=30)
        y = rng.normal(0.2, 1, size=30)
        a = paired_permutation_test(x, y)
        b = paired_permutation_test(x, y)
        assert a == b
        assert a["exact"] is False
        assert 0.0 <= a["p"] <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            paired_permutation_test([1.0, 2.0], [1.0])


class TestWilcoxon:
    def test_identical_samples_vacuous(self):
        out = wilcoxon_signed_rank([1.0, 2.0], [1.0, 2.0])
        assert out["p"] == 1.0
        assert out["n"] == 0

    def test_known_example(self):
        # scipy.stats.wilcoxon(x, y, correction=False, mode="approx",
        # zero_method="pratt") gives statistic 22.0, p = 0.60960111552.
        x = [125, 115, 130, 140, 140, 115, 140, 125, 140, 135]
        y = [110, 122, 125, 120, 140, 124, 123, 137, 135, 145]
        out = wilcoxon_signed_rank(x, y)
        assert out["n"] == 9  # one zero difference drops
        assert out["statistic"] == 22.0
        assert out["p"] == pytest.approx(0.60960111552, abs=1e-9)

    def test_strong_effect_small_p(self):
        x = np.arange(1.0, 16.0)
        out = wilcoxon_signed_rank(x, x + 5.0)
        assert out["p"] < 0.01

    def test_p_bounded(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, 20)
        y = rng.normal(0, 1, 20)
        out = wilcoxon_signed_rank(x, y)
        assert 0.0 <= out["p"] <= 1.0
