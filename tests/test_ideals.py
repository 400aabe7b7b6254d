import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace import ideals, operators
from singtrace.ideals import (
    COMMUTATOR_SUBSPACE,
    INCONCLUSIVE,
    MEASURABLE,
    PartialSumSeries,
    decay_exponent,
    dyadic_window,
    eigenvalue_partial_sums,
    geometric_grid,
    ideal_diagnostics,
    log_fit,
    lorentz_norm_m1inf,
    quasi_norm_pinf,
    universal_measurability_test,
    _distinct,
)
from singtrace.operators import (
    ContractViolation,
    Operator,
    canonical_order,
    zero,
)

from conftest import matrix_operator, random_unitary


def harmonic(N):
    return 1.0 / (np.arange(N) + 1.0)


class TestQuasiNorm:
    def test_harmonic_attains_one(self):
        # (k+1) * 1/(k+1) == 1 for every k
        assert quasi_norm_pinf(harmonic(1000), 1.0) == pytest.approx(1.0)

    def test_rank_one(self):
        assert quasi_norm_pinf(np.array([1.0, 0, 0]), 2.0) == pytest.approx(1.0)

    def test_inverse_sqrt(self):
        mu = (np.arange(1000) + 1.0) ** -0.5
        assert quasi_norm_pinf(mu, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ContractViolation):
            quasi_norm_pinf(harmonic(5), 0.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 31),
           scale=st.floats(1e-3, 1e3))
    def test_positive_homogeneity_exact(self, seed, scale):
        rng = np.random.default_rng(seed)
        mu = np.sort(rng.random(50))[::-1]
        base = quasi_norm_pinf(mu, 1.0)
        assert quasi_norm_pinf(scale * mu, 1.0) == pytest.approx(
            scale * base, rel=1e-12)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 0.5, 1.5])
@pytest.mark.parametrize("n", [1, 7, 1000, 100_001])
def test_norms_in_place_equal_the_formulas_bit_for_bit(p, n):
    # the in-place norms against their textbook expressions, with the
    # input left as it was
    rng = np.random.default_rng(n)
    mu = np.sort(rng.random(n))[::-1]
    mu[n // 2:] = 0.0
    before = mu.copy()
    k = np.arange(n, dtype=float)
    assert quasi_norm_pinf(mu, p) == float(np.max((k + 1.0) ** (1.0 / p) * mu))
    assert lorentz_norm_m1inf(mu) == float(
        np.max(np.cumsum(mu) / np.log(2.0 + k)))
    assert mu.tobytes() == before.tobytes()


@pytest.mark.parametrize("p", [1.0, 0.5])
def test_quasi_norm_blocks_miss_no_entry(p):
    # quasi_norm_pinf takes one block at a time: a lone entry at either end
    # of a block, or of the sequence, sets the supremum
    B = ideals._NORM_BLOCK
    n = 2 * B + 5
    for i in (0, B - 1, B, 2 * B - 1, 2 * B, n - 1):
        mu = np.zeros(n)
        mu[i] = 0.5
        assert quasi_norm_pinf(mu, p) == (i + 1.0) ** (1.0 / p) * 0.5


class TestLorentzNorm:
    def test_harmonic_value(self):
        # oracle: direct cumulative sums; sup attained at n=0 with 1/log 2
        mu = harmonic(100_000)
        sums = np.cumsum(mu)
        oracle = float(np.max(sums / np.log(np.arange(100_000) + 2.0)))
        got = lorentz_norm_m1inf(mu)
        assert got == pytest.approx(oracle)
        assert 1.0 <= got <= 1.6
        assert got == pytest.approx(1.0 / np.log(2.0), rel=1e-9)

    def test_zero(self):
        assert lorentz_norm_m1inf(np.zeros(10)) == 0.0

    def test_rank_one(self):
        got = lorentz_norm_m1inf(np.array([1.0, 0.0, 0.0]))
        assert got == pytest.approx(1.0 / np.log(2.0))

    def test_blocked_running_sum_equals_cumsum_bit_for_bit(self):
        # the running sum is carried from block to block; with entries of
        # mixed magnitudes every partial sum rounds, and a slowly decaying
        # sequence puts the supremum in the last block
        B = ideals._NORM_BLOCK
        rng = np.random.default_rng(29)
        for n in (0, 1, B - 1, B, B + 1, 3 * B + 7):
            for mu in (rng.random(n) * 10.0 ** rng.uniform(-8, 2, n),
                       1.0 / np.sqrt(np.arange(n) + 1.0)):
                k = np.arange(n, dtype=float)
                want = (float(np.max(np.cumsum(mu) / np.log(2.0 + k)))
                        if n else 0.0)
                got = lorentz_norm_m1inf(mu)
                assert np.float64(got).tobytes() == np.float64(want).tobytes()


def every_sum(series):
    """S(n) of ``series`` at every index."""
    return series.at(np.arange(series.N))


def from_sums(sums):
    """The series whose partial sums are ``sums``, up to rounding."""
    return PartialSumSeries(np.diff(sums, prepend=0.0))


class TestPartialSums:
    def test_harmonic_sums_match_direct_summation(self):
        N = 1000
        series = eigenvalue_partial_sums(Operator(harmonic(N).astype(complex)))
        oracle = np.cumsum(harmonic(N))
        sums = every_sum(series)
        np.testing.assert_allclose(sums.real, oracle, atol=1e-12)
        np.testing.assert_allclose(sums.imag, 0.0, atol=1e-12)

    def test_alternating_sums_bounded(self):
        N = 2000
        v = ((-1.0) ** np.arange(N)) / (np.arange(N) + 1.0)
        series = eigenvalue_partial_sums(Operator(v.astype(complex)))
        assert np.max(np.abs(every_sum(series))) <= 1.0 + 1e-12

    def test_nilpotent_sums_zero(self):
        T = matrix_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        series = eigenvalue_partial_sums(T)
        np.testing.assert_allclose(every_sum(series), 0.0, atol=1e-14)

    def test_psd_sums_real_nonneg_nondecreasing(self):
        rng = np.random.default_rng(17)
        H = rng.standard_normal((40, 40))
        T = matrix_operator((H @ H.T).astype(complex))
        sums = every_sum(eigenvalue_partial_sums(T))
        assert np.max(np.abs(sums.imag)) <= 1e-9
        real = sums.real
        assert real[0] >= 0
        assert np.all(np.diff(real) >= -1e-10)

    @staticmethod
    def complex_path(d):
        """Eigenvalues and boundaries of a real diagonal taken in complex
        arithmetic: the complex eigenvalues in canonical order, and the
        indices where the modulus drops."""
        values = canonical_order(d.astype(complex))
        moduli = np.abs(values)
        scale = moduli[0] if moduli[0] > 0 else 1.0
        drop = moduli[:-1] - moduli[1:] > 1e-9 * scale
        return values, np.concatenate([np.flatnonzero(drop), [d.size - 1]])

    @pytest.mark.parametrize("case", ["alternating-harmonic", "ties", "nan"])
    def test_hermitian_sums_are_the_real_parts_of_the_complex_path(self, case):
        rng = np.random.default_rng(31)
        n = 5000
        if case == "alternating-harmonic":
            d = np.where(np.arange(n) % 2, -1.0, 1.0) / (np.arange(n) + 1.0)
        else:
            d = rng.choice([2.5, -2.5, 1.0, -1.0, 0.5, 0.0, -0.0], size=n)
            if case == "nan":
                d[1234] = np.nan
        series = eigenvalue_partial_sums(Operator(d))
        values, boundaries = self.complex_path(d)
        assert series.values.dtype == np.float64
        assert series.values.tobytes() == values.real.tobytes()
        sums = every_sum(PartialSumSeries(values))
        assert every_sum(series).tobytes() == sums.real.tobytes()
        assert series.boundaries.tobytes() == boundaries.tobytes()

    @pytest.mark.parametrize("block", [1, 7, 1000])
    def test_tie_boundaries_do_not_depend_on_the_block(self, block,
                                                       monkeypatch):
        # the tie boundaries are taken one block of moduli at a time: with
        # blocks much shorter than the spectrum, they are still the drops
        # of the full-length moduli
        monkeypatch.setattr(operators, "_MODULI_BLOCK", block)
        for case in ("alternating-harmonic", "ties", "nan"):
            self.test_hermitian_sums_are_the_real_parts_of_the_complex_path(
                case)

    def test_hermitian_diagonal_is_held_without_a_copy(self):
        d = harmonic(10_000)
        series = eigenvalue_partial_sums(Operator(d))
        assert series.values is d

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_sums_match_fsum_to_a_few_eps(self, cplx):
        # each S(n) of the harmonic sequence at N = 1e6 is within 4 eps of
        # its correctly rounded value (measured: at most 1.7 eps); np.cumsum
        # is off by 5.1e-14 relative (230 eps) at the last index
        eps = np.finfo(float).eps
        N = 1_000_000
        values = harmonic(N) * (1.0 - 0.5j if cplx else 1.0)
        series = PartialSumSeries(values)
        rng = np.random.default_rng(3)
        ns = np.concatenate([geometric_grid(1, N - 1),
                             rng.integers(0, N, 40),
                             [ideals._SUM_BLOCK - 1, ideals._SUM_BLOCK,
                              N - 1]])
        for n, got in zip(ns, series.at(ns)):
            want = math.fsum(harmonic(n + 1))
            want = want * (1.0 - 0.5j) if cplx else want
            assert abs(got - want) <= 4 * eps * abs(want)
            assert got.dtype == values.dtype

    def test_sums_do_not_depend_on_the_indices_read(self):
        rng = np.random.default_rng(4)
        values = rng.standard_normal(50_000) + 1j * rng.standard_normal(50_000)
        series = PartialSumSeries(values)
        every = every_sum(series)
        for _ in range(5):
            ns = rng.integers(0, values.size, rng.integers(1, 60))
            assert series.at(ns).tobytes() == every[ns].tobytes()
            assert series.at(int(ns[0])).tobytes() == every[ns[0]].tobytes()
        assert series.at(ns.reshape(-1, 1)).shape == (ns.size, 1)

    def test_reads_outside_the_series_are_rejected(self):
        series = PartialSumSeries(harmonic(100))
        for ns in ([100], [-1], [3, 200]):
            with pytest.raises(ContractViolation):
                series.at(ns)
        assert series.at([]).size == 0

    def test_no_full_length_cumulative_sum(self, monkeypatch):
        # the series holds the values and the running sum of whole blocks;
        # no cumulative sum of all N values is formed, by the series, the
        # log fit or the Dixmier log-mean
        from singtrace.traces import ExtendedLimitScheme, dixmier_logmean

        N = 100_000
        sizes = []
        real_cumsum = np.cumsum
        monkeypatch.setattr(np, "cumsum", lambda a, *args, **kw: sizes.append(
            np.size(a)) or real_cumsum(a, *args, **kw))
        series = eigenvalue_partial_sums(Operator(harmonic(N)))
        log_fit(series)
        dixmier_logmean(series, ExtendedLimitScheme())
        assert sizes and max(sizes) <= N // ideals._SUM_BLOCK

    def test_exact_zero_sums_are_a_zero_stride_view(self, monkeypatch):
        from singtrace import ideals

        def refuse(T):
            raise AssertionError("eigenvalues of the exact zero")

        monkeypatch.setattr(ideals, "eigenvalues", refuse)
        n = 1000
        series = eigenvalue_partial_sums(zero(n))
        values, boundaries = self.complex_path(np.zeros(n))
        assert series.values.strides == (0,)
        assert not series.values.flags.writeable
        assert series.values.tobytes() == values.real.tobytes()
        assert every_sum(series).tobytes() == np.zeros(n).tobytes()
        assert series.boundaries.tobytes() == boundaries.tobytes()
        fit = log_fit(series)
        assert fit.z == 0 and fit.residual_sup == 0.0


class TestLogFit:
    def test_exact_logarithmic_model(self):
        n = np.arange(5000)
        series = from_sums(2.0 * np.log(n + 1.0) + 0.3)
        fit = log_fit(series)
        assert fit.z == pytest.approx(2.0, abs=1e-10)
        assert fit.residual_sup <= 1e-10

    def test_bounded_series_has_negligible_slope(self):
        n = np.arange(10_000)
        series = from_sums(np.sin(n.astype(float)))
        fit = log_fit(series)
        assert abs(fit.z) <= 0.5
        assert fit.residual_sup <= 2.0

    def test_harmonic_slope_one(self):
        # oracle: direct summation of 1/(k+1)
        fit = log_fit(PartialSumSeries(harmonic(10_000)))
        assert fit.z == pytest.approx(1.0, abs=0.01)

    def test_degenerate_window_rejected(self):
        series = PartialSumSeries(np.ones(100))
        with pytest.raises(ContractViolation):
            log_fit(series, window=(50, 52))

    def test_reordering_within_tie_groups_invariant(self):
        # +/- pairs of equal modulus: any intra-group order gives the same
        # fit because samples snap to group boundaries
        N = 4096
        mu = 1.0 / (np.arange(N // 2) + 1.0)
        fwd = np.empty(N, dtype=complex)
        fwd[0::2], fwd[1::2] = mu * 1j, -mu * 1j
        rev = np.empty(N, dtype=complex)
        rev[0::2], rev[1::2] = -mu * 1j, mu * 1j
        f1 = log_fit(eigenvalue_partial_sums(Operator(fwd)))
        f2 = log_fit(eigenvalue_partial_sums(Operator(rev)))
        assert abs(f1.z - f2.z) <= 1e-10


class TestMeasurability:
    def test_harmonic_measurable(self):
        verdict = universal_measurability_test(eigenvalue_partial_sums(
            Operator(harmonic(20_000).astype(complex))))
        assert verdict.kind == MEASURABLE
        assert verdict.z == pytest.approx(1.0, abs=0.02)

    def test_alternating_commutator_subspace(self):
        N = 20_000
        v = ((-1.0) ** np.arange(N)) / (np.arange(N) + 1.0)
        verdict = universal_measurability_test(
            eigenvalue_partial_sums(Operator(v.astype(complex))))
        assert verdict.kind == COMMUTATOR_SUBSPACE
        assert abs(verdict.z) <= 0.02

    def test_inconclusive_on_wild_growth(self):
        # sqrt growth cannot be written as z log(n+1) + O(1) at tol 0.5
        n = np.arange(100_000, dtype=float)
        verdict = universal_measurability_test(from_sums(np.sqrt(n)))
        assert verdict.kind == INCONCLUSIVE

    def test_macaev_spike_sequence_not_measurable(self):
        # non-increasing mu with plateaus 2^j/k_j on [k_j/2^j, k_j],
        # k_j = 2^(2^j): bounded log-means but sup k*mu(k) unbounded, and
        # the partial sums oscillate too much for any z log(n+1) + O(1)
        N = 70_000
        k = np.arange(N) + 1.0
        mu = 1.0 / k
        for j in (2, 3, 4):
            kj = 2 ** (2 ** j)
            lo = max(kj // (2 ** j), 1)
            if kj <= N:
                mu[lo - 1:kj] = np.maximum(mu[lo - 1:kj], (2.0 ** j) / kj)
        mu = np.minimum.accumulate(mu)  # enforce monotonicity exactly
        assert lorentz_norm_m1inf(mu) < 5.0
        assert quasi_norm_pinf(mu, 1.0) >= 8.0  # far above the harmonic 1
        verdict = universal_measurability_test(
            eigenvalue_partial_sums(Operator(mu.astype(complex))), tol=0.5)
        assert verdict.kind == INCONCLUSIVE

    def test_unitary_conjugation_invariance(self):
        rng = np.random.default_rng(23)
        N = 512
        T = np.diag(harmonic(N)).astype(complex)
        U = random_unitary(rng, N)
        v1 = universal_measurability_test(
            eigenvalue_partial_sums(matrix_operator(T)))
        v2 = universal_measurability_test(
            eigenvalue_partial_sums(matrix_operator(U @ T @ U.conj().T)))
        assert v1.kind == v2.kind == MEASURABLE
        assert abs(v1.z - v2.z) <= 1e-6

    def test_circle_pairing_measurable_z_two(self, circle256):
        from singtrace.hochschild import circle_winding_cycle, omega
        from singtrace.triples import resolvent_weight

        c = circle_winding_cycle(circle256)
        T = omega(c, circle256) @ circle256.compress(
            resolvent_weight(circle256, 1))
        verdict = universal_measurability_test(
            eigenvalue_partial_sums(T), window=circle256.fit_window())
        assert verdict.kind == MEASURABLE
        assert verdict.z == pytest.approx(2.0, abs=0.1)


class TestDiagnostics:
    def test_decay_exponent_harmonic(self):
        assert decay_exponent(harmonic(50_000)) == pytest.approx(-1.0, abs=0.01)

    def test_ideal_diagnostics_flags(self):
        diag = ideal_diagnostics(harmonic(10_000))
        assert diag.fitted_decay_exponent <= ideals._WEAK_L1_SLOPE
        assert diag.quasi_norm_pinf == pytest.approx(1.0)

    def test_distinct_equals_unique_on_sorted_input(self):
        rng = np.random.default_rng(37)
        for x in (np.zeros(0, np.int64), np.array([5]), np.array([3, 3, 3]),
                  np.sort(rng.integers(0, 50, 200)), np.arange(10)):
            got = _distinct(x)
            assert got.dtype == x.dtype
            assert got.tobytes() == np.unique(x).tobytes()
        for lo, hi, ratio in ((1, 2, 1.01), (8, 1000, 2 ** 0.5), (3, 3, 2.0)):
            pts, x = [], float(lo)
            while x <= hi:
                pts.append(int(np.ceil(x)))
                x *= ratio
            want = np.unique(np.asarray(pts + [hi], dtype=np.int64))
            assert geometric_grid(lo, hi, ratio).tobytes() == want.tobytes()

    def test_grids_and_windows(self):
        g = geometric_grid(4, 64, 2.0)
        assert g[0] == 4 and g[-1] == 64
        assert np.all(np.diff(g) > 0)
        lo, hi = dyadic_window(10_000)
        assert lo == 100 and hi < 10_000
