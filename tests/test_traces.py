import math

import numpy as np
import pytest
import scipy.sparse as sp

from singtrace import traces
from singtrace.hochschild import circle_winding_cycle, heat_cycle_trace
from singtrace.ideals import PartialSumSeries, eigenvalue_partial_sums
from singtrace.operators import (
    ContractViolation,
    Operator,
    singular_values,
    zero,
)
from singtrace.traces import (
    BranchError,
    ExtendedLimitScheme,
    _heat_sums,
    _heat_weights,
    _sorted_spectrum,
    cesaro_cutoff_comparison,
    default_heat_grid,
    dixmier_logmean,
    heat_fit,
    heat_functional,
    heat_xi,
    lemma_estimate_scalings,
    measurability_criterion_check,
    modulated_comparison,
)

from conftest import matrix_operator

N_BIG = 100_000


def harmonic_op(N=N_BIG, scale=1.0):
    return Operator(scale / (np.arange(N) + 1.0), label="harmonic")


def trace_class_op(N=N_BIG):
    return Operator(1.0 / (np.arange(N) + 1.0) ** 2, label="harmonic^2")


SCHEME = ExtendedLimitScheme()


def partial_sums(V):
    """The partial sums of V's singular values, every index a boundary."""
    return PartialSumSeries(np.cumsum(singular_values(V)))


def heat_samples(A, V, alpha):
    """heat_functional on the default heat grid of V's dimension."""
    return heat_functional(A, V, alpha, default_heat_grid(V.dim))


def criterion(A, V):
    """measurability_criterion_check on the alpha = 2 heat samples of the
    default heat grid."""
    return measurability_criterion_check(
        A, V, default_heat_grid(V.dim), heat_samples(A, V, 2.0))


class TestDixmierLogMean:
    def test_harmonic_converges_to_one(self):
        est = dixmier_logmean(partial_sums(harmonic_op()), SCHEME)
        assert est.method == "dixmier_logmean"
        assert abs(est.z - 1.0) <= 0.02

    def test_trace_class_vanishes(self):
        est = dixmier_logmean(partial_sums(trace_class_op()), SCHEME)
        assert abs(est.z) <= 0.02

    def test_homogeneity(self):
        est = dixmier_logmean(partial_sums(harmonic_op(scale=2.0)), SCHEME)
        assert abs(est.z - 2.0) <= 0.04

    def test_scheme_ratio_robustness(self):
        sums = partial_sums(harmonic_op())
        zs = [dixmier_logmean(sums, ExtendedLimitScheme(ratio=r)).z
              for r in (1.5, 2.0, 3.0)]
        drift = max(abs(a - b) for a in zs for b in zs)
        assert drift < 0.02

    def test_plain_mean_documents_its_bias(self):
        # the uncorrected window mean retains the gamma/log(n) offset; the
        # oscillation it reports covers that bias
        sums = partial_sums(harmonic_op())
        est = dixmier_logmean(sums, ExtendedLimitScheme(averaging="mean"))
        assert 0.02 <= abs(est.z - 1.0) <= 0.1
        assert est.residual_sup >= 0.005


class TestHeatFunctional:
    def test_matches_direct_summation(self):
        # oracle: h(n) = sum_k exp(-((k+1)/n)^2) / (k+1), computed directly
        N = 5000
        V = harmonic_op(N)
        grid = np.array([16, 64, 256])
        samples = heat_functional(None, V, 2.0, grid=grid)
        k = np.arange(N) + 1.0
        for n, got in zip(grid, samples):
            oracle = np.sum(np.exp(-((k / n) ** 2.0)) / k)
            assert got == pytest.approx(oracle, rel=1e-12)

    def test_harmonic_slope_one(self):
        V = harmonic_op()
        est = heat_fit(default_heat_grid(V.dim), heat_samples(None, V, 2.0))
        assert abs(est.z - 1.0) <= 0.05

    def test_zero_coefficient_operator(self):
        V = harmonic_op(1000)
        A = Operator(np.zeros(1000, dtype=complex))
        samples = heat_samples(A, V, 2.0)
        assert np.max(np.abs(samples)) == 0.0

    def test_zero_coefficient_returns_zeros_before_the_sort(self, monkeypatch):
        v = 1.0 / (np.arange(3000) + 1.0)
        A = Operator(np.zeros(v.size, dtype=complex))
        grid = np.array([8, 64, 512])
        with monkeypatch.context() as m:
            m.setattr(traces, "_sorted_spectrum", None)
            got = heat_functional(A, Operator(v), 2.0, grid=grid)
        assert got.tobytes() == np.zeros(grid.size, dtype=complex).tobytes()
        v[17] = np.nan
        V = Operator(v)
        assert np.all(np.isnan(heat_functional(A, V, 2.0, grid=grid)))

    def test_exact_zero_is_not_read(self, monkeypatch):
        # the zero rule comes before A's diagonal: an A with no layer gives
        # exact zeros with only V's diagonal read, and a NaN in V still
        # makes every sum NaN
        v = 1.0 / (np.arange(3000) + 1.0)
        grid = np.array([8, 64, 512])
        reads = []
        real_diag = Operator.diag

        def diag(op):
            reads.append(op.label)
            return real_diag(op)

        monkeypatch.setattr(Operator, "diag", diag)
        got = heat_functional(zero(v.size), Operator(v, label="V"), 2.0,
                              grid=grid)
        assert got.tobytes() == np.zeros(grid.size, dtype=complex).tobytes()
        assert reads == ["V"]
        v[17] = np.nan
        got = heat_functional(zero(v.size), Operator(v, label="V"), 2.0,
                              grid=grid)
        assert got.dtype == complex and np.all(np.isnan(got))
        assert set(reads) == {"V"}
        with pytest.raises(ContractViolation, match="dimension mismatch"):
            heat_samples(zero(10), Operator(v), 2.0)

    def test_finite_rank_gives_zero_slope(self):
        v = np.zeros(4096)
        v[:5] = [1.0, 0.8, 0.5, 0.25, 0.1]
        samples = heat_samples(None, Operator(v), 2.0)
        est = heat_fit(default_heat_grid(v.size), samples)
        assert abs(est.z) <= 0.02
        # h(n) saturates at Tr(V)
        assert samples[-1].real == pytest.approx(v.sum(), rel=1e-3)

    def test_linearity_in_A_exact(self):
        N = 2000
        rng = np.random.default_rng(0)
        V = harmonic_op(N)
        A = Operator(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        B = Operator(rng.standard_normal(N) + 1j * rng.standard_normal(N))
        grid = np.array([32, 128])
        hA = heat_functional(A, V, 2.0, grid=grid)
        hB = heat_functional(B, V, 2.0, grid=grid)
        hAB = heat_functional(
            Operator(2.0 * A.diag() + 3.0 * B.diag()), V, 2.0, grid=grid)
        np.testing.assert_allclose(hAB, 2.0 * hA + 3.0 * hB, rtol=1e-12)

    def test_monotone_in_V(self):
        N = 3000
        V1 = harmonic_op(N)
        V2 = Operator(1.5 / (np.arange(N) + 1.0))
        grid = np.array([16, 64, 256])
        h1 = heat_functional(None, V1, 2.0, grid=grid).real
        h2 = heat_functional(None, V2, 2.0, grid=grid).real
        assert np.all(h2 >= h1)

    def test_rejects_alpha_below_one(self):
        with pytest.raises(ContractViolation):
            heat_samples(None, harmonic_op(100), 1.0)

    @pytest.mark.parametrize("call", [
        lambda V: heat_samples(None, V, 2.0),
        lambda V: heat_xi(V, SCHEME),
        lambda V: lemma_estimate_scalings(V, 2.0),
        lambda V: cesaro_cutoff_comparison(None, V, 2.0, SCHEME),
    ], ids=["heat_functional", "heat_xi", "lemma_estimate_scalings",
            "cesaro_cutoff_comparison"])
    def test_non_diagonal_V_is_rejected(self, call):
        # a sparse psd V of 2x2 blocks v [[1, 1/2], [1/2, 1]] with harmonic
        # v: the heat engine takes only a psd diagonal V
        v = 1.0 / (np.arange(1000) + 1.0)
        V = matrix_operator(sp.kron(sp.diags(v), [[1.0, 0.5], [0.5, 1.0]]))
        assert V.kind == "sparse" and V.hermitian
        with pytest.raises(ContractViolation, match="psd diagonal V"):
            call(V)


TINY = np.finfo(float).tiny  # 2**-1022, the smallest normal double


def unmasked_heat(x, e):
    """exp(-x**e) over every entry, as the heat loops computed it before the
    underflow cut, with pow on a contiguous copy of ``x``."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.exp(-np.array(x) ** e)


def engine_formula(v, s, e):
    """exp(-(s**e) * v**e) over every entry: the formula the engine evaluates
    on its live slice, with v**e taken once per call (on a contiguous copy
    of ``v``) and s**e per scale."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.exp(-(s ** e) * np.array(v) ** e)


def flushed(w):
    """The engine's weights by contract: ``w`` where it is at least 2**-1022
    (a NaN too), 0.0 where it is below."""
    return np.where(w < TINY, 0.0, w)


def live_weights(vs, scales, e):
    """(live slice, weights on it) per scale of ``scales``, put together
    from the steps of ``_heat_weights``, which must cover each live slice
    in order."""
    lives = [traces._live_slice(vs, float(s), e) for s in scales]
    full = [np.full(live.stop - live.start, np.nan) for live in lives]
    ends = [live.start for live in lives]
    for lo, hi, steps in _heat_weights(vs, scales, e):
        for j, start, w in steps:
            assert start == ends[j] and lo <= start < start + w.size <= hi
            full[j][start - lives[j].start:][:w.size] = w
            ends[j] = start + w.size
    assert ends == [vs.size] * len(lives)
    return list(zip(lives, full))


def block_dot(a, w):
    """sum_k a[..., k] w_k as the heat engine takes it over a live slice,
    from full-length inputs: products summed in blocks of ``_DOT_BLOCK`` by
    one einsum, the block sums added pairwise, and the tail past the last
    whole block by one BLAS product; the weights alone (a = None) are summed
    block by block by np.sum."""
    B = traces._DOT_BLOCK
    m = w.size - w.size % B
    ws = w[:m].reshape(-1, B)
    if a is None:
        return np.sum(np.sum(ws, axis=-1)) + np.sum(w[m:])
    head = a[..., :m].reshape(*a.shape[:-1], -1, B)
    blocks = np.einsum("...ij,ij->...i", head, ws)
    return np.sum(blocks, axis=-1) + a[..., m:] @ w[m:]


def fsum_reference(c, w):
    """Correctly rounded sum_k c_k w_k and the scale sum_k |c_k w_k|."""
    terms = np.asarray(c * w, dtype=complex)
    total = complex(math.fsum(terms.real), math.fsum(terms.imag))
    return total, math.fsum(np.abs(terms))


def _bits(x):
    """Every float of ``x`` (an array, a number or a dict or list of them)
    by its bytes, so two results compare bit for bit."""
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    if isinstance(x, (np.ndarray, float, complex, np.floating)):
        return np.asarray(x).tobytes()
    return x


class TestHeatKernel:
    """The sorted-spectrum heat engine: ``_heat_weights`` evaluates only the
    live slice, window by window, every weight of at least 2**-1022 equals
    the engine's formula on the unmasked spectrum bit for bit and
    ``exp(-(s v)**e)`` to its rounding, and every smaller one is 0.0; sums
    run over the slice, so they are checked against ``math.fsum``."""

    # -2 and -3 are the exponents -(p+1) of the cycle heat trace
    EXPONENTS = [-1, -1.5, -2, -3]

    @staticmethod
    def unsorted_with_zeros():
        rng = np.random.default_rng(11)
        v = np.concatenate([1.0 / (np.arange(3000) + 1.0), np.zeros(9)])
        return rng.permutation(v)

    @staticmethod
    def engine_weights(vs, s, e):
        """Full-length weights on ascending ``vs``: the engine's live weights,
        0.0 everywhere else."""
        (live, w), = live_weights(vs, [s], e)
        full = np.zeros(vs.size)
        full[live] = w
        return full

    @staticmethod
    def regime_scales(e):
        # scales at which every positive entry is cut, some are, none is
        cut = 1000.0 ** (1.0 / e)  # x**e = 1000 at x = cut
        return 0.5 * cut, 40.0 * cut, 6000.0 * cut

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_equals_unmasked_formula_on_every_regime(self, e, monkeypatch):
        v = self.unsorted_with_zeros()
        vs, = _sorted_spectrum(v)
        assert np.array_equal(vs, np.sort(v))
        pos = vs > 0
        live_share, flushed_any = [], False
        for s in self.regime_scales(e):
            want = engine_formula(vs, s, e)
            got = self.engine_weights(vs, s, e)
            assert np.array_equal(got, flushed(want))
            flushed_any |= bool(np.any((got == 0.0) & (want > 0.0)))
            live_share.append(np.mean(((s * vs[pos]) ** e) < 1000.0))
            # with no flush limit below the cut, the formula itself
            with monkeypatch.context() as m:
                m.setattr(traces, "_HEAT_FLUSH", traces._HEAT_ZERO)
                assert np.array_equal(self.engine_weights(vs, s, e), want)
        assert live_share[0] == 0.0 and 0.0 < live_share[1] < 1.0
        assert live_share[2] == 1.0 and flushed_any

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_weights_match_scaled_formula_to_rounding(self, e):
        # the engine takes t = s**e * v**e where the full formula takes
        # (s v)**e.  With pow and exp within 1 ulp (eps) and each product
        # rounded within eps/2, the first is t (1 + 2.5 eps), the second
        # t (1 + (1 + |e|/2) eps), so the two t differ by (3.5 + |e|/2) eps t
        # and their exps, each rounded within eps, by
        # (t (3.5 + |e|/2) + 2) eps w <= 7 eps max(1, t) w for |e| <= 3; a
        # weight below 2**-1022 may be written as 0.0
        eps = np.finfo(float).eps
        v = self.unsorted_with_zeros()
        vs, = _sorted_spectrum(v)
        scales = self.regime_scales(e)
        for s in np.geomspace(min(scales), max(scales), 25):
            s = float(s)
            want = unmasked_heat(s * vs, e)
            with np.errstate(divide="ignore", over="ignore"):
                t = np.where(want > 0.0, (s * vs) ** e, 1.0)
            bound = 7.0 * eps * np.maximum(1.0, t) * want + TINY
            got = self.engine_weights(vs, s, e)
            assert np.all(np.abs(got - want) <= bound)
            assert np.all(got[want >= 2.0 * TINY] > 0.0)

    def test_heat_functions_take_no_power_of_zero(self, circle64):
        # ker V is dead for every e < 0, so no 0**e reaches a pow
        v = self.unsorted_with_zeros()
        V = Operator(v)
        A = Operator(np.cos(np.arange(v.size)) + 0.5j)
        with np.errstate(divide="raise", invalid="raise"):
            heat_functional(A, V, 2.0, grid=np.array([8, 64, 512, 4096]))
            heat_xi(V, SCHEME)
            lemma_estimate_scalings(V, 2.0)
            cesaro_cutoff_comparison(A, V, 2.0, SCHEME)
            cesaro_cutoff_comparison(None, V, 1.5, SCHEME)
            heat_cycle_trace(circle_winding_cycle(circle64), circle64)

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_subnormal_band_is_flushed(self, e):
        # x**e in (708.4, 745]: exp(-x**e) is subnormal, so its weight is
        # 0.0, as it is around the cut, x**e in [999.99, 1000.01]; below
        # 708.39 every weight is normal and evaluated
        t = np.concatenate([np.linspace(690.0, 708.39, 64),
                            np.linspace(708.5, 745.0, 64),
                            np.linspace(999.99, 1000.01, 64)])
        vs, = _sorted_spectrum(np.concatenate([t ** (1.0 / e), [0.0]]))
        want = unmasked_heat(vs, e)
        assert np.sum((want > 0.0) & (want < TINY)) == 64
        assert np.sum(want >= TINY) == 64
        got = self.engine_weights(vs, 1.0, e)
        assert np.array_equal(got, flushed(want))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_flush_edge_keeps_every_normal_weight(self, e):
        # x**e within 2e-5 of the flush limit on both sides: a weight of at
        # least 2**-1022 is its formula, one below that is 0.0 unless x**e
        # lies in the relative margin past the limit, where it stays the
        # (subnormal) formula
        limit = traces._HEAT_FLUSH
        t = limit + np.linspace(-2e-5, 2e-5, 401)
        vs, = _sorted_spectrum(t ** (1.0 / e))
        want = unmasked_heat(vs, e)
        got = self.engine_weights(vs, 1.0, e)
        normal = want >= TINY
        assert 0 < np.sum(normal) < t.size
        assert np.array_equal(got[normal], want[normal])
        past = vs ** e > limit * (1.0 + 4.0 * traces._EDGE_MARGIN)
        assert np.sum(past) > t.size // 3 and not np.any(got[past])
        assert np.all((got == 0.0) | (got == want))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_underflow_cut_band_is_zero(self, e, monkeypatch):
        # x**e in [745.9, 746.1], on both sides of the cut, and in
        # [745.0, 745.2], where exp(-x**e) turns from the last subnormal to
        # 0.0: every weight is 0.0.  The live slice still starts below
        # 745.0 (the cut lies above it), so with no flush limit below the
        # cut the engine gives the unmasked formula there
        band = np.linspace(745.9, 746.1, 65)
        t = np.concatenate([np.linspace(745.0, 745.2, 21), band])
        vs, = _sorted_spectrum(np.concatenate([t ** (1.0 / e), [0.0]]))
        (live, _), = live_weights(vs, [1.0], e)
        pos = vs > 0.0
        in_band = vs[pos] ** e >= 745.8
        assert np.sum(in_band) == band.size
        assert live.start <= np.flatnonzero(pos)[~in_band].min()
        assert not np.any(self.engine_weights(vs, 1.0, e))
        with monkeypatch.context() as m:
            m.setattr(traces, "_HEAT_FLUSH", traces._HEAT_ZERO)
            full = self.engine_weights(vs, 1.0, e)
        assert np.array_equal(full, unmasked_heat(vs, e))
        assert not np.any(full[pos][in_band])
        assert np.any(full[pos][~in_band] > 0.0)

    def test_flush_moves_no_heat_sum(self, circle64, monkeypatch):
        # the sums with every weight below 2**-1022 written as 0.0 and with
        # those weights evaluated (no flush limit below the cut) agree bit
        # for bit, on the harmonic spectrum and on the circle's |D0|^-1
        V = harmonic_op()
        cycle = circle_winding_cycle(circle64)
        zeros = []
        real_weights = traces._heat_weights

        def count(steps):
            for j, start, w in steps:
                zeros[-1] += int(np.count_nonzero(w == 0.0))
                yield j, start, w

        def counted(vs, scales, e):
            for lo, hi, steps in real_weights(vs, scales, e):
                yield lo, hi, count(steps)

        monkeypatch.setattr(traces, "_heat_weights", counted)
        runs = []
        for limit in (traces._HEAT_FLUSH, traces._HEAT_ZERO):
            zeros.append(0)
            with monkeypatch.context() as m:
                m.setattr(traces, "_HEAT_FLUSH", limit)
                pass_ = traces._heat_pass(V, 2.0)
                runs.append(_bits([
                    [pass_[k] for k in ("heat", "modulated", "counting",
                                        "saturating")],
                    lemma_estimate_scalings(V, 1.5),
                    heat_xi(V, SCHEME).z,
                    heat_cycle_trace(cycle, circle64)["values"],
                ]))
        assert runs[0] == runs[1]
        assert zeros[0] > zeros[1]

    @pytest.mark.parametrize("stride", [1, -1, 2, -2])
    def test_power_equals_contiguous_pow(self, stride):
        # _power of a view in any memory order is the contiguous pow of its
        # entries, as a contiguous array
        rng = np.random.default_rng(21)
        for n in (0, 1, 2, 127, 4096, 2 ** 16 + 7):
            base = rng.uniform(1e-6, 10.0, abs(stride) * n)
            base.setflags(write=False)  # a write into x would raise
            x = base[::stride]
            assert x.size == n
            for e in (-3, -2, -1.5, -1, 1.5, 2.0):
                got = traces._power(x, e)
                assert got.flags.c_contiguous and got.shape == (n,)
                assert got.tobytes() == (x.copy() ** e).tobytes()

    @pytest.mark.parametrize("v", [
        np.array([0.0, 0.0, 0.5, 0.5, 0.5, 1.0, 3.0]),
        1.0 / (np.arange(50) + 1.0),
        np.array([3.0, 1.0, 1.0, 0.5, 0.0, 0.0]),
        np.array([0.0, -0.0, 0.0, 1.0, 1.0]),
        np.array([1.0, 0.0, -0.0]),
        np.array([1.0, -0.0, 0.0]),
        np.array([2.0, np.nan, 1.0]),
        np.array([1.0, 2.0, np.nan]),
        np.array([3.0, 2.0, np.nan]),
        np.array([np.nan]),
        np.array([]),
    ], ids=["ascending-ties", "descending", "descending-ties",
            "ascending-signed-zeros", "descending-signed-zeros",
            "descending-signed-zeros-tied", "nan-inside", "nan-last",
            "descending-nan-last", "nan-alone", "empty"])
    def test_sorted_spectrum_equals_stable_argsort(self, v):
        c = np.arange(v.size) - 1j * np.arange(v.size) ** 2
        order = np.argsort(v, kind="stable")
        got = _sorted_spectrum(v, c, None)
        assert got[2] is None
        for x, want in zip(got, (v[order], c[order])):
            assert x.tobytes() == want.tobytes()

    def test_sorted_spectrum_returns_ascending_input_itself(self):
        v = np.linspace(0.0, 1.0, 100)
        c = v + 1j
        vs, cs = _sorted_spectrum(v, c)
        assert vs is v and cs is c
        # a strictly decreasing v: reversed views; any other order: copies
        vs, cs = _sorted_spectrum(v[::-1], c[::-1])
        assert np.shares_memory(vs, v) and np.shares_memory(cs, c)
        assert vs.tobytes() == v.tobytes() and cs.tobytes() == c.tobytes()
        swapped = np.r_[v[1::-1], v[2:]]
        vs, cs = _sorted_spectrum(swapped, c)
        assert not np.shares_memory(vs, swapped) and not np.shares_memory(cs, c)

    def test_decreasing_spectrum_is_clipped_into_ascending_order(self):
        # _psd_diagonal keeps V's order; _sorted_spectrum turns a strictly
        # decreasing V and A's diagonal into reversed views, no copy
        d = 1.0 / (np.arange(500) + 1.0)
        A = Operator(np.cos(np.arange(d.size)) + 1j)
        v, a = traces._psd_diagonal(A, Operator(d), "test")
        assert v is d and a is A.diag()
        vs, cs, none = _sorted_spectrum(v, a, None)
        assert np.shares_memory(vs, d) and np.shares_memory(cs, a)
        assert vs.tobytes() == d[::-1].tobytes()
        assert cs.tobytes() == a[::-1].tobytes() and none is None
        # a clipped last entry: the clipped copy, then its reversed view
        clipped = np.concatenate([d, [-1e-14]])
        v, _ = traces._psd_diagonal(None, Operator(clipped), "test")
        assert v.tobytes() == np.maximum(clipped, 0.0).tobytes()
        vs, = _sorted_spectrum(v)
        assert np.shares_memory(vs, v)
        assert vs.tobytes() == np.sort(np.maximum(clipped, 0.0)).tobytes()
        # two entries clipped to a tie at 0 keep the stable sort's order
        tied = np.concatenate([d, [-1e-14, -2e-14]])
        v, _ = traces._psd_diagonal(None, Operator(tied), "test")
        assert v.tobytes() == np.maximum(tied, 0.0).tobytes()
        c = np.arange(v.size) + 0.5j
        vs, cs = _sorted_spectrum(v, c)
        order = np.argsort(v, kind="stable")
        assert vs.tobytes() == v[order].tobytes()
        assert cs.tobytes() == c[order].tobytes()
        assert cs[0] == v.size - 2 + 0.5j and cs[1] == v.size - 1 + 0.5j

    def test_psd_diagonal_clips_only_what_has_a_sign_bit(self):
        # a psd V with nothing to clip is read in place; a negative within
        # tolerance or a -0.0 takes the copy np.maximum(d, 0.0)
        d = np.cos(np.arange(300.0)) ** 2
        V = Operator(d)
        v, _ = traces._psd_diagonal(None, V, "test")
        assert v is d
        for bad in (-1e-14, -0.0):
            e = d.copy()
            e[7] = bad
            v, _ = traces._psd_diagonal(None, Operator(e), "test")
            assert not np.shares_memory(v, e)
            assert v.tobytes() == np.maximum(e, 0.0).tobytes()
        # the heat functions read V in place and leave it as it was
        before = d.copy()
        heat_samples(Operator(np.sin(np.arange(300.0))), V, 2.0)
        heat_xi(V, SCHEME)
        lemma_estimate_scalings(V, 1.5)
        cesaro_cutoff_comparison(None, V, 2.0, SCHEME)
        assert d.tobytes() == before.tobytes()

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_weight_steps_share_one_buffer(self, e):
        rng = np.random.default_rng(15)
        v = self.unsorted_with_zeros()
        c = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        vs, cs = _sorted_spectrum(v, c)
        scales = np.geomspace(*sorted(self.regime_scales(e)[1:]), 6)
        shared = [w for _, _, steps in _heat_weights(vs, scales, e)
                  for _, _, w in steps if w.size]
        assert len(shared) >= 2
        assert all(np.shares_memory(shared[0], w) for w in shared[1:])
        steps = live_weights(vs, scales, e)
        rows = np.stack([cs.real, cs.imag])
        want = {
            "complex": [complex(*block_dot(rows[:, live], w))
                        for live, w in steps],
            "real": [block_dot(np.ascontiguousarray(cs.real)[live], w)
                     for live, w in steps],
            "ones": [block_dot(None, w) for _, w in steps],
        }
        for name, coeff in (("complex", cs), ("real", cs.real), ("ones", None)):
            got = _heat_sums(vs, coeff, scales, e)
            assert got.tobytes() == np.array(want[name]).tobytes()

    @staticmethod
    def single_row_sums(vs, c, scales, e):
        """The sums of one coefficient vector alone, scale by scale, from
        its full-length row and weights: block_dot of the weights for
        c = None, of its row (real) or of its real and imaginary rows
        (complex), zeros for a zero c and no NaN in vs.  A strided real row
        is copied first, as the engine copies it."""
        if c is not None and not c.any() and not np.isnan(vs).any():
            return np.zeros(len(scales), dtype=c.dtype)
        rows = (np.stack([c.real, c.imag]) if np.iscomplexobj(c)
                else np.ascontiguousarray(c))
        sums = []
        for live, w in live_weights(vs, scales, e):
            if c is None:
                sums.append(block_dot(None, w))
            elif np.iscomplexobj(c):
                sums.append(complex(*block_dot(rows[:, live], w)))
            else:
                sums.append(block_dot(rows[live], w))
        return np.array(sums, dtype=complex if np.iscomplexobj(c) else float)

    @pytest.mark.parametrize("e", EXPONENTS)
    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan-in-v"])
    def test_rows_equal_single_row_sums_bit_for_bit(self, e, nan):
        # real, complex, mixed and all-zero rows in any order and company:
        # each c gets the sums it gets alone
        rng = np.random.default_rng(17)
        for n in (1, 127, 128, 129, 1000, 3009, *rng.integers(2, 6000, 6)):
            v = rng.permutation(np.concatenate(
                [1.0 / (np.arange(n) + 1.0), np.zeros(n % 7)]))
            if nan:
                v[rng.integers(v.size)] = np.nan
            real = rng.standard_normal(v.size)
            cplx = real + 1j * rng.standard_normal(v.size)
            vs, *cs = _sorted_spectrum(v, real, cplx, real + 0j,
                                       np.zeros(v.size), np.zeros(v.size, complex))
            scales = np.geomspace(min(self.regime_scales(e)),
                                 max(self.regime_scales(e)), 7)
            blocks = ([None] + cs, cs[::-1], cs[:1], cs[1:2], cs[3:],
                      [cs[0], cs[2], None, cs[1]])
            for block in blocks:
                got = traces._heat_rows(vs, block, scales, e)
                assert len(got) == len(block)
                for c, sums in zip(block, got):
                    want = self.single_row_sums(vs, c, scales, e)
                    assert sums.dtype == want.dtype
                    assert sums.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", [-1, -1.5, -2])
    def test_saturating_sums_do_not_depend_on_the_rows(self, e):
        rng = np.random.default_rng(18)
        vs, c = _sorted_spectrum(self.unsorted_with_zeros(),
                                 rng.standard_normal(3009) + 1j)
        scales = np.geomspace(min(self.regime_scales(e)),
                                 max(self.regime_scales(e)), 7)
        alone = traces._heat_rows(vs, [], scales, e, saturating=True)
        assert len(alone) == 1
        got = traces._heat_rows(vs, [None, c, vs], scales, e,
                                saturating=True)
        assert got[-1].tobytes() == alone[0].tobytes()
        # the head below each live slice, where 1 - w is 1, added segment by
        # segment, and the live slice, from full-length arrays
        va = vs ** -e
        steps = live_weights(vs, scales, e)
        heads, total, prev = {}, 0.0, 0
        for lo in sorted({live.start for live, _ in steps}):
            total += float(np.sum(va[prev:lo]))
            heads[lo], prev = total, lo
        for j, (live, w) in enumerate(steps):
            want = heads[live.start] + float(block_dot(va[live], 1.0 - w))
            assert got[-1][j] == want

    @pytest.mark.parametrize("window", [1, 300, 4096])
    def test_sums_do_not_depend_on_the_window(self, window, monkeypatch):
        # live slices that span several windows and start mid-block, and a
        # window shorter than a block: every sum, the saturating one too,
        # is the one of one window, and that of full-length rows and weights
        rng = np.random.default_rng(19)
        v = rng.permutation(np.concatenate([1.0 / (np.arange(20_000) + 1.0),
                                            np.zeros(3)]))
        c = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        vs, cs = _sorted_spectrum(v, c)
        e, scales = -2.0, np.geomspace(50.0, 5e4, 9)
        coeffs = [None, cs, cs.real, (cs.real, vs)]
        assert vs.size < traces._HEAT_WINDOW
        want = traces._heat_rows(vs, coeffs, scales, e, saturating=True)
        sizes = [vs.size - traces._live_slice(vs, s, e).start for s in scales]
        assert sum(size % traces._DOT_BLOCK != 0 for size in sizes) >= 7
        assert max(sizes) > 4 * window and min(sizes) < vs.size
        monkeypatch.setattr(traces, "_HEAT_WINDOW", window)
        got = traces._heat_rows(vs, coeffs, scales, e, saturating=True)
        for x, y in zip(got, want):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
        for c, sums in zip(coeffs[:3], got):
            assert sums.tobytes() == self.single_row_sums(
                vs, c, scales, e).tobytes()
        assert got[3].tobytes() == self.single_row_sums(
            vs, cs.real * vs, scales, e).tobytes()

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_nan_stays_nan(self, e):
        v = np.array([0.5, np.nan, 0.0, 1e6, 2.0])
        c = np.array([1.0, 2.0, 3.0, 4.0, 5.0 + 1.0j])
        vs, cs = _sorted_spectrum(v, c)
        assert np.isnan(vs[-1]) and cs[-1] == 2.0
        for s in self.regime_scales(e):
            full = self.engine_weights(vs, s, e)
            assert np.isnan(full[-1])
            assert np.array_equal(full[:-1], engine_formula(vs[:-1], s, e))
            assert np.all(np.isnan(_heat_sums(vs, cs, [s, 2.0 * s], e)))
            assert np.all(np.isnan(_heat_sums(vs, None, [s], e)))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_zero_coefficient_skips_weights_bit_for_bit(self, e, monkeypatch):
        vs, = _sorted_spectrum(self.unsorted_with_zeros())
        scales = self.regime_scales(e)
        zeros = np.zeros(vs.size)
        zeros[::7] = -0.0
        signed = zeros + 0j
        signed.imag[::5] = -0.0
        for c in (zeros, zeros + 0j, signed):
            # the weighted path, as _heat_sums takes it for a nonzero c
            rows = np.stack([c.real, c.imag]) if np.iscomplexobj(c) else c
            want = [block_dot(rows[..., live], w)
                    for live, w in live_weights(vs, scales, e)]
            want = np.array([complex(*x) if np.iscomplexobj(c) else x
                             for x in want])
            with monkeypatch.context() as m:
                m.setattr(traces, "_heat_weights", None)
                got = _heat_sums(vs, c, scales, e)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_zero_coefficient_stays_nan_with_nan_in_v(self, e):
        vs, = _sorted_spectrum(np.array([0.5, np.nan, 0.0, 1e6, 2.0]))
        for c in (np.zeros(5), np.zeros(5, dtype=complex)):
            for s in self.regime_scales(e):
                assert np.all(np.isnan(_heat_sums(vs, c, [s, 2.0 * s], e)))

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_sums_match_fsum_reference(self, e):
        v = self.unsorted_with_zeros()
        rng = np.random.default_rng(13)
        c = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        scales = self.regime_scales(e)
        vs, cs = _sorted_spectrum(v, c)
        for coeff, sorted_coeff in ((c, cs), (np.ones(v.size), None)):
            got = _heat_sums(vs, sorted_coeff, scales, e)
            for s, value in zip(scales, got):
                want, scale = fsum_reference(coeff, unmasked_heat(s * v, e))
                assert abs(value - want) <= 1e-14 * scale

    @pytest.mark.parametrize("imag", [0.0, 0.3])
    def test_long_decaying_sum_matches_fsum_reference(self, imag):
        # 2**18 terms of exp(-(s d)**2) on d = 1, 2, ..., as the cycle heat
        # trace takes them: the e = -2 weights of v = 1/d at n = 1/s, which
        # decay towards the bottom of ascending v; a sequential dot over
        # them drifts past the bound
        k = np.arange(2 ** 18)
        d = k + 1.0
        c = 0.4 + 0.1 * np.cos(k) + 1j * imag * np.sin(k)
        scales = np.array([1.0, 4.0, 20.0]) / d.size
        vs, *cs = _sorted_spectrum(1.0 / d, c, c.real)
        for coeff, sorted_coeff in zip((c, c.real), cs):
            got = _heat_sums(vs, sorted_coeff, 1.0 / scales, -2)
            for s, value in zip(scales, got):
                want, scale = fsum_reference(coeff, unmasked_heat(s * d, 2))
                assert abs(value - want) <= 1e-14 * scale

    @pytest.mark.parametrize("e", EXPONENTS)
    def test_permuted_spectrum_gives_same_sums(self, e):
        v = self.unsorted_with_zeros()
        rng = np.random.default_rng(14)
        c = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        scales = self.regime_scales(e)
        perm = rng.permutation(v.size)
        got = _heat_sums(*_sorted_spectrum(v, c), scales, e)
        again = _heat_sums(*_sorted_spectrum(v[perm], c[perm]), scales, e)
        for s, x, y in zip(scales, got, again):
            _, scale = fsum_reference(c, unmasked_heat(s * v, e))
            assert abs(x - y) <= 1e-14 * scale

    def test_heat_functional_matches_fsum_of_unmasked_formula(self):
        v = self.unsorted_with_zeros()
        rng = np.random.default_rng(12)
        a = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        grid = np.array([8, 64, 512, 4096])
        got = heat_functional(Operator(a), Operator(v), 2.0, grid=grid)
        for n, value in zip(grid, got):
            want, scale = fsum_reference(a * v, unmasked_heat(float(n) * v, -2.0))
            assert abs(value - want) <= 1e-14 * scale

    @pytest.mark.parametrize("alpha", [1.5, 2.0])
    def test_scalings_saturating_term_matches_fsum(self, alpha, monkeypatch):
        # the saturating term sums v^a (1 - w): a dead head (w = 0) plus the
        # live slice; record the series lemma_estimate_scalings fits
        seen = []
        real_slope = traces._loglog_slope
        monkeypatch.setattr(traces, "_loglog_slope",
                            lambda x, y: seen.append(np.array(y))
                            or real_slope(x, y))
        v = self.unsorted_with_zeros()
        grid = traces.default_heat_grid(v.size)
        lemma_estimate_scalings(Operator(v), alpha)
        saturating, counting = seen[0], seen[1]
        w = unmasked_heat(float(grid[0]) * v, -alpha)
        assert np.any((w == 0.0) & (v > 0.0)) and np.any(w > 0.0)
        for j, n in enumerate(grid):
            w = unmasked_heat(float(n) * v, -alpha)
            want, scale = fsum_reference(v ** alpha, 1.0 - w)
            assert abs(saturating[j] - want.real) <= 1e-14 * scale
            want, scale = fsum_reference(np.ones(v.size), w)
            assert abs(counting[j] - want.real) <= 1e-14 * scale


class TestHeatFit:
    def test_exact_model(self):
        ns = np.array([8, 16, 32, 64, 128, 256])
        est = heat_fit(ns, 3.0 * np.log(ns) - 7.0)
        assert est.z == pytest.approx(3.0, abs=1e-12)
        assert est.residual_sup <= 1e-12

    def test_bounded_perturbation_reported(self):
        ns = np.unique(np.geomspace(8, 4096, 40).astype(int)).astype(float)
        values = np.log(ns) + 0.2 * np.sin(np.log(ns))
        est = heat_fit(ns, values)
        assert abs(est.z - 1.0) <= 0.2
        assert est.residual_sup <= 0.3


class TestHeatXi:
    def test_harmonic(self):
        est = heat_xi(harmonic_op(), SCHEME)
        assert est.method == "heat_xi"
        assert abs(est.z - 1.0) <= 0.05

    def test_trace_class(self):
        assert abs(heat_xi(trace_class_op(), SCHEME).z) <= 0.02

    def test_homogeneity_leading_order(self):
        assert abs(heat_xi(harmonic_op(scale=2.0), SCHEME).z - 2.0) <= 0.1

    def test_agrees_with_dixmier_on_powers(self):
        for V in (harmonic_op(), trace_class_op()):
            a = heat_xi(V, SCHEME).z
            b = dixmier_logmean(partial_sums(V), SCHEME).z
            assert abs(a - b) <= 0.05


class TestScalingLemma:
    def test_alpha_two(self):
        rep = lemma_estimate_scalings(harmonic_op(), 2.0)
        assert rep["slope_saturating"] == pytest.approx(-1.0, abs=0.05)
        assert rep["slope_counting"] == pytest.approx(1.0, abs=0.05)
        assert all(gate.holds for gate in rep["gates"])
        assert rep["xi_over_nlogn_slope"] < 0

    def test_alpha_three_halves(self):
        rep = lemma_estimate_scalings(harmonic_op(), 1.5)
        assert rep["slope_saturating"] == pytest.approx(-0.5, abs=0.06)
        assert rep["slope_counting"] == pytest.approx(1.0, abs=0.05)
        assert all(gate.holds for gate in rep["gates"])

    def test_finite_rank_steeper_still_passes(self):
        v = np.zeros(10_000)
        v[:3] = [1.0, 0.5, 0.2]
        rep = lemma_estimate_scalings(Operator(v), 2.0)
        assert rep["slope_saturating"] <= -1.0 + 0.05
        assert all(gate.holds for gate in rep["gates"])

    def test_million_dimension_diagonal_path(self):
        # the diagonal fast path has to carry trace-scaling runs at N = 1e6
        rep = lemma_estimate_scalings(harmonic_op(1_000_000), 2.0)
        assert rep["slope_saturating"] == pytest.approx(-1.0, abs=0.05)
        assert rep["slope_counting"] == pytest.approx(1.0, abs=0.05)


class TestModulated:
    def test_identity_coefficient(self):
        # oracle: cutoff sums differ from partial sums by at most one
        # harmonic tail term
        rep = modulated_comparison(Operator(np.ones(4096)), harmonic_op(4096))
        assert rep["gates"][0].value <= 1.0 + 1e-9
        assert all(gate.holds for gate in rep["gates"])

    def test_zero_coefficient(self):
        rep = modulated_comparison(Operator(np.zeros(512, complex)),
                                   harmonic_op(512))
        assert rep["gates"][0].value <= 1e-12

    def test_random_phase_diagonal(self):
        rng = np.random.default_rng(42)
        N = 4096
        A = Operator(np.exp(2j * np.pi * rng.random(N)))
        rep = modulated_comparison(A, harmonic_op(N))
        assert all(gate.holds for gate in rep["gates"])

    def test_tied_spectrum_matches_fsum_of_cutoff_traces(self):
        # V with runs of tied entries, in no order, and a kernel: each gap
        # is |S(n) - Tr(A V E_V[1/n, inf))| with the cutoff trace summed
        # exactly over the entries v >= 1/n
        rng = np.random.default_rng(23)
        k = np.arange(3000)
        v = rng.permutation(np.concatenate([1.0 / (k // 4 + 1.0), np.zeros(7)]))
        a = np.exp(2j * np.pi * rng.random(v.size))
        A, V = Operator(a), Operator(v)
        rep = modulated_comparison(A, V)
        sums = eigenvalue_partial_sums(A @ V).sums
        for n, gap in zip(rep["ns"], rep["gaps"]):
            want, _ = fsum_reference(a, np.where(v >= 1.0 / n, v, 0.0))
            assert abs(gap - abs(sums[n] - want)) <= 1e-12
        assert all(gate.holds for gate in rep["gates"])

    def test_non_diagonal_A_is_rejected(self):
        N = 512
        A = matrix_operator(sp.eye(N, k=1), label="shift")
        with pytest.raises(ContractViolation, match="diagonal A"):
            modulated_comparison(A, harmonic_op(N))


class TestInputsLeftUnchanged:
    def test_wrapped_diagonals_are_not_written(self):
        # complex 1-d data is wrapped without a copy, so a function that
        # wrote into an operator's diag() would change its caller's array
        rng = np.random.default_rng(31)
        n = 4096
        a = np.exp(2j * np.pi * rng.random(n))
        v = (1.0 / (np.arange(n) + 1.0))[rng.permutation(n)].astype(complex)
        A, V = Operator(a, label="A"), Operator(v, label="V")
        assert A.diag() is a and V.diag() is v
        before = a.copy(), v.copy()
        heat_samples(A, V, 2.0)
        heat_samples(None, V, 1.5)
        cesaro_cutoff_comparison(A, V, 2.0, SCHEME)
        cesaro_cutoff_comparison(None, V, 2.0, SCHEME)
        modulated_comparison(A, V)
        eigenvalue_partial_sums(A)
        eigenvalue_partial_sums(V)
        for op, was in zip((A, V), before):
            assert op.diag().tobytes() == was.tobytes()

    def test_nothing_writes_the_reversed_view_of_V(self):
        # a strictly decreasing V with nothing to clip comes out of
        # _sorted_spectrum as a reversed view of its own entries, and A's
        # diagonal with it; both are read-only here, so a write would raise
        n = 4096
        d = 1.0 / (np.arange(n) + 1.0)
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)
        d.setflags(write=False)
        signs.setflags(write=False)
        A, V = Operator(signs, label="A"), Operator(d, label="V")
        v, a = _sorted_spectrum(*traces._psd_diagonal(A, V, "test"))
        assert np.shares_memory(v, d) and v.tobytes() == d[::-1].tobytes()
        assert np.shares_memory(a, signs)
        heat_samples(A, V, 2.0)
        heat_samples(None, V, 1.5)
        heat_xi(V, SCHEME)
        lemma_estimate_scalings(V, 1.5)
        cesaro_cutoff_comparison(A, V, 2.0, SCHEME)
        modulated_comparison(A, V)
        criterion(A, V)
        traces._heat_pass(V, 2.0)
        dixmier_logmean(partial_sums(V), SCHEME)


class TestStorageOrder:
    """A spectrum stored descending (the harmonic V), the same spectrum
    stored ascending and stored ascending as complex128 give every heat and
    cutoff sum bit for bit: the first comes out of ``_sorted_spectrum`` as
    a reversed view, the second as itself, the third as the stride-16 view
    of its real parts, and neither pow nor a sum may depend on that."""

    @pytest.mark.parametrize("n", [10_000, 100_000])
    def test_descending_and_ascending_storage_agree(self, n):
        d = 1.0 / (np.arange(n) + 1.0)
        a = np.cos(np.arange(n)) + 0.5j * np.sin(3.0 * np.arange(n))
        results = []
        storages = ((d, a), (d[::-1].copy(), a[::-1].copy()),
                    (d[::-1] + 0j, a[::-1].copy()))
        for v, c in storages:
            V, A = Operator(v), Operator(c)
            heat = traces._heat_pass(V, 2.0)
            results.append(_bits([
                heat_samples(None, V, 1.5),
                heat_samples(None, V, 2.0),
                heat_samples(A, V, 2.0),
                heat_xi(V, SCHEME).z,
                lemma_estimate_scalings(V, 1.5),
                lemma_estimate_scalings(V, 2.0),
                cesaro_cutoff_comparison(None, V, 1.5, SCHEME),
                cesaro_cutoff_comparison(None, V, 2.0, SCHEME),
                [heat[k] for k in ("heat", "counting", "saturating", "cutoff")],
            ]))
        assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("order", ["descending", "permuted"])
def test_heat_pass_equals_each_single_function(order):
    """Each sum of the one alpha = 2 pass is the sum its function takes,
    bit for bit, on a V whose live slices span several windows of the heat
    engine: ``heat`` and ``modulated`` those of heat_functional with A = 1
    and A = diag((-1)^k), ``counting`` and ``saturating`` the slopes of
    lemma_estimate_scalings, ``cutoff`` the cutoff sums on the default
    scheme's window."""
    n = 3 * traces._HEAT_WINDOW + 77
    d = 1.0 / (np.arange(n) + 1.0)
    if order == "permuted":
        d = d[np.random.default_rng(23).permutation(n)]
    V, A = Operator(d), Operator(traces._alternating_signs(n))
    sums = traces._heat_pass(V, 2.0)
    grid = sums["grid"]
    assert list(grid) == list(traces.default_heat_grid(n))
    assert _bits(sums["heat"].astype(complex)) == _bits(
        heat_samples(None, V, 2.0))
    assert _bits(sums["modulated"].astype(complex)) == _bits(
        heat_samples(A, V, 2.0))
    assert _bits(traces._scalings_verdict(
        2.0, grid, sums["saturating"], sums["counting"])) == _bits(
            lemma_estimate_scalings(V, 2.0))
    scheme = ExtendedLimitScheme()
    window = scheme.window(grid)
    at = np.searchsorted(grid, window)
    assert _bits(traces._cutoff_verdict(
        window, sums["heat"][at], sums["cutoff"][at], scheme)) == _bits(
            cesaro_cutoff_comparison(None, V, 2.0, scheme))


def test_heat_pass_scratch_stays_below_one_vector():
    """The alpha = 2 heat pass on the harmonic V at N = 2^20 allocates,
    over what it is given, less than one vector of N float64 (8N bytes).

    Measured: 0.60 units, the block sums of every sample's live slice
    (0.22), the powers, weights and rows of a window, and the powers of
    the longest segment below the live slices; 5.0 units when the pass held
    its (2, N) coefficient rows, V^2, V^-2 and a weight buffer at full
    length.  Any full-length scratch array fails the bound."""
    import tracemalloc

    N = 2 ** 20
    V = Operator(1.0 / (np.arange(N) + 1.0))
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        traces._heat_pass(V, 2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base <= 8 * N, f"scratch {(peak - base) / (8 * N):.2f} x 8N"


class TestCutoffComparison:
    def test_harmonic_limits_agree(self):
        rep = cesaro_cutoff_comparison(None, harmonic_op(), 2.0, SCHEME)
        assert rep["z_heat"] == pytest.approx(1.0, abs=0.05)
        assert rep["z_cutoff"] == pytest.approx(1.0, abs=0.05)
        assert rep["gap"] <= 0.05

    def test_finite_rank_both_vanish(self):
        v = np.zeros(50_000)
        v[:4] = [1.0, 0.7, 0.3, 0.1]
        rep = cesaro_cutoff_comparison(None, Operator(v), 2.0, SCHEME)
        assert abs(rep["z_heat"]) <= 0.02
        assert abs(rep["z_cutoff"]) <= 0.02

    def test_coefficient_series_match_fsum_of_full_formulas(self):
        # complex A on a permuted spectrum with a kernel: both series are
        # summed over sorted slices and must match the storage-order formulas
        rng = np.random.default_rng(5)
        v = rng.permutation(np.concatenate([1.0 / (np.arange(4000) + 1.0),
                                            np.zeros(5)]))
        a = rng.standard_normal(v.size) + 1j * rng.standard_normal(v.size)
        scheme = ExtendedLimitScheme()
        rep = cesaro_cutoff_comparison(Operator(a), Operator(v), 2.0,
                                       scheme=scheme)
        window = scheme.window(scheme.grid(v.size // 8))
        heat, cut = [], []
        for n in window:
            log_n = math.log(n)
            heat.append(fsum_reference(a * v, unmasked_heat(n * v, -2.0))[0]
                        / log_n)
            cut.append(fsum_reference(a, np.maximum(v - 1.0 / n, 0.0))[0]
                       / log_n)
        assert abs(rep["z_heat"] - scheme.apply(window, heat)[0]) <= 1e-12
        assert abs(rep["z_cutoff"] - scheme.apply(window, cut)[0]) <= 1e-12
        assert rep["grid"]["n_max"] == window[-1]

    def test_alpha_independence(self):
        r2 = cesaro_cutoff_comparison(None, harmonic_op(), 2.0, SCHEME)
        r3 = cesaro_cutoff_comparison(None, harmonic_op(), 3.0, SCHEME)
        assert abs(r2["z_heat"] - r3["z_heat"]) <= 0.02


class TestMeasurabilityCriterion:
    def test_harmonic_identity_coefficient(self):
        rep = criterion(None, harmonic_op())
        assert rep["branch"] == "a"
        assert rep["z_heat"] == pytest.approx(1.0, abs=0.05)
        assert rep["z_spec"] == pytest.approx(1.0, abs=0.05)
        assert all(gate.holds for gate in rep["gates"])

    def test_alternating_signs_vanish(self):
        N = N_BIG
        A = Operator(((-1.0) ** np.arange(N)).astype(complex))
        rep = criterion(A, harmonic_op(N))
        assert abs(rep["z_heat"]) <= 0.02
        assert abs(rep["z_spec"]) <= 0.02
        assert all(gate.holds for gate in rep["gates"])

    def test_branch_error_when_not_in_either_ideal(self):
        V = Operator((np.arange(50_000) + 1.0) ** -0.25)
        with pytest.raises(BranchError):
            criterion(None, V)


class TestScheme:
    def test_invalid_parameters(self):
        with pytest.raises(ContractViolation):
            ExtendedLimitScheme(ratio=0.9)
        with pytest.raises(ContractViolation, match="at least 1.01"):
            ExtendedLimitScheme(ratio=1.000000001)
        with pytest.raises(ContractViolation):
            ExtendedLimitScheme(averaging="median")
        # the finest grid allowed: about 100 points per e-fold of n
        assert ExtendedLimitScheme(ratio=1.01).grid(10 ** 6).size == 1020

    def test_extrapolate_exact_on_model_sequences(self):
        ns = np.unique(np.geomspace(32, 65536, 30).astype(int)).astype(float)
        values = 2.5 + 4.0 / np.log(2.0 + ns)
        sch = ExtendedLimitScheme()
        z, resid = sch.apply(ns, values)
        assert z == pytest.approx(2.5, abs=1e-9)
        assert resid <= 1e-9

    def test_cesaro_log_mean_of_constant(self):
        ns = np.array([10.0, 100.0, 1000.0])
        sch = ExtendedLimitScheme()
        z, resid = sch.apply(ns, np.full(3, 7.0 + 0j), averaging="cesaro_log")
        assert z == pytest.approx(7.0)
        assert resid <= 1e-12
