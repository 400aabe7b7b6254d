"""Dixmier-trace estimators and heat-kernel functionals.

A dilation-invariant extended limit is not a computable object, so every
estimator here samples its sequence on a geometric grid and applies an
:class:`ExtendedLimitScheme`.  The scheme records how the finite surrogate
was formed (grid ratio, window, averaging rule) and the oscillation of the
samples over the window, so each number ships with its own error bar.

Averaging rules:

* ``mean``        -- arithmetic mean over the window,
* ``cesaro_log``  -- trapezoid average in log n (the Cesaro mean M on a
                     geometric grid),
* ``extrapolate`` -- least squares in the basis {1, 1/log(2+n)}, which is
                     exact on sequences of the form z + c/log(2+n).  This is
                     the default for the Dixmier log-mean: the raw ratio
                     sum/log(2+n) approaches its limit only like 1/log(n),
                     far too slowly for desk-scale truncations, while the
                     corrected average converges at the 1e-3 level by N=1e5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ideals import (
    _WEAK_L1_SLOPE,
    Gate,
    PartialSumSeries,
    _distinct,
    _least_squares,
    _loglog_slope,
    decay_exponent,
    eigenvalue_partial_sums,
    geometric_grid,
    log_fit,
)
from .operators import ContractViolation, OperatorError, singular_values

__all__ = [
    "ExtendedLimitScheme",
    "TraceEstimate",
    "BranchError",
    "dixmier_logmean",
    "heat_functional",
    "heat_fit",
    "heat_xi",
    "lemma_estimate_scalings",
    "modulated_comparison",
    "cesaro_cutoff_comparison",
    "measurability_criterion_check",
]


class BranchError(OperatorError):
    """V satisfies neither the L_{1,inf} nor the M_{1,inf} diagnostic."""


# smallest scheme grid ratio: at most about 100 grid points per e-fold of n
# (geometric_grid steps from n_min to n_max one ratio at a time)
_MIN_RATIO = 1.01


@dataclass(frozen=True)
class ExtendedLimitScheme:
    """Finite surrogate for a dilation-invariant extended limit.

    The grid is n_j = ceil(n_min * ratio^j) capped at n_max; the window is
    the upper ``window_fraction`` of the grid (in index, i.e. log position).
    """

    ratio: float = math.sqrt(2.0)
    n_min: int = 8
    averaging: str = "extrapolate"
    window_fraction: float = 2.0 / 3.0

    def __post_init__(self):
        if not (self.ratio >= _MIN_RATIO):
            raise ContractViolation(
                f"scheme ratio must be at least {_MIN_RATIO}, got {self.ratio!r}")
        if self.averaging not in ("mean", "cesaro_log", "extrapolate"):
            raise ContractViolation(f"unknown averaging {self.averaging!r}")
        if not (0.0 <= self.window_fraction <= 1.0):
            raise ContractViolation(
                f"scheme window_fraction must lie in [0, 1], got "
                f"{self.window_fraction!r}")

    def grid(self, n_max):
        return geometric_grid(self.n_min, n_max, self.ratio)

    def window(self, grid):
        start = int(math.floor(grid.size * self.window_fraction))
        keep = 4 if grid.size >= 4 else grid.size
        return grid[min(start, grid.size - keep):]

    def apply(self, ns, values, averaging=None):
        """Average ``values`` sampled at ``ns``; returns (z, residual_sup)."""
        mode = averaging or self.averaging
        ns = np.asarray(ns, dtype=float)
        values = np.asarray(values, dtype=complex)
        if ns.size == 0:
            raise ContractViolation("empty scheme window")
        if mode == "mean":
            z = values.mean()
            resid = float(np.max(np.abs(values - z))) if values.size else 0.0
            return complex(z), resid
        if mode == "cesaro_log":
            x = np.log(ns)
            if ns.size == 1:
                w = np.ones(1)
            else:
                w = np.zeros_like(x)
                w[1:-1] = (x[2:] - x[:-2]) / 2.0
                w[0] = (x[1] - x[0]) / 2.0
                w[-1] = (x[-1] - x[-2]) / 2.0
            z = np.sum(w * values) / np.sum(w)
            resid = float(np.max(np.abs(values - z)))
            return complex(z), resid
        x = 1.0 / np.log(2.0 + ns)
        coef, resid = _least_squares([np.ones(ns.size), x], values)
        if ns.size >= 4:
            # error bar: difference between first- and second-order
            # extrapolations captures the systematic 1/log^2 tail
            coef2, _ = _least_squares([np.ones(ns.size), x, x * x], values)
            resid = max(resid, float(abs(coef[0] - coef2[0])))
        return complex(coef[0]), resid

    def describe(self, n_max):
        return {
            "ratio": self.ratio,
            "n_min": self.n_min,
            "n_max": n_max,
            "averaging": self.averaging,
            "window_fraction": self.window_fraction,
        }


@dataclass
class TraceEstimate:
    """A singular-trace value plus the residual and grid that produced it."""

    z: complex
    residual_sup: float
    grid_used: dict


def dixmier_logmean(series, scheme, n_max=None):
    """Dixmier log-mean estimate from the partial sums ``series`` (a
    :class:`PartialSumSeries`): the scheme average of
    Lambda(n) = S(n) / log(2+n), sampled up to ``n_max`` (default: the last
    index); the series is read at the scheme's window alone.  The sums may
    be complex, which extends the estimator to the eigenvalue sums of
    non-normal operators; sampled sums are divided as complex numbers, real
    ones too, so real and complex series of equal values round alike.
    """
    N = series.N
    if n_max is None:
        n_max = N - 1
    grid = scheme.grid(min(n_max, N - 1))
    window = scheme.window(grid)
    snapped = _distinct(series.snap(window))
    if snapped.size >= 3:
        window = snapped
    lam = series.at(window).astype(complex) / np.log(2.0 + window)
    z, resid = scheme.apply(window, lam)
    return TraceEstimate(z=z, residual_sup=resid,
                         grid_used=scheme.describe(int(window[-1])))


def _psd_diagonal(A, V, who):
    """The entries v_k of a psd diagonal V (negatives within tolerance
    clipped to 0) and the diagonal of A (None for A = None, the identity).

    V's eigenbasis is the standard one, so the diagonal of A holds its
    matrix elements there.  Any other V is a :class:`ContractViolation`.
    The diagonal of A is ``A.diag()`` itself, and so are the entries of V
    when none has its sign bit set (none is clipped, and no -0.0 becomes
    +0.0): neither may be written.  Both keep V's order.
    """
    if V.kind != "diag" or not V.hermitian:
        raise ContractViolation(
            f"{who} requires a hermitian psd diagonal V, got {V.label!r}")
    d = V.diag().real
    floor = float(d.min(initial=0.0))
    # the norm, which takes the moduli of all of V, scales the tolerance of
    # a negative floor only
    if floor < 0.0 and floor < -1e-10 * (1.0 + V.norm_bound()):
        raise ContractViolation(f"{who}: V has negative eigenvalue {floor:.3e}")
    a = None
    if A is not None:
        V._check_dims(A)
        a = A.diag()
    return (np.maximum(d, 0.0) if np.signbit(d).any() else d), a


def _heat_cut(n):
    """The precision cut of a heat sum over ``n`` terms: a weight is live
    where (s v)**e < 53 ln 2 + ln n.  Each weight past the cut is below
    2**-53 / n, so the dropped terms of any sum sum_k c_k w_k add up to less
    than 2**-53 max|c_k| < eps max|c_k|, below the rounding of the sum."""
    return 53.0 * math.log(2.0) + math.log(max(n, 1))


def _power(x, e):
    """``x ** e`` as a contiguous array in the order of ``x``.

    numpy picks its pow loop by the strides: on a strided array, a reversed
    view above all, it runs a scalar loop several times slower than its
    vector kernel, which also rounds about one result in twenty differently
    in the last bit.  So a strided ``x`` (a one-entry reversed view too,
    which numpy flags contiguous) is copied into the result and powered
    there in place: the bits of ``x.copy() ** e``, with no allocation beyond
    the result.  A reversed view of a forward result would not do: np.sum,
    einsum and BLAS add up a reversed view in another order.
    """
    if x.strides == (x.itemsize,):
        return x ** e
    out = np.empty(x.shape)
    out[...] = x
    return np.power(out, e, out=out)


def _sorted_spectrum(v, *coeffs):
    """``v`` in ascending order (stable sort, NaN last) and each coefficient
    vector gathered into the same order; a None coefficient stays None.
    Every heat sum and cutoff sum takes its order from here.

    The stable argsort is the identity on a non-decreasing ``v``, so that
    returns the inputs themselves, and the reversal on a strictly decreasing
    ``v`` (a harmonic V), so that returns reversed views: neither copies.
    """
    if np.all(v[:-1] <= v[1:]):
        return (v,) + coeffs
    if np.all(v[:-1] > v[1:]):
        return tuple(None if c is None else c[::-1] for c in (v,) + coeffs)
    order = np.argsort(v, kind="stable")
    return (v[order],) + tuple(None if c is None else c[order] for c in coeffs)


def _edge(vs, s, e, limit):
    """The first index of ascending ``vs`` at which (s v)**e, e < 0, is below
    ``limit``, up to the rounding of the edge."""
    return int(np.searchsorted(vs, limit ** (1.0 / e) / s))


def _live_slice(vs, s, e):
    """The suffix of ascending ``vs`` whose weights exp(-(s v)**e), e < 0,
    a heat sum evaluates: its live entries have (s v)**e below
    :func:`_heat_cut` of ``vs.size``, so every weight left out is below
    2**-53 / n, and ker V, where the kernel vanishes, is left out too.
    NaNs sort last and are always kept, so a NaN makes every sum NaN.
    """
    return slice(_edge(vs, s, e, _heat_cut(vs.size)), vs.size)


# block length of the heat sums: a sequential sum of this many products,
# plus the pairwise sum of the block sums, keeps a long heat sum as accurate
# as np.sum of the products (a BLAS dot of 2**18 decaying terms is not)
_DOT_BLOCK = 128
# entries of the spectrum the heat engine takes at a time: the powers, the
# weights and the coefficient rows of one window are all its scratch
_HEAT_WINDOW = 1 << 15


def _heat_weights(vs, scales, e):
    """Walk ascending ``vs`` in windows of ``_HEAT_WINDOW`` new entries and
    yield (lo, hi, steps) per window [lo, hi): ``steps`` yields (j, start, w)
    for each scale s_j that has weights in it, where w are the weights
    ``np.exp(-(s_j ** e) * v ** e)``, e < 0, of the entries [start,
    start + w.size).  Each scale's steps cover its live slice
    (:func:`_live_slice`) in order, and no weight outside it is evaluated;
    every step but the last of a scale holds a whole number of
    ``_DOT_BLOCK`` blocks counted from the live start, and its last ends at
    ``vs.size``, so the blocks of a heat sum do not depend on the windows.

    ``v ** e`` is taken once per window, in memory order
    (:func:`_power`), over the entries some scale evaluates; it leaves out
    ker V, so no ``0 ** e`` is taken.  Each weight differs from
    ``exp(-(s v) ** e)`` only by the rounding of the product
    ``s**e * v**e``: a relative error of order eps * max(1, (s v)**e).

    Every step writes its weights into one buffer, and each window's steps
    must be taken before the next window: a yielded array is valid only
    until the next step.
    """
    scales = [float(s) for s in scales]
    n = vs.size
    pending = [_live_slice(vs, s, e).start for s in scales]
    factors = [-(s ** e) for s in scales]
    buf = np.empty(_HEAT_WINDOW + _DOT_BLOCK)

    def steps(hi, x, xlo):
        for j, start in enumerate(pending):
            end = hi if hi == n else \
                start + (hi - start) // _DOT_BLOCK * _DOT_BLOCK
            if end <= start:
                continue
            w = np.multiply(x[start - xlo:end - xlo], factors[j],
                            out=buf[:end - start])
            np.exp(w, out=w)
            pending[j] = end
            yield j, start, w

    hi = min(pending, default=n)
    while hi < n:
        hi = min(hi + _HEAT_WINDOW, n)
        lo = min(pending)
        yield lo, hi, steps(hi, _power(vs[lo:hi], e), lo)


def _heat_rows(vs, cs, scales, e, saturating=False):
    """sum_k c_k exp(-(s ** e) * v_k ** e), e < 0, for each coefficient
    vector c of ``cs`` and each s in ``scales``, from one evaluation of each
    weight vector; returns one array of sums per c (complex for a complex c).

    ``vs`` is ascending (:func:`_sorted_spectrum`) and every c is in its
    order: None means every c_k = 1, and a tuple of arrays stands for their
    product, formed one window at a time.  Each c is its own row, taken a
    window at a time (:func:`_heat_weights`) into a contiguous array (a
    strided or reversed view is copied, since einsum and BLAS add it up in
    another order), a complex c as the (2, window) array of its real and
    imaginary parts, so no complex product with a weight is formed.  Over
    each live slice, the products of a row are summed in blocks of
    ``_DOT_BLOCK`` by one einsum per step, the block sums are added
    pairwise, and the tail past the last whole block is added by one BLAS
    product; the weights alone (c = None) are summed the same way by np.sum.
    The weights past each live slice are left out (:func:`_heat_cut`), so
    each sum misses less than 2**-53 max|c_k|.
    A c with no nonzero entry (a tuple with a factor that has none) gives
    exact zeros with no sum taken for it, unless ``vs`` holds a NaN, which
    makes every sum NaN.

    With ``saturating`` one more array follows: sum_k v_k**(-e) (1 - w_k),
    with the head below the live slice, where w is below 2**-53 / n and
    1 - w is 1, added segment by segment, never as
    sum(v**-e) - sum(v**-e * w), which cancels.  Each
    segment between two live starts is powered and summed whole, a
    temporary of its length.
    """
    n = vs.size
    nan = bool(n and np.isnan(vs[-1]))
    cs = [c if c is None or isinstance(c, tuple) else (c,) for c in cs]
    cplx = [c is not None and np.result_type(*c).kind == "c" for c in cs]
    out = [np.zeros(len(scales), complex if z else float) for z in cplx]
    summed = [i for i, c in enumerate(cs)
              if c is None or nan or all(f.any() for f in c)]
    if not (summed or saturating):
        return out
    lives = [_live_slice(vs, float(s), e).start for s in scales]
    sat = len(cs)  # the index of the saturating row
    if saturating:
        heads, total, prev = {}, 0.0, 0
        for lo in sorted(set(lives)):
            total += float(np.sum(_power(vs[prev:lo], -e)))
            heads[lo], prev = total, lo
        out.append(np.empty(len(scales)))
        summed.append(sat)
        cplx.append(False)
    # per row and scale: the block sums of its live slice, and its tail
    parts = {i: (2,) if cplx[i] else () for i in summed}
    blocks = {(i, j): np.empty(parts[i] + ((n - live) // _DOT_BLOCK,))
              for i in summed for j, live in enumerate(lives)}
    tails = {(i, j): np.zeros(parts[i])
             for i in summed for j in range(len(lives))}
    for lo, hi, steps in _heat_weights(vs, scales, e):
        rows = [_power(vs[lo:hi], -e) if i == sat else None if cs[i] is None
                else _window_row(cs[i], lo, hi, cplx[i]) for i in summed]
        for j, start, w in steps:
            m = w.size - w.size % _DOT_BLOCK
            ws = w[:m].reshape(-1, _DOT_BLOCK)
            at = (start - lives[j]) // _DOT_BLOCK
            for i, r in zip(summed, rows):
                if i == sat:  # the last row, so w is read no more
                    np.subtract(1.0, w, out=w)
                b = blocks[i, j][..., at:at + ws.shape[0]]
                if r is None:
                    b[...] = np.sum(ws, axis=-1)
                    if hi == n:
                        tails[i, j] = np.sum(w[m:])
                    continue
                r = r[..., start - lo:start - lo + w.size]
                b[...] = np.einsum("...ij,ij->...i", r[..., :m].reshape(
                    *r.shape[:-1], -1, _DOT_BLOCK), ws)
                if hi == n:
                    tails[i, j] = r[..., m:] @ w[m:]
    for i in summed:
        for j, live in enumerate(lives):
            x = np.sum(blocks[i, j], axis=-1) + tails[i, j]
            out[i][j] = (heads[live] + float(x) if i == sat
                         else complex(*x) if cplx[i] else x)
    return out


def _window_row(c, lo, hi, cplx):
    """The product of the factors ``c`` on the entries [lo, hi) as one
    contiguous array, or as the (2, hi - lo) array of its real and
    imaginary parts when ``cplx``."""
    x = c[0][lo:hi]
    for f in c[1:]:
        x = x * f[lo:hi]
    if not cplx:
        return np.ascontiguousarray(x)
    row = np.empty((2, hi - lo))
    row[0], row[1] = x.real, x.imag
    return row


def _heat_sums(vs, c, scales, e):
    """:func:`_heat_rows` of the one coefficient vector ``c``."""
    return _heat_rows(vs, [c], scales, e)[0]


def default_heat_grid(dim, ratio=math.sqrt(2.0), n_min=8):
    """Geometric grid kept below dim/8 so truncation tails stay negligible."""
    n_max = max(dim // 8, n_min * 2)
    return geometric_grid(n_min, n_max, ratio)


def heat_functional(A, V, alpha, grid):
    """h(n) = Tr(A V exp(-(nV)^-alpha)) on the integer ``grid``, as a
    complex array of the grid's length; exp vanishes on ker V.  A grid entry
    that is not a positive integer is a :class:`ContractViolation`."""
    if not (alpha > 1.0):
        raise ContractViolation("heat_functional requires alpha > 1")
    grid = np.asarray(grid)
    whole = grid.dtype.kind in "iu" or grid.dtype.kind == "f" and np.all(
        np.isfinite(grid) & (np.floor(grid) == grid))
    if not (whole and np.all(grid > 0)):
        raise ContractViolation(f"heat_functional grid must hold positive "
                                f"integers, got {grid.tolist()!r}")
    exact_zero = A is not None and A.is_zero()
    v, a = _psd_diagonal(None if exact_zero else A, V, "heat_functional")
    if exact_zero:
        V._check_dims(A)
    grid = np.asarray(grid, dtype=np.int64)
    # the zero rule of _heat_sums, taken before the sort and the product
    # (and, for the exact zero, before its diagonal is read)
    if (exact_zero or a is not None and not a.any()) and not np.isnan(v).any():
        return np.zeros(grid.size, dtype=complex)
    if exact_zero:  # V holds a NaN, which makes every sum NaN
        a = np.zeros(v.size, dtype=complex)
    v, a = _sorted_spectrum(v, a)
    av = v if a is None else (a, v)
    return _heat_sums(v, av, grid, -alpha).astype(complex)


def heat_fit(ns, values):
    """Fit h(n) ~ z*log(n) + b to the samples ``values`` of h on the integer
    grid ``ns``.

    The fit drops the lower half of the samples in log position (keeping at
    least 4), where pre-asymptotic transients live.
    """
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=complex)
    if ns.size > 4:
        start = min(ns.size // 2, ns.size - 4)
        ns, values = ns[start:], values[start:]
    if ns.size < 3:
        raise ContractViolation("heat_fit needs at least 3 samples")
    x = np.log(ns)
    coef, resid = _least_squares([x, np.ones_like(x)], values)
    return TraceEstimate(
        z=complex(coef[0]), residual_sup=resid,
        grid_used={"n_lo": int(ns[0]), "n_hi": int(ns[-1]), "points": int(ns.size)},
    )


def heat_xi(V, scheme):
    """xi(n) = (1/n) Tr(exp(-(nV)^-1)) on the window of ``scheme``, averaged
    with the Cesaro-log mean."""
    v, _ = _psd_diagonal(None, V, "heat_xi")
    v, = _sorted_spectrum(v)
    window = scheme.window(default_heat_grid(V.dim, scheme.ratio, scheme.n_min))
    values = _heat_sums(v, None, window, -1.0) / window
    z, resid = scheme.apply(window, values, averaging="cesaro_log")
    return TraceEstimate(z=z, residual_sup=resid,
                         grid_used=scheme.describe(int(window[-1])))


def lemma_estimate_scalings(V, alpha):
    """The gates on the log-log slopes of Tr(V^a (1-e^{-(nV)^-a})) and
    Tr(e^{-(nV)^-a}) on the default heat grid.

    The first quantity must grow no faster than n^{1-alpha}, the second no
    faster than n, each up to a slack of 0.05; smaller (steeper decay) always
    passes.  A third gate holds the slope of (1/(n log n)) Tr(e^{-(nV)^-a})
    to at most 0: it should trend downward on any window even though its
    extended limit is only zero asymptotically.
    """
    if not (alpha > 1.0):
        raise ContractViolation("lemma_estimate_scalings requires alpha > 1")
    v, _ = _psd_diagonal(None, V, "lemma_estimate_scalings")
    grid = default_heat_grid(V.dim)
    v, = _sorted_spectrum(v)
    counting, saturating = _heat_rows(v, [None], grid, -alpha,
                                      saturating=True)
    return _scalings_verdict(alpha, grid, saturating, counting)


def _scalings_verdict(alpha, grid, saturating, counting):
    """The gates of :func:`lemma_estimate_scalings` from its sums on
    ``grid``: ``saturating`` of Tr(V^a (1-e^{-(nV)^-a})) and ``counting``
    of Tr(e^{-(nV)^-a})."""
    return [Gate("slope_saturating", _loglog_slope(grid, saturating),
                 1.0 - alpha + 0.05),
            Gate("slope_counting", _loglog_slope(grid, counting), 1.0 + 0.05),
            Gate("xi_over_nlogn_slope", _loglog_slope(
                grid, counting / (grid * np.log(grid))), 0.0)]


def modulated_comparison(A, V):
    """Gap between eigenvalue partial sums of AV and the spectral cutoff trace.

    d(n) = | sum_{k<=n} lambda(k, AV) - Tr(A V E_V[1/n, inf)) | stays O(1),
    within 3 ||A||, on n = 8 .. N-1 when A is diagonal (any other A is a
    :class:`ContractViolation`) and V a psd diagonal of harmonic-type decay.
    """
    if A.kind != "diag":
        raise ContractViolation(
            f"modulated_comparison requires a diagonal A, got {A.label!r}")
    v, a = _sorted_spectrum(*_psd_diagonal(A, V, "modulated_comparison"))
    series = eigenvalue_partial_sums(A @ V)
    grid = geometric_grid(8, series.N - 1, math.sqrt(2.0))
    # the cutoff trace over the m largest v: the partial sum of a * v from
    # the top of the spectrum down, read at m - 1 (0 for m = 0)
    ms = v.size - np.searchsorted(v, 1.0 / grid)
    tail = PartialSumSeries((a * v)[::-1]).at(np.maximum(ms - 1, 0))
    gaps = np.abs(series.at(grid) - np.where(ms > 0, tail, 0.0))
    return {
        "gates": [Gate("sup_gap", float(gaps.max()),
                       float(3.0 * A.norm_bound()))],
        "ns": grid.tolist(),
        "gaps": gaps.tolist(),
    }


def cesaro_cutoff_comparison(A, V, alpha, scheme):
    """Scheme averages of Tr(AV e^{-(nV)^-a})/log n vs Tr(A (V-1/n)_+)/log n."""
    v, a = _sorted_spectrum(*_psd_diagonal(A, V, "cesaro_cutoff_comparison"))
    window = scheme.window(default_heat_grid(V.dim, scheme.ratio, scheme.n_min))
    heat = _heat_sums(v, v if a is None else (a, v), window, -alpha)
    return _cutoff_verdict(window, heat, _cutoff_sums(v, a, window), scheme)


def _cutoff_sums(v, a, ns):
    """Tr(A (V - 1/n)_+) for each n of ``ns``, from ascending ``v`` and A's
    diagonal ``a`` in its order (None: A = 1)."""
    sums = np.empty(len(ns), dtype=complex)
    for j, n in enumerate(ns):
        # (v - 1/n)_+ is nonzero exactly on the slice v > 1/n (and NaN)
        t = 1.0 / float(n)
        k = int(np.searchsorted(v, t, side="right"))
        excess = v[k:] - t
        sums[j] = np.sum(excess if a is None else a[k:] * excess)
    return sums


def _cutoff_verdict(window, heat, cut, scheme):
    """The report of :func:`cesaro_cutoff_comparison` from its heat sums
    ``heat`` and cutoff sums ``cut`` on ``window``."""
    log_n = np.array([math.log(float(n)) for n in window])
    z_heat, r_heat = scheme.apply(window, heat / log_n)
    z_cut, r_cut = scheme.apply(window, cut / log_n)
    return {
        "z_heat": z_heat,
        "z_cutoff": z_cut,
        "gap": abs(z_heat - z_cut),
        "residuals": {"heat": r_heat, "cutoff": r_cut},
        "grid": scheme.describe(int(window[-1])),
    }


def _alternating_signs(n):
    """The diagonal (-1)^k, k = 0 .. n - 1, of the alternating signs, as
    int8: an eighth of the memory of float64, and the same products."""
    signs = np.ones(n, dtype=np.int8)
    signs[1::2] = -1
    return signs


def _heat_pass(V, alpha):
    """The sums on the default heat grid of a psd diagonal V = diag(v) and
    the alternating signs A = diag((-1)^k) that :func:`heat_functional`,
    :func:`lemma_estimate_scalings` and :func:`cesaro_cutoff_comparison` (of
    the default scheme) take, with each weight vector w = exp(-(nV)^-alpha)
    evaluated once: ``heat`` Tr(V w) and ``modulated`` Tr(A V w),
    ``counting`` Tr(w) and ``saturating`` Tr(V^alpha (1 - w)), and
    ``cutoff`` Tr((V - 1/n)_+).  Each equals the sum the function takes bit
    for bit; A V is formed a window at a time, as every coefficient row."""
    v, _ = _psd_diagonal(None, V, "heat pass")
    v, signs = _sorted_spectrum(v, _alternating_signs(v.size))
    grid = default_heat_grid(V.dim)
    counting, heat, modulated, saturating = _heat_rows(
        v, [None, v, (signs, v)], grid, -alpha, saturating=True)
    return {"grid": grid, "heat": heat, "modulated": modulated,
            "counting": counting, "saturating": saturating,
            "cutoff": _cutoff_sums(v, None, grid)}


def _classify_branch(mu, slope):
    """'a' when the singular values ``mu`` (an array) decay like
    1/(k+1) (their :func:`decay_exponent` ``slope`` is at most -0.8); 'b'
    when only the log-mean is bounded."""
    if slope <= _WEAK_L1_SLOPE:
        return "a"
    sums = np.cumsum(mu)
    n = np.arange(sums.size, dtype=float)
    lam = sums / np.log(2.0 + n)
    half = lam[lam.size // 2:]
    growth = _loglog_slope(np.arange(half.size) + sums.size // 2 + 1.0,
                           np.abs(half) + 1e-300)
    if growth <= 0.1:
        return "b"
    raise BranchError(
        f"V is in neither L_1,inf nor M_1,inf at this truncation "
        f"(decay slope {slope:.3f}, log-mean growth {growth:.3f})"
    )


# slack added to the summed fit residuals of the two slopes the criterion
# compares
_CRITERION_FLOOR = 0.02


def _criterion(mu, slope, heat, fit):
    """The branch and the gate of the measurability criterion from V's
    singular values ``mu`` and their :func:`decay_exponent` ``slope``, the
    heat estimate ``heat`` of Tr(A V e^{-(nV)^-alpha}) and the log fit
    ``fit`` of the eigenvalue partial sums of AV: the two slopes agree
    within their summed fit residuals plus a floor."""
    return _classify_branch(mu, slope), Gate(
        "criterion_gap", abs(heat.z - fit.z),
        heat.residual_sup + fit.residual_sup + _CRITERION_FLOOR)


def measurability_criterion_check(A, V, ns, heat):
    """Compare the heat-functional slope with the partial-sum slope of AV.

    The heat route fits Tr(A V e^{-(nV)^-2}) against log n; the spectral
    route fits the eigenvalue partial sums of AV against log(n+1) on the
    dyadic window.  The two slopes must agree within the summed fit
    residuals (plus a small floor), which is the finite form of the
    statement that both compute the same trace value.  ``heat`` holds the
    samples ``heat_functional(A, V, 2.0, ns)`` on the caller's grid ``ns``.
    Returns the ``branch`` of V, the two slopes ``z_heat`` and ``z_spec``
    and the criterion's ``gates``.
    """
    mu = singular_values(V)
    product = (A @ V) if A is not None else V
    est = heat_fit(ns, heat)
    fit = log_fit(eigenvalue_partial_sums(product))
    branch, gate = _criterion(mu, decay_exponent(mu), est, fit)
    return {"branch": branch, "z_heat": est.z, "z_spec": fit.z,
            "gates": [gate]}
