"""Sequence-space diagnostics for weak trace ideals.

Implements the quasi-norm of the principal ideals (sup of (k+1)^{1/p} mu(k)),
the Lorentz/Macaev supremum, eigenvalue partial sums in the canonical
ordering, logarithmic least-squares fits, and the measurability verdict that
classifies an operator by whether its eigenvalue partial sums grow like
z*log(n+1) + O(1).

At a finite truncation the O(1) clause is operationalized as a residual
supremum over a dyadic index window that excludes the top ~sqrt(N) indices,
where compression artifacts concentrate.  Every verdict carries the fit
record so the tolerance actually used is visible in reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .operators import (
    ContractViolation,
    _overlapping_blocks,
    _real_or_complex,
    eigenvalues,
)

__all__ = [
    "PartialSumSeries",
    "LogFit",
    "IdealDiagnostics",
    "Verdict",
    "Gate",
    "MEASURABLE",
    "COMMUTATOR_SUBSPACE",
    "INCONCLUSIVE",
    "quasi_norm_pinf",
    "lorentz_norm_m1inf",
    "eigenvalue_partial_sums",
    "geometric_grid",
    "dyadic_window",
    "log_fit",
    "universal_measurability_test",
    "decay_exponent",
    "ideal_diagnostics",
]

DEFAULT_RATIO = math.sqrt(2.0)
# block length of :func:`quasi_norm_pinf` and of the running sum of
# :func:`lorentz_norm_m1inf`
_NORM_BLOCK = 1 << 16


@dataclass(frozen=True)
class PartialSumSeries:
    """Cumulative eigenvalue sums: sums[n] = sum_{k<=n} lambda(k, T), float64
    when the eigenvalues are real and complex128 otherwise.

    ``boundaries`` marks the indices n at which a maximal group of
    (numerically) equal-modulus eigenvalues ends.  Partial sums at those
    indices are invariant under any reordering inside the groups, so fits
    sample there.  ``None`` means every index is a boundary.
    """

    sums: np.ndarray
    boundaries: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "sums", _real_or_complex(self.sums))
        if self.boundaries is not None:
            object.__setattr__(
                self, "boundaries",
                np.asarray(self.boundaries, dtype=np.int64))

    @property
    def N(self):
        return self.sums.size

    def __len__(self):
        return self.sums.size

    def snap(self, indices):
        """Round sample indices down to the nearest group boundary."""
        if self.boundaries is None or self.boundaries.size == 0:
            return np.asarray(indices, dtype=np.int64)
        pos = np.searchsorted(self.boundaries, indices, side="right") - 1
        pos = np.clip(pos, 0, self.boundaries.size - 1)
        return self.boundaries[pos]


@dataclass(frozen=True)
class LogFit:
    """Least-squares fit of a series against log(n+1) over a dyadic grid."""

    z: complex
    intercept: complex
    residual_sup: float
    window: tuple
    grid: np.ndarray = field(repr=False)

    def as_dict(self):
        return {
            "z": [self.z.real, self.z.imag],
            "intercept": [self.intercept.real, self.intercept.imag],
            "residual_sup": self.residual_sup,
            "window": list(self.window),
            "grid_points": int(self.grid.size),
        }


@dataclass
class IdealDiagnostics:
    """Membership diagnostics for L_{p,inf} / M_{1,inf} at finite truncation."""

    quasi_norm_pinf: float
    lorentz_norm: float
    fitted_decay_exponent: float


# singular values whose decay exponent is at most this are weak L_1
_WEAK_L1_SLOPE = -0.8

MEASURABLE = "measurable"
COMMUTATOR_SUBSPACE = "commutator_subspace"
INCONCLUSIVE = "inconclusive"


@dataclass
class Verdict:
    """Outcome of the universal-measurability test."""

    kind: str
    z: complex
    fit: LogFit
    tol: float
    z_tol: float
    notes: str = ""

    def as_dict(self):
        return {
            "kind": self.kind,
            "z": [self.z.real, self.z.imag],
            "tol": self.tol,
            "z_tol": self.z_tol,
            "fit": self.fit.as_dict(),
            "notes": self.notes,
        }


class Gate(NamedTuple):
    """One comparison of a verdict, which holds when ``value <= bound`` (a
    NaN fails it); a lower bound is a gate on the negated value."""

    name: str
    value: float
    bound: float

    @property
    def holds(self):
        return bool(self.value <= self.bound)


def quasi_norm_pinf(mu, p):
    """sup_k (k+1)^{1/p} mu(k) of the singular values ``mu`` (an array): the
    L_{p,inf} quasi-norm at truncation."""
    if p <= 0:
        raise ContractViolation("quasi_norm_pinf requires p > 0")
    if mu.size == 0:
        return 0.0
    # one block at a time, in place: the same bits as
    # (k + 1.0) ** (1.0 / p) * mu, since the max is exact
    tops = []
    for lo in range(0, mu.size, _NORM_BLOCK):
        x = np.arange(lo, min(lo + _NORM_BLOCK, mu.size), dtype=float)
        x += 1.0
        x **= 1.0 / p
        x *= mu[lo:lo + _NORM_BLOCK]
        tops.append(np.max(x))
    return float(np.max(tops))


def lorentz_norm_m1inf(mu):
    """sup_n (sum_{k<=n} mu(k)) / log(2+n) of the singular values ``mu``
    (an array): the Macaev-Dixmier norm."""
    if mu.size == 0:
        return 0.0
    # one block at a time, the running sum carried into each block's first
    # entry: the same bits as cumsum(mu) / log(2.0 + n) (a cumsum adds in
    # order), with temporaries of one block's length
    tops, carry = [], 0.0
    for lo in range(0, mu.size, _NORM_BLOCK):
        sums = mu[lo:lo + _NORM_BLOCK].copy()
        if lo:
            sums[0] += carry
        np.cumsum(sums, out=sums)
        carry = sums[-1]
        x = np.arange(lo, lo + sums.size, dtype=float)
        x += 2.0
        sums /= np.log(x, out=x)
        tops.append(np.max(sums))
    return float(np.max(tops))


def eigenvalue_partial_sums(T):
    """Partial sums of eigenvalues(T) in canonical order (float64 when T is
    hermitian).

    An index n is a tie-group boundary when the modulus drops from n to
    n + 1 by more than 1e-9 |lambda_0| (by more than 1e-9 when lambda_0 is
    0): one absolute gap, scaled by the largest modulus, for the whole
    spectrum.  The last index is always a boundary.  The exact zero (an
    operator with no run) takes no eigenvalue: its sums are a read-only
    view of one 0.0 with stride 0, and its one tie group ends at the last
    index.
    """
    n = T.dim
    if T.is_zero() and n:
        return PartialSumSeries(np.broadcast_to(np.zeros(1), (n,)),
                                boundaries=[n - 1])
    values = eigenvalues(T)
    if n == 0:
        return PartialSumSeries(values)
    top = abs(values[0])
    gap = 1e-9 * (top if top > 0 else 1.0)
    # the drops of the moduli, one block at a time
    drops = []
    for lo, block in _overlapping_blocks(values):
        moduli = np.abs(block)
        drops.append(np.flatnonzero(moduli[:-1] - moduli[1:] > gap) + lo)
    return PartialSumSeries(np.cumsum(values),
                            boundaries=np.concatenate(drops + [[n - 1]]))


def geometric_grid(lo, hi, ratio=DEFAULT_RATIO):
    """Strictly increasing integer grid n_j ~ lo * ratio^j capped at hi."""
    if not (ratio > 1.0):
        raise ContractViolation("geometric grid requires ratio > 1")
    lo = max(int(lo), 1)
    hi = int(hi)
    if hi < lo:
        raise ContractViolation(f"degenerate grid range [{lo}, {hi}]")
    pts = []
    x = float(lo)
    while x <= hi:
        pts.append(int(math.ceil(x)))
        x *= ratio
    pts.append(hi)
    return _distinct(np.asarray(pts, dtype=np.int64))


def _distinct(x):
    """The distinct entries of a non-decreasing array, as ``np.unique``
    returns them, by an adjacent difference (``np.unique`` without
    ``return_index`` imports ``numpy.ma``, 15 ms, in numpy 2.4)."""
    if x.size == 0:
        return x.copy()
    return x[np.concatenate(([True], x[1:] != x[:-1]))]


def dyadic_window(N):
    """Default fit window [sqrt(N), N - sqrt(N)] (edge indices excluded)."""
    root = int(math.ceil(math.sqrt(N)))
    lo = min(root, max(1, N // 2))
    hi = max(lo + 1, N - root - 1)
    return lo, min(hi, N - 1)


def _least_squares(columns, values):
    """Least-squares coefficients of ``values`` on the design ``columns``,
    with the sup norm of the residual."""
    design = np.column_stack(columns)
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    return coef, float(np.max(np.abs(values - design @ coef)))


def _loglog_slope(ns, values):
    """Slope of log(values) against log(ns) over the positive values;
    -inf when fewer than three are positive."""
    ns = np.asarray(ns, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > 0
    if keep.sum() < 3:
        return -math.inf
    x = np.log(ns[keep])
    coef, _ = _least_squares([x, np.ones_like(x)], np.log(values[keep]))
    return float(coef[0])


def log_fit(series, window=None):
    """Fit sums[n] ~ z*log(n+1) + b on a ratio-sqrt(2) grid inside ``window``.

    Grid points snap down to tie-group boundaries, which makes the fit
    exactly invariant under eigenvalue reordering inside equal-modulus
    groups.  ``residual_sup`` is the maximum modulus of the deviation over
    the grid, the finite surrogate for the O(1) clause.
    """
    sums = series.sums
    N = sums.size
    if window is None:
        window = dyadic_window(N)
    lo, hi = window
    if hi >= N:
        hi = N - 1
    grid = geometric_grid(lo, hi)
    snapped = _distinct(series.snap(grid))
    # fully degenerate spectra (e.g. the zero operator) collapse under
    # snapping; sums are then constant over ties and the raw grid is safe
    grid = snapped if snapped.size >= 3 else grid
    if grid.size < 3:
        raise ContractViolation(
            f"log_fit window [{lo},{hi}] spans {grid.size} grid points; need >= 3"
        )
    x = np.log(grid + 1.0)
    # the fit of a complex series: a real solve of real sums rounds otherwise
    coef, resid = _least_squares([x, np.ones_like(x)],
                                 sums[grid].astype(complex))
    return LogFit(z=complex(coef[0]), intercept=complex(coef[1]),
                  residual_sup=resid,
                  window=(int(lo), int(hi)), grid=grid)


def universal_measurability_test(series, tol=0.5, z_tol=None, window=None):
    """Classify an operator by the log-growth of its eigenvalue partial sums
    ``series`` (a :class:`PartialSumSeries`).

    Returns a :class:`Verdict`:

    * ``measurable`` when the fit residual stays below ``tol`` and |z| is
      above ``z_tol`` -- the partial sums follow z*log(n+1) + O(1);
    * ``commutator_subspace`` when the residual is below ``tol`` and z is
      negligible -- the partial sums are bounded;
    * ``inconclusive`` otherwise.
    """
    z_tol = tol if z_tol is None else z_tol
    fit = log_fit(series, window=window)
    z = fit.z
    if fit.residual_sup <= tol:
        if abs(z) > z_tol:
            return Verdict(MEASURABLE, z, fit, tol, z_tol)
        return Verdict(COMMUTATOR_SUBSPACE, z, fit, tol, z_tol,
                       notes="fitted slope negligible; sums bounded on window")
    return Verdict(
        INCONCLUSIVE, z, fit, tol, z_tol,
        notes=f"residual_sup {fit.residual_sup:.3g} exceeds tol {tol:.3g}",
    )


def decay_exponent(mu):
    """Log-log regression slope of the singular values ``mu`` (an array)
    against (k+1) over a dyadic window."""
    grid = geometric_grid(*dyadic_window(mu.size))
    return _loglog_slope(grid + 1.0, mu[grid])


def ideal_diagnostics(mu):
    """Quasi-norm, Lorentz norm and fitted decay exponent of the singular
    values ``mu`` (an array) in L_{1,inf} / M_{1,inf}."""
    return IdealDiagnostics(quasi_norm_pinf=quasi_norm_pinf(mu, 1.0),
                            lorentz_norm=lorentz_norm_m1inf(mu),
                            fitted_decay_exponent=decay_exponent(mu))
