"""Hochschild chains, boundaries, and the character-formula checks.

Chains are symbolic: a degree-q chain is a complex combination of elementary
tensors of algebra words, with twist phases carried as exact integer powers
of lam = exp(2 pi i theta).  The boundary operator and cycle verification
therefore never touch floating point phases -- bc = 0 is decided by exact
cancellation of coefficients.

The numerical side realizes the multilinear maps

    Omega(c) = Gamma a0 prod_k [D, a_k]
    ch(c)    = F Gamma prod_k [F, a_k]         (k = 0..q)
    W_A(c)   = Gamma a0 prod_k [b_k, a_k],     b_k = |D| on A, else F,

compressed to the interior window, and runs the identity, partial-sum and
heat-trace checks built from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .ideals import (
    Gate,
    _least_squares,
    eigenvalue_partial_sums,
    geometric_grid,
    log_fit,
    universal_measurability_test,
)
from .operators import (
    ContractViolation,
    commutator,
    hermitian_calculus,
    zero,
)
from .traces import (
    _criterion,
    _heat_sums,
    _sorted_spectrum,
    dixmier_logmean,
    heat_fit,
    heat_functional,
)
from .triples import (
    AlgebraElement,
    _interior_weight,
    _weight_diagnostics,
    _weight_singular_values,
    invertible_double,
)

__all__ = [
    "Chain",
    "boundary",
    "is_cycle",
    "nc_torus_volume_cycle",
    "circle_winding_cycle",
    "antisymmetrized_cycle",
    "omega",
    "ch_op",
    "chern",
    "ChernResult",
    "w_subset",
    "bob_identity_check",
    "appendix_identity_checks",
    "reduction_partial_sum_check",
    "heat_cycle_trace",
    "main_theorem_check",
    "chain_from_json",
]


class Chain:
    """Formal combination of elementary tensors of algebra words.

    ``terms`` maps (words, lam_power) -> coefficient, where ``words`` is a
    tuple of degree+1 lattice words.
    """

    __slots__ = ("model", "degree", "terms")

    def __init__(self, model, degree, terms):
        self.model = model
        self.degree = int(degree)
        clean = {}
        for (words, m), coeff in terms.items():
            if len(words) != self.degree + 1:
                raise ContractViolation("tensor length must be degree + 1")
            if coeff != 0:
                key = (tuple(tuple(w) for w in words), int(m))
                clean[key] = clean.get(key, 0j) + coeff
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @classmethod
    def from_elements(cls, model, combos):
        """Build from [(coeff, [AlgebraElement, ...]), ...], distributing sums."""
        degree = None
        terms = {}
        for coeff, slots in combos:
            if degree is None:
                degree = len(slots) - 1
            elif len(slots) != degree + 1:
                raise ContractViolation("mixed tensor lengths in one chain")
            expanded = [(1.0 + 0j, (), 0)]
            for slot in slots:
                if not isinstance(slot, AlgebraElement):
                    raise ContractViolation("tensor slots must be AlgebraElements")
                if slot.model is not model:
                    raise ContractViolation("mixed models in one chain")
                nxt = []
                for c0, words, m0 in expanded:
                    for (w, m), c in slot.terms.items():
                        nxt.append((c0 * c, words + (w,), m0 + m))
                expanded = nxt
            for c0, words, m0 in expanded:
                key = (words, m0)
                terms[key] = terms.get(key, 0j) + coeff * c0
        if degree is None:
            raise ContractViolation("empty chain")
        return cls(model, degree, terms)

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if other.model is not self.model or other.degree != self.degree:
            raise ContractViolation("chain mismatch in addition")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0j) + coeff
        return Chain(self.model, self.degree, out)

    def __rmul__(self, scalar):
        return Chain(self.model, self.degree,
                     {k: scalar * v for k, v in self.terms.items()})

    def __repr__(self):
        label = self.model.word_label
        bits = []
        for (words, m), coeff in sorted(self.terms.items()):
            lam = f"*lam^{m}" if m else ""
            bits.append(f"{coeff:.3g}{lam}*" + "(x)".join(label(w) for w in words))
        return f"Chain(deg={self.degree}: " + " + ".join(bits[:4]) + (
            " ..." if len(bits) > 4 else "") + ")"


def boundary(c):
    """Hochschild boundary: alternating sum of adjacent-slot products."""
    if c.degree < 1:
        raise ContractViolation("boundary needs degree >= 1")
    model = c.model
    out = {}

    def add(words, m, coeff):
        key = (words, m)
        out[key] = out.get(key, 0j) + coeff

    for (words, m), coeff in c.terms.items():
        q = c.degree
        merged, dm = model.mul_words(words[0], words[1])
        add((merged,) + words[2:], m + dm, coeff)
        for k in range(1, q):
            merged, dm = model.mul_words(words[k], words[k + 1])
            add(words[:k] + (merged,) + words[k + 2:], m + dm,
                coeff * (-1.0) ** k)
        merged, dm = model.mul_words(words[q], words[0])
        add((merged,) + words[1:q], m + dm, coeff * (-1.0) ** q)
    return Chain(model, c.degree - 1, out)


def is_cycle(c):
    """Exact symbolic test bc = 0 (coefficients cancel identically)."""
    return boundary(c).is_zero()


def circle_winding_cycle(model):
    """The 1-cycle u* (x) u on the circle model."""
    u = model.monomial((1,))
    return Chain.from_elements(model, [(1.0, [u.adjoint(), u])])


def antisymmetrized_cycle(model, letters):
    """sum_sigma sgn(sigma) t_sigma (x) a_{s(1)} (x) ... (x) a_{s(q)}, where
    t_sigma is the inverse of the ordered product a_{s(1)} ... a_{s(q)}.

    Each orientation carries the (twist-corrected) inverse of its own
    product, so the chain is exactly closed for commuting letters in any
    degree and, at every twist angle, for the torus letters (U, V): that is
    :func:`nc_torus_volume_cycle`.
    """
    from itertools import permutations

    q = len(letters)
    combos = []
    for perm in permutations(range(q)):
        sign = _perm_sign(perm)
        prod = letters[perm[0]]
        for i in perm[1:]:
            prod = prod * letters[i]
        ((word, m),) = prod.terms.keys()
        inv_word, inv_m = model.word_inverse(word, m)
        t = AlgebraElement(model, {(inv_word, inv_m): 1.0 + 0j})
        combos.append((sign, [t] + [letters[i] for i in perm]))
    return Chain.from_elements(model, combos)


def _perm_sign(perm):
    """The sign of a permutation: the parity of its inversion count."""
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1:])
    return -1 if inversions % 2 else 1


def nc_torus_volume_cycle(model):
    """Volume 2-cycle (UV)^{-1} (x) U (x) V - (VU)^{-1} (x) V (x) U."""
    return antisymmetrized_cycle(model, [model.monomial((1, 0)),
                                         model.monomial((0, 1))])


# -- realized multilinear maps ---------------------------------------------------


def _chain_key(c):
    return (c.degree, tuple(sorted(c.terms.items())))


def _require_top_cycle(c, model, who):
    """``c`` must be a cycle of degree p: the checks on the invertible double
    pair it with |D0|^{-p} and W_p(c).  Any other chain is a
    :class:`ContractViolation`."""
    if not is_cycle(c):
        raise ContractViolation(f"{who} requires a cycle")
    if c.degree != model.p:
        raise ContractViolation(
            f"{who}: chain degree {c.degree} does not match model p={model.p}")


def _chain_map(c, model, kinds, label, lead=None):
    """The interior compression of lead Gamma sum_terms coeff lam^m prod_k X_k.

    X_k is ``model.factor(kinds[k], w_k)`` on the word w_k in slot k,
    formed once per call however many terms share it; ``lead`` and Gamma
    are left out when None.  The commutator factors of a term are taken
    first: when one is the exact zero, so is the term, and its ``id`` word
    is not realized.  A zero term is still added, so that the sum rounds as
    it would with the product formed.
    """
    factors = {}

    def factor(kind, w):
        if (kind, w) not in factors:
            factors[kind, w] = model.factor(kind, w)
        return factors[kind, w]

    acc = None
    for (words, m), coeff in sorted(c.terms.items()):
        slots = list(zip(kinds, words))
        if any(kind != "id" and factor(kind, w).is_zero()
               for kind, w in slots):
            piece = zero(model.dim)
        else:
            piece = None
            for kind, w in slots:
                piece = (factor(kind, w) if piece is None
                         else piece @ factor(kind, w))
            piece = (coeff * model.eval_phase(m)) * piece
        acc = piece if acc is None else acc + piece
    if acc is None:  # no term left
        acc = zero(model.dim)
    if model.Gamma is not None:
        acc = model.Gamma @ acc
    if lead is not None:
        acc = lead @ acc
    return model.compress(acc).relabel(label)


def omega(c, model):
    """Omega(c) = Gamma a0 prod_{k>=1} [D, a_k], compressed to the interior."""
    kinds = ("id",) + ("D",) * c.degree
    return model.derived(("omega", _chain_key(c)),
                         lambda: _chain_map(c, model, kinds, "Omega(c)"))


def w_subset(c, model, subset=frozenset()):
    """W_A(c) = Gamma a0 prod_k [b_k, a_k] with b_k = |D| on A else F.

    ``subset`` may be any iterable of positions in 1..degree.
    """
    q = c.degree
    subset = frozenset(int(k) for k in subset)
    if any(k < 1 or k > q for k in subset):
        raise ContractViolation(f"subset {sorted(subset)} not within 1..{q}")
    kinds = ("id",) + tuple("delta" if k in subset else "F"
                            for k in range(1, q + 1))
    label = "W_{" + ",".join(map(str, sorted(subset))) + "}(c)"
    return model.derived(("W", _chain_key(c), subset),
                         lambda: _chain_map(c, model, kinds, label))


def ch_op(c, model):
    """ch(c) = F Gamma prod_{k=0..q} [F, a_k], compressed to the interior."""
    return _chain_map(c, model, ("F",) * (c.degree + 1), "ch(c)", lead=model.F)


@dataclass
class ChernResult:
    """Ch(c) with its truncation-convergence record."""

    value: complex
    history: dict = field(default_factory=dict)

    @property
    def deltas(self):
        radii = sorted(self.history)
        vals = [self.history[r] for r in radii]
        return [abs(vals[i + 1] - vals[i]) for i in range(len(vals) - 1)]


def chern(c, model):
    """Chern character Ch(c) = (-1)^{q-1} (1/2) Tr(ch(c)), q = degree.

    The parity sign makes the character equality hold for even and odd
    degrees alike; for odd q it reduces to (1/2) Tr(ch(c)).  (The operator
    identity 2 W_0(c) = [F, F W_0(c)] + (-1)^{q-1} ch(c), exact at any
    truncation, forces this normalization: tracing it against heat cutoffs
    shows the pairing reproduces (-1)^{q-1} (1/2) Tr(ch(c)).)

    Traces over the nested windows N/4, N/2, N are recorded so the
    trace-class convergence of ch(c) is visible in reports.  When ch(c) is
    the exact zero (every toy chain), each window's trace is the sum of no
    term, with no diagonal or window index read.
    """
    def build():
        sign = (-1.0) ** (c.degree - 1)
        radii = sorted({max(model.N // 4, 2), max(model.N // 2, 2), model.N})
        chm = ch_op(c, model)
        # ch(c) is compressed to radius N; nested windows reuse its diagonal
        diag = None if chm.is_zero() else chm.diag()
        history = {}
        for radius in radii:
            if diag is None:  # +0j, as the sum of a zero diagonal is
                trace = np.zeros(0, dtype=complex).sum()
            else:
                within = np.zeros(model.dim, dtype=bool)
                within[model.interior_at(radius)] = True
                trace = diag[within[model.interior]].sum()
            history[radius] = complex(sign * 0.5 * trace)
        return ChernResult(value=history[model.N], history=history)
    return model.derived(("chern", _chain_key(c)), build)


def _pairing_series(c, model):
    """Eigenvalue partial sums of Omega(c) (1+D^2)^{-q/2}, q = degree.  They
    and the estimates below are built once per model, chain and extra key."""
    def build():
        T = omega(c, model) @ _interior_weight(model, c.degree)
        return eigenvalue_partial_sums(T)
    return model.derived(("pairing", _chain_key(c)), build)


def _pairing_verdict(c, model):
    """Partial-sum verdict: fit residual below max(0.5, |Ch|/4), slope
    nonzero above max(min(|Ch|/2, 0.5), 0.02)."""
    def build():
        ch = abs(chern(c, model).value)
        return universal_measurability_test(
            _pairing_series(c, model), tol=max(0.5, 0.25 * ch),
            z_tol=max(min(0.5 * ch, 0.5), 0.02), window=model.fit_window())
    return model.derived(("pairing verdict", _chain_key(c)), build)


# the heat factor of v_R at the top of a pairing's heat grid
_HEAT_EDGE_EPS = 1e-3


def _pairing_heat(c, model):
    """Heat fit of Tr(Omega(c) V exp(-(nV)^-alpha)), V the weight, alpha =
    1 + 1/q, on n = 8 .. max(n_hi, 32) at ratio sqrt(2).  At n_hi the heat
    factor of v_R, the weight's ``reliable_count``-th largest singular value
    (or its last), is ``_HEAT_EDGE_EPS``, so no sample reaches the modes
    whose spectrum the shape of the cutoff distorts."""
    def build():
        q = c.degree
        alpha = 1.0 + 1.0 / q
        mu = _weight_singular_values(model, q)
        v_r = mu[min(model.reliable_count, mu.size) - 1]
        n_hi = math.log(1.0 / _HEAT_EDGE_EPS) ** (-1.0 / alpha) / v_r
        grid = geometric_grid(8, max(n_hi, 32), math.sqrt(2.0))
        return heat_fit(grid, heat_functional(
            omega(c, model), _interior_weight(model, q), alpha, grid=grid))
    return model.derived(("pairing heat", _chain_key(c)), build)


def _pairing_dixmier(c, model, scheme):
    """Dixmier log-mean of the partial sums up to the reliable count."""
    return model.derived(("pairing dixmier", _chain_key(c), scheme), lambda:
                         dixmier_logmean(_pairing_series(c, model), scheme,
                                         n_max=model.reliable_count - 1))


# -- identity checks ---------------------------------------------------------------


def bob_identity_check(c, model):
    """Interior norm of 2 W_0(c) - [F, F W_0(c)] - (-1)^{q-1} ch(c)."""
    q = c.degree
    w0 = w_subset(c, model, frozenset())
    chm = ch_op(c, model)
    F_int = model.compress(model.F)
    resid = (2.0 * w0) - commutator(F_int, F_int @ w0) - ((-1.0) ** (q - 1)) * chm
    return {"residual_norm": float(resid.norm_bound())}


def appendix_identity_checks(a1, a2, model):
    """The two coboundary-kernel identities for delta^2 and [F, delta(.)].

    Checks, on the compressed interior,

        delta^2(a1 a2) = a1 delta^2(a2) + delta^2(a1) a2 + 2 delta(a1) delta(a2)
        [F, delta(a1 a2)] = a1 [F, delta(a2)] + [F, delta(a1)] a2
                            + [F, a1] delta(a2) + delta(a1) [F, a2]
    """
    A1 = model.realize(a1)
    A2 = model.realize(a2)
    A12 = model.realize(a1 * a2)
    dd = lambda X: commutator(model.absD, X)
    fc = lambda X: commutator(model.F, X)
    d1, d2 = dd(A1), dd(A2)
    first = dd(dd(A12)) - (A1 @ dd(d2)) - (dd(d1) @ A2) - 2.0 * (d1 @ d2)
    second = (fc(dd(A12)) - (A1 @ fc(d2)) - (fc(d1) @ A2)
              - (fc(A1) @ d2) - (d1 @ fc(A2)))
    return {"delta_square_residual": float(model.interior_norm(first)),
            "f_delta_residual": float(model.interior_norm(second))}


# -- asymptotic checks ---------------------------------------------------------------


def _interior_inverse_powers(double):
    """(|D0|^{-p}, D0^{-1}, max |D0|, |D0|^{-1}) on the interior of the
    invertible double, built once.  At p = 1 the first is the last, one
    array: ``x ** -1.0`` is numpy's reciprocal, ``1.0 / x`` bit for bit.
    |D0| itself is not kept, only its largest entry, a float."""
    def build():
        absD0_int = double.compress(double.absD)
        F_int = double.compress(double.F)
        p = double.p
        abs_inv = hermitian_calculus(absD0_int, lambda x: 1.0 / x,
                                     label="|D0|^-1")
        abs_inv_p = abs_inv if p == 1 else hermitian_calculus(
            absD0_int, lambda x: x ** (-float(p)), label="|D0|^-p")
        d_max = float(np.max(absD0_int.diag().real))  # |D0| >= 1
        # D0^{-1} = |D0|^{-1} F
        return abs_inv_p, abs_inv @ F_int, d_max, abs_inv
    return double.derived(("inverse_powers",), build)


# the reduction difference's fitted log-slope must stay within this
_REDUCTION_Z_TOL = 0.1


def reduction_partial_sum_check(c, model):
    """Partial sums of Omega(c)|D0|^{-p} - p W_p(c) D0^{-1} must stay bounded.

    Runs on the invertible double, for a cycle c of degree p; the fitted
    log-slope must be negligible (|z| <= ``_REDUCTION_Z_TOL``) and the fit
    residual at most half of 1 + the largest sampled |partial sum|, the
    finite surrogate for membership in the commutator subspace.  Returns
    the log ``fit``, that largest modulus ``sum_sup`` and the two ``gates``.
    """
    _require_top_cycle(c, model, "reduction_partial_sum_check")
    double = invertible_double(model)
    p = double.p
    omega_int = omega(c, double)
    wp = w_subset(c, double, frozenset({p}))
    abs_inv_p, d0_inv, _, _ = _interior_inverse_powers(double)
    diff = (omega_int @ abs_inv_p) - float(p) * (wp @ d0_inv)
    series = eigenvalue_partial_sums(diff)
    fit = log_fit(series, window=double.fit_window())
    sum_sup = float(np.max(np.abs(series.at(fit.grid))))
    return {"fit": fit, "sum_sup": sum_sup,
            "gates": [Gate("abs(z)", abs(fit.z), _REDUCTION_Z_TOL),
                      Gate("residual_sup", fit.residual_sup,
                           0.5 * (1.0 + sum_sup))]}


def _heat_floor(double):
    """Smallest s at which exp(-(s |D0|)^{p+1}) is at most exp(-8) at the top
    of the interior spectrum, which keeps the heat weight inside the
    truncation."""
    d_max = _interior_inverse_powers(double)[2]
    return (8.0 ** (1.0 / (double.p + 1))) / d_max


def default_s_grid(double):
    """Geometric s-grid at ratio 2^{1/4} from the resolution floor up to 0.125."""
    s_min, s_max = _heat_floor(double), 0.125
    if s_min >= s_max:
        raise ContractViolation(
            f"heat s-window empty: floor {s_min:.3g} above ceiling {s_max:.3g}"
        )
    pts = []
    s = s_max
    while s >= s_min:
        pts.append(s)
        s /= 2.0 ** 0.25
    return np.asarray(sorted(pts))


def heat_cycle_trace(c, model):
    """g(s) = Tr(W_p(c) D0^{-1} exp(-(s |D0|)^{p+1})) for a cycle c of degree
    p, fitted against log(1/s) on :func:`default_s_grid`.

    The fitted slope estimates Ch(c).  g is the heat sum of V = |D0|^{-1}
    (interior |D0| >= 1, so no zero is divided) at n = 1/s with the exponent
    -(p+1): exp(-(s |D0|)^{p+1}) = exp(-(n V)^{-(p+1)}).
    """
    _require_top_cycle(c, model, "heat_cycle_trace")
    double = invertible_double(model)
    p = double.p
    wp = w_subset(c, double, frozenset({p}))
    _, d0_inv, _, abs_inv = _interior_inverse_powers(double)
    X = wp @ d0_inv
    s_grid = default_s_grid(double)
    if s_grid.size < 3:
        raise ContractViolation("heat_cycle_trace needs >= 3 usable s points")
    v, xdiag = _sorted_spectrum(abs_inv.diag().real, X.diag())
    values = _heat_sums(v, xdiag, 1.0 / s_grid, -(p + 1)).astype(complex)
    x = np.log(1.0 / s_grid)
    coef, resid = _least_squares([x, np.ones_like(x)], values)
    return {
        "s": s_grid.tolist(),
        "values": values.tolist(),
        "z": complex(coef[0]),
        "intercept": complex(coef[1]),
        "residual_sup": resid,
    }


# a nonzero Ch(c) must be matched within the relative gap; a vanishing
# pairing needs |Ch(c)| and the spectral slope below the other two (their
# finite versions are exact trace identities, so these are tight)
_CHARACTER_REL_TOL = 0.15
_VANISHING_CH_TOL = 1e-8
_VANISHING_Z_TOL = 0.05


def main_theorem_check(c, model):
    """Compare Ch(c) with the spectral and heat estimates of the pairing.

    For a chain whose degree parity matches the triple, checks that the
    partial-sum slope of Omega(c)(1+D^2)^{-q/2} and the heat-functional
    slope both reproduce Ch(c).  For a parity-mismatched cycle both Ch(c)
    and the slope must vanish.

    Returns the ``mode``, the value ``chern`` of Ch(c), the log ``fit`` of
    the partial sums and the ``gates``; in the ``character`` mode also the
    ``heat`` estimate, and the ``branch`` and ``ideal`` diagnostics of the
    weight that the measurability criterion read.
    """
    if not is_cycle(c):
        raise ContractViolation("main_theorem_check requires a cycle")
    ch = chern(c, model).value
    verdict = _pairing_verdict(c, model)
    vanishing = [Gate("abs(chern)", abs(ch), _VANISHING_CH_TOL),
                 Gate("abs(z_spec)", abs(verdict.z), _VANISHING_Z_TOL)]
    report = {"chern": ch, "fit": verdict.fit}
    if (c.degree % 2 == 0) != (model.parity == "even"):
        return dict(report, mode="parity_vanishing", gates=vanishing)
    mu = _weight_singular_values(model, c.degree)
    ideal = _weight_diagnostics(model, c.degree)
    heat = _pairing_heat(c, model)
    branch, budget = _criterion(mu, ideal.fitted_decay_exponent, heat,
                                verdict.fit)
    tol_abs = _CHARACTER_REL_TOL * abs(ch)
    # a degenerate pairing (e.g. the diagonal toy model) vanishes, 0 = 0;
    # else the verdict is measurable (a fit within its residual bound, a
    # slope at or above its floor) and both slopes match Ch(c)
    gates = vanishing if abs(ch) <= _VANISHING_CH_TOL else [
        Gate("residual_sup", verdict.fit.residual_sup, verdict.tol),
        Gate("-abs(z_spec)", -abs(verdict.z), -verdict.z_tol),
        Gate("gap_spec", abs(verdict.z - ch), tol_abs),
        Gate("gap_heat", abs(heat.z - ch), max(tol_abs, budget.bound))]
    return dict(report, mode="character", heat=heat, branch=branch,
                ideal=ideal, gates=gates + [budget])


# -- serialization ----------------------------------------------------------------


def _json_int(value):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ContractViolation(f"expected an integer, got {value!r}")
    return value


# largest |lambda_pow| of a chain read from JSON: beyond 2**53 the phase
# exp(2 pi i theta m) would be taken at float(m), a different integer
_LAMBDA_POW_MAX = 2 ** 53


def chain_from_json(model, payload):
    """The chain ``{"degree": q, "terms": [{"coeff": [re, im], "lambda_pow":
    m, "tensor": [word, ...]}, ...]}`` on ``model`` (``lambda_pow`` 0 when
    left out), from its decoded JSON ``payload``.  A malformed payload (a
    non-``int`` exponent or degree among them) is a
    :class:`ContractViolation`."""
    try:
        degree = _json_int(payload["degree"])
        terms = {}
        for term in payload["terms"]:
            words = tuple(tuple(_json_int(e) for e in w) for w in term["tensor"])
            if any(len(w) != model.word_rank for w in words):
                raise ContractViolation(
                    f"a word on {model.name} needs {model.word_rank} exponents")
            m = _json_int(term.get("lambda_pow", 0))
            if abs(m) > _LAMBDA_POW_MAX:
                raise ContractViolation(
                    "lambda_pow must lie in [-2**53, 2**53]")
            re, im = term["coeff"]
            coeff = complex(re, im)
            if not (math.isfinite(coeff.real) and math.isfinite(coeff.imag)):
                raise ContractViolation(f"coefficient {coeff} is not finite")
            terms[(words, m)] = terms.get((words, m), 0j) + coeff
    except ContractViolation:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ContractViolation(f"malformed chain: {exc!r}") from exc
    if degree < 1:
        raise ContractViolation(f"chain degree must be >= 1, got {degree}")
    return Chain(model, degree, terms)
