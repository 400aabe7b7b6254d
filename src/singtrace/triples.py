"""Finite-truncation spectral triple models.

Three concrete models are provided:

* ``circle``    -- Fourier modes k in [-(N+B), N+B], D = diag(k), algebra
                   generated by the bilateral shift u; p = 1, odd.
* ``nc_torus``  -- Z^2 modes with a 2-dimensional spinor factor, algebra
                   generated by the twisted shifts U, V with VU = lam UV,
                   lam = exp(2 pi i theta); p = 2, even, Gamma = diag(1,-1).
* ``toy``       -- one-sided diagonal model D = diag((k+1)^{1/p}) with a
                   commutative diagonal algebra, so every derivation [D, a]
                   vanishes; degenerate cross-check for any p.

Algebra elements are kept symbolic: finitely supported combinations of
lattice words, with twist phases tracked as exact integer powers of lam.
Realization maps a word to an Operator on the working dimension N + B per
axis, one diagonal run written in closed form (a toy word to its diagonal,
as a 1-d array);
spectral statistics are read only from the compressed interior (modes up
to N), which keeps shift-truncation artifacts out of the asymptotics.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from .ideals import ideal_diagnostics, quasi_norm_pinf
from .operators import (
    ContractViolation,
    Operator,
    _from_runs,
    _trimmed,
    commutator,
    hermitian_calculus,
    phase_modulus,
    singular_values,
    zero,
)

__all__ = [
    "AlgebraElement",
    "SpectralTripleModel",
    "build_circle",
    "build_nc_torus",
    "build_diagonal_toy",
    "build_model",
    "partial_d",
    "delta",
    "invertible_double",
    "summability_report",
    "resolvent_weight",
]

DEFAULT_THETA = math.sqrt(0.5)  # 1/sqrt(2) mod 1, irrational at double precision


class AlgebraElement:
    """Finitely supported word combination: sum of coeff * lam^m * w(exponents).

    ``terms`` maps (word, lam_power) -> complex coefficient, where ``word``
    is a tuple of lattice exponents and ``lam_power`` an exact integer power
    of the model twist.  All products are symbolic; nothing here touches
    floating-point phase evaluation until
    :meth:`SpectralTripleModel.realize`.
    """

    __slots__ = ("model", "terms")

    def __init__(self, model, terms):
        self.model = model
        clean = {}
        for key, coeff in terms.items():
            if coeff != 0:
                clean[key] = clean.get(key, 0j) + coeff
        self.terms = {k: v for k, v in clean.items() if v != 0}

    @property
    def model_id(self):
        return self.model.model_id

    def is_zero(self):
        return not self.terms

    def _check(self, other):
        if self.model is not other.model:
            raise ContractViolation("algebra elements from different models")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, 0j) + coeff
        return AlgebraElement(self.model, out)

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return AlgebraElement(
            self.model, {k: scalar * v for k, v in self.terms.items()}
        )

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return AlgebraElement(
                self.model, {k: other * v for k, v in self.terms.items()}
            )
        self._check(other)
        out = {}
        for (w1, m1), c1 in self.terms.items():
            for (w2, m2), c2 in other.terms.items():
                word, dm = self.model.mul_words(w1, w2)
                key = (word, m1 + m2 + dm)
                out[key] = out.get(key, 0j) + c1 * c2
        return AlgebraElement(self.model, out)

    def adjoint(self):
        out = {}
        for (word, m), coeff in self.terms.items():
            new_word, dm = self.model.adjoint_word(word)
            key = (new_word, -m + dm)
            out[key] = out.get(key, 0j) + np.conj(coeff)
        return AlgebraElement(self.model, out)

    def __eq__(self, other):
        return (isinstance(other, AlgebraElement)
                and self.model is other.model
                and self.terms == other.terms)

    def __hash__(self):
        return hash((id(self.model), tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement(0)"
        bits = []
        for (word, m), coeff in sorted(self.terms.items()):
            lam = f"*lam^{m}" if m else ""
            bits.append(f"{coeff:.3g}{lam}*{self.model.word_label(word)}")
        return "AlgebraElement(" + " + ".join(bits) + ")"


class SpectralTripleModel:
    """A truncated spectral triple: basis geometry, D, F, |D|, grading."""

    _prefix = ()  # of its memo keys; the invertible double's is ("double",)

    def __init__(self, name, N, B, p, parity, theta):
        self.name = name
        self.N = int(N)
        self.B = int(B)
        self.p = int(p)
        self.parity = parity
        self.theta = float(theta)
        self.metadata = {}
        self._word_cache = {}
        # everything derived from the model (chain maps, weights, pairing
        # estimates, the invertible double and, under keys that begin with
        # "double", the double's own entries), shared by the checks of a
        # run until the last one that reads it
        self._memo = {}
        self.D = None
        self.F = None
        self.absD = None
        self.Gamma = None
        self.dim = 0
        self._interior = None  # the interior indices; None on the toy
        self.reliable_count = 0

    # -- word algebra hooks (overridden per geometry) -------------------------

    def mul_words(self, w1, w2):
        raise NotImplementedError

    def adjoint_word(self, word):
        raise NotImplementedError

    def word_label(self, word):
        raise NotImplementedError

    def word_band(self, word):
        """Lattice bandwidth of the realized word (0 for diagonal words)."""
        return max((abs(e) for e in word), default=0)

    def _realize_word(self, word):
        raise NotImplementedError

    def interior_at(self, radius):
        """The basis indices, ascending, of the modes within ``radius``; at
        N these are the interior."""
        raise NotImplementedError

    def derived(self, key, build):
        """``build()``, computed once per model and key.

        A build may ask for other keys.  A failed build stores nothing, and
        the next call builds again.  Every caller gets the same object,
        which none may modify.  An entry stays until :meth:`release` drops
        it: ``harness.run`` does so after the last check that can read it,
        and a request after that builds it again.  The invertible double
        stores its entries in its model's memo, under ``("double",) + key``.
        """
        key = self._prefix + key
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def release(self, reads, needs):
        """Drop every memo entry that no later request can read.

        ``reads`` are the keys that the readers still to come request, and
        ``needs(key)`` the keys that the build of the entry at ``key``
        requests.  An entry that is built is read itself, and one that is
        not is reached through what its build requests, so what is already
        built decides what stays: once the pairing series exists, the
        Omega(c) it was built from is dead unless another reader requests
        it.  An entry of the invertible double is read through the double,
        so it keeps ``("double",)``.  A release never causes a second build,
        as long as ``reads`` and ``needs`` list every request.
        """
        live, todo = set(), list(reads)
        while todo:
            key = todo.pop()
            if key in live:
                continue
            live.add(key)
            if key[0] == "double" and len(key) > 1:
                todo.append(("double",))
            if key not in self._memo:
                todo.extend(needs(key))
        for key in [key for key in self._memo if key not in live]:
            del self._memo[key]

    @property
    def model_id(self):
        return f"{self.name}(N={self.N},B={self.B},theta={self.theta!r})"

    @property
    def interior(self):
        """The interior basis indices, ascending.  The toy, whose interior is
        its whole basis, keeps no index array: each read builds it."""
        if self._interior is None:
            return np.arange(self.dim)
        return self._interior

    @property
    def interior_dim(self):
        return self.dim if self._interior is None else int(self._interior.size)

    def eval_phase(self, m):
        if m == 0:
            return 1.0 + 0.0j
        return np.exp(2j * np.pi * self.theta * m)

    def monomial(self, word, coeff=1.0):
        word = tuple(int(e) for e in word)
        if len(word) != self.word_rank:
            raise ContractViolation(
                f"word {word} on {self.name} needs {self.word_rank} exponents")
        return AlgebraElement(self, {(word, 0): complex(coeff)})

    def generators(self):
        raise NotImplementedError

    def word_inverse(self, word, lam_power=0):
        """Inverse of a unitary monomial coeff=1: lam^-m * w^-1 with twist fix."""
        inv_word, dm = self.adjoint_word(word)
        return (inv_word, -lam_power + dm)

    # -- realization ------------------------------------------------------------

    def realize_word(self, word):
        word = tuple(int(e) for e in word)
        if self.word_band(word) > self.B:
            raise ContractViolation(
                f"word {self.word_label(word)} exceeds buffer B={self.B}"
            )
        cached = self._word_cache.get(word)
        if cached is None:
            cached = self._realize_word(word)
            self._word_cache[word] = cached
        return cached

    def factor(self, kind, word):
        """realize(word) for kind "id", else [b, realize(word)] with b = D, |D|, F
        for kind "D", "delta", "F", formed on each call; only the realized
        word is kept (see :meth:`realize_word`).

        A word of band 0 is diagonal, so against a diagonal b its commutator
        is the exact zero, built without realizing the word.
        """
        if kind != "id":
            b = {"D": self.D, "delta": self.absD, "F": self.F}[kind]
            if b.kind == "diag" and self.word_band(word) == 0:
                return zero(self.dim)
        op = Operator(self.realize_word(word), label=self.word_label(word))
        return op if kind == "id" else commutator(b, op)

    def realize(self, a):
        """Realize an algebra element as a working-dimension Operator."""
        if a.is_zero():
            return zero(self.dim).relabel("0")
        acc = None
        for (word, m), coeff in sorted(a.terms.items()):
            piece = self.realize_word(word) * (coeff * self.eval_phase(m))
            acc = piece if acc is None else acc + piece
        return Operator(acc, label=repr(a)[:60])

    def compress(self, op):
        """Restrict to the interior modes (|mode| <= N on every axis).

        Where the interior is the whole basis (the toy) this is ``op``
        itself: operators are immutable, so nothing is copied."""
        if self.interior_dim == self.dim:
            return op
        return op.restrict(self._interior)

    def interior_norm(self, op):
        """An upper bound on the 2-norm of ``op`` compressed to the interior."""
        return self.compress(op).norm_bound()

    def fit_window(self):
        """Index window for partial-sum fits on this model's interior spectra.

        Lower edge sqrt(M); upper edge capped at ``reliable_count``, the
        number of eigenvalues unaffected by the shape of the mode cutoff.
        """
        M = self.interior_dim
        root = int(math.ceil(math.sqrt(M)))
        hi = min(self.reliable_count, M - root - 1)
        return root, max(hi, root + 8)

    def descriptor(self):
        return {
            "name": self.name,
            "N": self.N,
            "B": self.B,
            "p": self.p,
            "parity": self.parity,
            "theta": self.theta,
            "working_dim": self.dim,
            "interior_dim": self.interior_dim,
            "reliable_count": self.reliable_count,
            "conventions": dict(self.metadata),
        }

    def descriptor_json(self):
        return json.dumps(self.descriptor(), indent=2, sort_keys=True)

    def __repr__(self):
        return (f"SpectralTripleModel({self.name!r}, N={self.N}, B={self.B}, "
                f"p={self.p}, {self.parity}, dim={self.dim})")


class _RankOneModel(SpectralTripleModel):
    """A model whose algebra has one unitary generator, named ``letter``:
    a word is one integer exponent, and words multiply commutatively."""

    word_rank = 1

    def mul_words(self, w1, w2):
        return ((w1[0] + w2[0],), 0)

    def adjoint_word(self, word):
        return ((-word[0],), 0)

    def word_label(self, word):
        return f"{self.letter}^{word[0]}"

    def generators(self):
        return {self.letter: self.monomial((1,))}


class _CircleModel(_RankOneModel):
    letter = "u"

    def interior_at(self, radius):
        return np.flatnonzero(np.abs(self.modes) <= radius)

    def _realize_word(self, word):
        # u^k: row i holds 1 in column i - k, for the M - |k| rows from
        # max(k, 0); the ones are a read-only view of one 1 + 0j, stride 0
        M, k = self.dim, word[0]
        if abs(k) >= M:
            return zero(M)
        ones = np.broadcast_to(np.ones(1, dtype=complex), (M - abs(k),))
        return _from_runs(M, [(-k, max(k, 0), ones)])


class _ToyModel(_RankOneModel):
    letter = "w"

    def word_band(self, word):
        return 0  # every toy word is diagonal

    def interior_at(self, radius):
        return np.arange(min(radius, self.dim))

    def _realize_word(self, word):
        k = np.arange(self.dim)
        return np.exp(2j * np.pi * word[0] * k / self.dim)  # the diagonal


class _TorusModel(SpectralTripleModel):
    word_rank = 2

    def mul_words(self, w1, w2):
        a1, b1 = w1
        a2, b2 = w2
        return ((a1 + a2, b1 + b2), b1 * a2)

    def adjoint_word(self, word):
        a, b = word
        return ((-a, -b), a * b)

    def word_label(self, word):
        return f"U^{word[0]}V^{word[1]}"

    def generators(self):
        return {"U": self.monomial((1, 0)), "V": self.monomial((0, 1))}

    def interior_at(self, radius):
        n1, n2 = self.lattice
        inside = (np.abs(n1) <= radius) & (np.abs(n2) <= radius)
        return np.flatnonzero(np.concatenate([inside, inside]))

    def _realize_word(self, word):
        """U^a V^b on both spinor halves:
        e_n -> exp(2 pi i theta b n1) e_{n+(a,b)}.

        One run of offset -(a L + b), L = 2R + 1 the lattice side: the row
        of each target n (index (n1 + R) L + n2 + R on each half) holds the
        phase of its source column n1 - a where the source n - (a, b) lies
        in the lattice, and 0 elsewhere; it spans both halves, from the
        upper half's first such row to the lower half's last."""
        a, b = word
        R = self.N + self.B
        L = 2 * R + 1
        half = L * L
        # the targets' indices n_j + R whose sources lie in the lattice
        i1 = slice(max(a, 0), L + min(a, 0))
        i2 = slice(max(b, 0), L + min(b, 0))
        if i1.start >= i1.stop or i2.start >= i2.stop:
            return zero(2 * half)
        # the phase of each source column n1 - a, times the (1+0j) of the
        # spinor identity factor
        phase = np.ones(L, dtype=complex) * np.exp(
            2j * np.pi * self.theta * b * np.arange(-R, R + 1))
        grid = np.zeros((2, L, L), dtype=complex)
        grid[:, i1, i2] = phase[i1.start - a:i1.stop - a, None]
        first = i1.start * L + i2.start
        end = half + (i1.stop - 1) * L + i2.stop
        return _from_runs(2 * half,
                          [(-(a * L + b), first, grid.reshape(-1)[first:end])])


def build_circle(N, buffer=None):
    """Circle model: D = diag(k) over Fourier modes, shift algebra, p=1 odd."""
    if N < 8:
        raise ContractViolation("build_circle requires N >= 8")
    B = int(buffer) if buffer is not None else 8
    model = _CircleModel("circle", N, B, p=1, parity="odd", theta=0.0)
    R = N + B
    modes = np.arange(-R, R + 1)
    model.dim = modes.size
    model.modes = modes
    model.D = Operator(modes.astype(float), label="D", hermitian=True)
    model.F, model.absD = phase_modulus(model.D)
    model.Gamma = None
    model._interior = model.interior_at(N)
    model.reliable_count = model.interior_dim
    model.metadata = {"sign0": "+1", "basis": "fourier modes -R..R"}
    return model


def _spinor_offdiag(x, label):
    """The operator [[0, diag(x)], [diag(x)*, 0]] on the two spinor halves:
    the run of offset +half holds x itself and that of -half conj(x), whose
    zeros (no entry; the torus's w has one, at n = 0) are +0, as x's are,
    not the -0 imaginary part that conj gives them."""
    half = x.size
    lower = np.conj(x)
    lower[x == 0] = 0
    return _from_runs(2 * half, [_trimmed(half, 0, x),
                                 _trimmed(-half, half, lower)], label)


def build_nc_torus(N, theta=None, buffer=None):
    """Noncommutative-torus model: twisted Z^2 shifts, spinor-doubled, p=2 even."""
    if N < 8:
        raise ContractViolation("build_nc_torus requires N >= 8")
    theta = DEFAULT_THETA if theta is None else float(theta)
    B = int(buffer) if buffer is not None else 4
    model = _TorusModel("nc_torus", N, B, p=2, parity="even", theta=theta)
    R = N + B
    L = 2 * R + 1
    n1 = np.repeat(np.arange(-R, R + 1), L)
    n2 = np.tile(np.arange(-R, R + 1), L)
    model.dim = 2 * L * L
    model.lattice = (n1, n2)
    w = 1j * n1 - n2  # upper spinor block of D: d1 + i*d2 with d_j = diag(i n_j)
    model.D = _spinor_offdiag(w, "D")
    # polar data in closed form: |D| = diag(|w|, |w|) and F = offdiag(w/|w|).
    # On ker D, F|D| = D leaves the phase free; the spinor swap (w/|w| := 1)
    # keeps {Gamma, F} = 0 exact, which the character identities need.
    modulus = np.abs(w)
    model.absD = Operator(np.concatenate([modulus, modulus]), label="|D|",
                          hermitian=True)
    unit = np.divide(w, modulus, out=np.ones(w.size, dtype=complex),
                     where=modulus > 0)
    model.F = _spinor_offdiag(unit, "F")
    gamma = np.concatenate([np.ones(L * L), -np.ones(L * L)])
    model.Gamma = Operator(gamma, label="Gamma", hermitian=True)
    model._interior = model.interior_at(N)
    model.reliable_count = 2 * int(np.count_nonzero(n1 ** 2 + n2 ** 2 <= N * N))
    model.metadata = {
        "sign0": "spinor swap on ker D",
        "spinor_block": "upper = d1 + i*d2",
        "tau": "i",
        "twist": "V U = exp(2 pi i theta) U V",
    }
    return model


def build_diagonal_toy(N, decay_exponent=1):
    """Diagonal toy model: D = diag((k+1)^{1/p}), commutative diagonal algebra."""
    p = decay_exponent
    if isinstance(p, bool) or not isinstance(p, (int, np.integer)) or p < 1:
        raise ContractViolation(
            f"build_diagonal_toy requires an integer p >= 1, got {p!r}")
    p = int(p)
    # the smallest N at which every check runs at p = 1: below it the heat
    # check's s-window holds fewer than 3 points
    if N < 32:
        raise ContractViolation("build_diagonal_toy requires N >= 32")
    model = _ToyModel("toy", N, 0, p=p, parity="odd", theta=0.0)
    model.dim = int(N)
    k = np.arange(N, dtype=float)
    model.D = Operator((k + 1.0) ** (1.0 / p), label="D", hermitian=True)
    model.F, model.absD = phase_modulus(model.D)
    model.Gamma = None
    model.reliable_count = int(N)
    model.metadata = {"sign0": "+1", "decay_exponent": p}
    return model


def build_model(name, N, theta=None, p=None, buffer=None):
    """Build a model from its registry name."""
    if name == "circle":
        return build_circle(N, buffer=buffer)
    if name == "nc_torus":
        return build_nc_torus(N, theta=theta, buffer=buffer)
    if name == "toy":
        return build_diagonal_toy(N, decay_exponent=1 if p is None else p)
    raise ContractViolation(f"unknown model {name!r}")


def partial_d(a, model):
    """The derivation [D, a] on the working dimension."""
    return commutator(model.D, model.realize(a))


def delta(a, model):
    """The derivation [|D|, a] on the working dimension."""
    return commutator(model.absD, model.realize(a))


def invertible_double(model):
    """The model with D replaced by the invertible D0 = F (1 + D^2)^{1/2}.

    D1 = D0 - D equals F (|D| + (1+|D|^2)^{1/2})^{-1} (checked to 1e-10) and
    lies in L_{p,inf}.  On the even torus Gamma anticommutes with F (the
    spinor swap on ker D included) and commutes with D^2, so {Gamma, D0} = 0
    exactly.  The double is a shallow copy of the model with its own D0,
    |D0| = (1 + D^2)^{1/2}, name and metadata: it shares the geometry, the
    realized words, the phase F and the grading, and it keeps what it
    derives in the model's memo, under keys that begin with "double".
    Built once per model.
    """
    return model.derived(("double",), lambda: _build_double(model))


def _build_double(model):
    root = hermitian_calculus(model.D @ model.D, lambda x: np.sqrt(x + 1.0),
                              label="(1+D^2)^{1/2}")
    D0 = model.F @ root
    D1 = D0 - model.D
    closed = model.F @ hermitian_calculus(
        model.absD, lambda x: 1.0 / (x + np.sqrt(1.0 + x * x)),
        label="(|D|+(1+|D|^2)^{1/2})^{-1}")
    gap = (D1 - closed).norm_bound()
    scale = 1.0 + D1.norm_bound()
    if gap > 1e-10 * scale:
        raise ContractViolation(
            f"invertible double closed form violated: residual {gap:.3e}")
    double = copy.copy(model)
    double.name = model.name + "+double"
    double.metadata = dict(model.metadata, double_of=model.model_id)
    double._prefix = model._prefix + ("double",)
    double.D, double.absD = D0.relabel("D0"), root
    return double


def resolvent_weight(model, q):
    """(1 + D^2)^{-q/2} for the summability exponent q."""
    return hermitian_calculus(model.D @ model.D,
                              lambda x: (x + 1.0) ** (-q / 2.0),
                              label=f"(1+D^2)^(-{q}/2)")


def _interior_weight(model, q):
    """The compressed weight (1 + D^2)^{-q/2}, built once per model and q."""
    return model.derived(("weight", q),
                         lambda: model.compress(resolvent_weight(model, q)))


def _weight_singular_values(model, q):
    """Singular values of the compressed weight, built once per model and q."""
    return model.derived(("weight_mu", q),
                         lambda: singular_values(_interior_weight(model, q)))


def _weight_diagnostics(model, q):
    """:func:`ideal_diagnostics` of the compressed weight's singular values,
    built once per model and q."""
    return model.derived(("weight_ideal", q), lambda: ideal_diagnostics(
        _weight_singular_values(model, q)))


def summability_report(model):
    """The ideal diagnostics of (1+D^2)^{-p/2} (the model's memo entry) and
    the L_{p,inf} quasi-norms of the generator F-commutators, by name."""
    diag = _weight_diagnostics(model, model.p)
    gen_norms = {}
    for name, g in model.generators().items():
        ((word, _),) = g.terms  # a generator is one unit monomial
        fg = model.compress(model.factor("F", word))
        fdg = model.compress(commutator(model.F, model.factor("delta", word)))
        gen_norms[f"[F,{name}]"] = quasi_norm_pinf(
            singular_values(fg), model.p)
        gen_norms[f"[F,delta({name})]"] = quasi_norm_pinf(
            singular_values(fdg), model.p)
    return diag, gen_norms
