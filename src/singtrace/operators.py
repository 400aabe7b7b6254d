"""Diagonal/sparse complex operator core.

Everything downstream (ideal diagnostics, trace estimators, spectral-triple
models) works with the :class:`Operator` wrapper defined here.  An operator
stores its matrix in one of two backends:

* ``diag``   -- 1-d array of diagonal entries (fast path, scales to 1e6),
* ``sparse`` -- scipy CSR (used by the truncated triple realizations, for
  any 2-d array input that is not exactly diagonal, and for an exact zero,
  which is stored as an empty CSR matrix).

Both behave identically under the algebraic operations; the backend is an
optimisation detail, never a semantic one.  Spectra are computed with
LAPACK, after an exact permutation split of the matrix into connected
components of its nonzero pattern (a similarity transform, so eigenvalues
are preserved exactly; the components are labelled by numpy alone, see
:func:`_component_labels`).  Components of equal size are stacked into one
(g, s, s) array and solved with one batched LAPACK call per size.  The
functional calculus and the polar data take hermitian diagonal operators
only: every model's D, |D| and F and every function of them are diagonal
or built in closed form, so f(T) is f on the diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Operator",
    "Spectrum",
    "SingularSequence",
    "OperatorError",
    "FactorizationError",
    "ContractViolation",
    "DomainError",
    "eigenvalues",
    "singular_values",
    "hermitian_calculus",
    "phase_modulus",
    "commutator",
    "anticommutator",
    "canonical_order",
    "identity",
]

HERMITIAN_RTOL = 1e-12
# below this dimension a pattern split costs more than it saves
_SPLIT_MIN_DIM = 64


class OperatorError(Exception):
    """Base class for operator-level failures."""


class FactorizationError(OperatorError):
    """An eigen/Schur factorization did not converge.

    Carries the operator label and a crude condition estimate so failed
    experiments are diagnosable from logs alone.
    """

    def __init__(self, label, condition_estimate, message=""):
        self.label = label
        self.condition_estimate = condition_estimate
        super().__init__(
            f"factorization failed for operator {label!r} "
            f"(condition estimate {condition_estimate:.3e}) {message}"
        )


class ContractViolation(OperatorError, ValueError):
    """An input violated a documented precondition (hermitian, psd, dims)."""


class DomainError(OperatorError, ValueError):
    """A scalar function was evaluated outside its domain."""


def canonical_order(values):
    """Sort eigenvalues by non-increasing modulus.

    Ties (exactly equal moduli) are broken by descending real part, then
    descending imaginary part, so the output is a deterministic total order.
    With no nonzero imaginary part the modulus is |re| exactly, and the last
    key ties everywhere, so two real keys give the same order.  Input that
    is already in this order is returned itself, as the stable sort would
    leave it; anything else (a NaN included) is a sorted copy.
    """
    values = np.asarray(values)
    if values.imag.any():
        keys = (values.imag, values.real, np.abs(values))
    else:
        keys = (values.real, np.abs(values.real))
    if _non_increasing(keys):
        return values
    return values[np.lexsort(tuple(-k for k in keys))]


def _non_increasing(keys):
    """Whether the rows are in non-increasing lexicographic order of
    ``keys``, the last key first (as in :func:`np.lexsort`)."""
    tied = None
    for key in reversed(keys):
        ahead, behind = key[:-1], key[1:]
        ok = ahead >= behind
        if not (ok.all() if tied is None else ok[tied].all()):
            return False
        tied = ahead == behind if tied is None else tied & (ahead == behind)
        if not tied.any():
            return True
    return True


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of an operator, in canonical order."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        object.__setattr__(self, "values", values)
        moduli = np.abs(values)
        if moduli.size and np.any(moduli[:-1] < moduli[1:] - 1e-30):
            raise ValueError("spectrum not ordered by non-increasing modulus")

    def __len__(self):
        return self.values.size

    @property
    def moduli(self):
        return np.abs(self.values)


@dataclass(frozen=True)
class SingularSequence:
    """Non-increasing sequence of singular values mu(k)."""

    mu: np.ndarray
    label: str = ""

    def __post_init__(self):
        mu = np.asarray(self.mu, dtype=float)
        object.__setattr__(self, "mu", mu)
        if mu.size:
            if mu.min() < -1e-13 * (1.0 + mu.max()):
                raise ValueError("negative singular value")
            if np.any(mu[:-1] < mu[1:] - 1e-13 * (1.0 + mu.max())):
                raise ValueError("singular values not non-increasing")

    def __len__(self):
        return self.mu.size


class Operator:
    """Immutable complex square operator with a hermitian flag.

    Parameters
    ----------
    data : array_like or scipy sparse matrix
        1-d array (interpreted as a diagonal), 2-d square array, or sparse
        matrix.  A 2-d array is stored as CSR; an exactly diagonal matrix,
        dense or sparse, is stored as its diagonal, unless it has no nonzero
        entry: an exact zero stays an empty CSR matrix.  A complex 1-d array,
        like a complex CSR matrix without explicit zeros, is wrapped without
        a copy, so it must not be modified afterwards.
    label : str
        Human-readable tag used in error messages and reports.
    hermitian : bool or None
        ``None`` leaves the :attr:`hermitian` flag to be detected on its
        first read; ``True`` is checked here and raises
        :class:`ContractViolation` when the matrix is not hermitian.
    """

    __slots__ = ("_kind", "_data", "label", "_hermitian")

    def __init__(self, data, label="", hermitian=None):
        if not sp.issparse(data):
            data = np.asarray(data)
            if data.ndim == 2:
                data = sp.csr_matrix(data)
            elif data.ndim != 1:
                raise ContractViolation("operator data must be 1-d or 2-d")
        if data.ndim == 1:
            self._kind, self._data = "diag", data.astype(complex, copy=False)
        else:
            mat = data.tocsr().astype(complex, copy=False)
            if not mat.data.all():
                mat = mat.copy()
                mat.eliminate_zeros()
            if mat.shape[0] != mat.shape[1]:
                raise ContractViolation(f"operator {label!r} is not square")
            diag = mat.diagonal() if mat.nnz else None
            if mat.nnz and mat.nnz == np.count_nonzero(diag):
                self._kind, self._data = "diag", diag
            else:
                self._kind, self._data = "sparse", mat
        self.label = label
        if hermitian and not self._detect_hermitian():
            raise ContractViolation(
                f"operator {label!r} flagged hermitian but is not (to 1e-12 relative)"
            )
        self._hermitian = None if hermitian is None else bool(hermitian)

    @property
    def hermitian(self):
        """Whether the operator is hermitian to 1e-12 relative.

        Detected on the first read and cached; a concurrent first read
        detects it twice and stores the same value.
        """
        if self._hermitian is None:
            self._hermitian = self._detect_hermitian()
        return self._hermitian

    def _detect_hermitian(self):
        if self._kind == "diag":
            d = self._data
            if not d.imag.any():  # real, NaN entries included
                return True
            scale = 1.0 + (np.abs(d).max() if d.size else 0.0)
            return bool(np.abs(d.imag).max(initial=0.0) <= HERMITIAN_RTOL * scale)
        a = self._data
        gap = a - a.conj().T
        scale = 1.0 + (np.abs(a.data).max() if a.nnz else 0.0)
        top = np.abs(gap.data).max() if gap.nnz else 0.0
        return bool(top <= HERMITIAN_RTOL * scale)

    # -- basic interface -------------------------------------------------------

    @property
    def dim(self):
        return self._data.shape[0] if self._kind != "diag" else self._data.size

    @property
    def kind(self):
        return self._kind

    def diag(self):
        """Diagonal entries (the full data for diagonal operators)."""
        if self._kind == "diag":
            return self._data
        return self._data.diagonal()

    def sparse(self):
        if self._kind == "sparse":
            return self._data
        return sp.diags(self._data, format="csr", dtype=complex)

    def norm_bound(self):
        """Cheap upper bound on the operator 2-norm, exact for a diagonal."""
        if self._kind == "diag":
            return float(np.abs(self._data).max(initial=0.0))
        a = self._data
        absa = sp.csr_matrix((np.abs(a.data), a.indices, a.indptr), shape=a.shape)
        one = absa.sum(axis=0).max() if a.nnz else 0.0
        inf = absa.sum(axis=1).max() if a.nnz else 0.0
        return float(np.sqrt(one * inf))

    def adjoint(self):
        data = self._data.conj()
        out = Operator(data if self._kind == "diag" else data.T.tocsr(),
                       label=f"{self.label}*")
        out._hermitian = self._hermitian
        return out

    def relabel(self, label):
        out = Operator.__new__(Operator)
        out._kind, out._data = self._kind, self._data
        out.label, out._hermitian = label, self._hermitian
        return out

    def restrict(self, indices):
        """Compression P T P* onto the given basis indices (in order).

        An exact zero (an empty CSR matrix) restricts to the empty CSR
        matrix of the new size without indexing."""
        indices = np.asarray(indices)
        if self._kind == "diag":
            return Operator(self._data[indices], label=self.label)
        if self._data.nnz == 0:
            n = indices.size
            return Operator(sp.csr_matrix((n, n), dtype=complex), label=self.label)
        return Operator(self._data[indices][:, indices], label=self.label)

    # -- arithmetic ------------------------------------------------------------

    def _check_dims(self, other):
        if self.dim != other.dim:
            raise ContractViolation(
                f"dimension mismatch: {self.label!r} is {self.dim}, "
                f"{other.label!r} is {other.dim}"
            )

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b = self, other
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data * b._data)
        if a._kind == "diag":
            return Operator(sp.csr_matrix(b._data.multiply(a._data[:, None])))
        if b._kind == "diag":
            return Operator(sp.csr_matrix(a._data.multiply(b._data[None, :])))
        return Operator(a._data @ b._data)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b = self, other
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data + b._data)
        return Operator(a.sparse() + b.sparse())

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        return Operator(self._data * scalar, label=self.label)

    def __mul__(self, scalar):
        return Operator(self._data * scalar, label=self.label)

    def __neg__(self):
        return (-1.0) * self

    def __repr__(self):
        flags = [self._kind]
        if self.hermitian:
            flags.append("hermitian")
        return f"Operator({self.label!r}, dim={self.dim}, {'/'.join(flags)})"


def identity(dim):
    return Operator(np.ones(dim, dtype=complex), label="1")


# -- block-split eigen engine --------------------------------------------------


def _component_labels(n, row, col):
    """Connected-component labels of the undirected graph on ``n`` nodes with
    edges (row[k], col[k]), numbered 0, 1, ... in order of first node.

    Every node points at a node of its component with no larger index, so
    the pointers form a forest.  Each pass hooks the larger root of every
    edge below the smaller one, then jumps pointers until each node points
    at its root; passes stop once every edge joins two nodes of one root,
    which is then the component's first node.
    """
    parent = np.arange(n)
    while True:
        a, b = parent[row], parent[col]
        if np.array_equal(a, b):
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    first = np.cumsum(parent == np.arange(n)) - 1
    return first[parent]


def _component_blocks(T):
    """Dense blocks of T on the connected components of its nonzero pattern.

    Components are grouped by size s, sizes in order of first appearance.
    Each group is the zero-filled (g, s, s) complex array of T's entries
    inside its g components (rows and columns in ascending basis index,
    components ordered by first index), scattered from one COO view of T.
    Below ``_SPLIT_MIN_DIM`` the whole basis is one component.
    """
    n = T.dim
    coo = T.sparse().tocoo()
    if n < _SPLIT_MIN_DIM:
        labels = np.zeros(n, dtype=np.intp)
    else:
        labels = _component_labels(n, coo.row, coo.col)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(n, dtype=np.intp)  # place of each index inside its component
    pos[order] = np.arange(n) - np.repeat(starts, sizes)
    row_label = labels[coo.row]
    row_size = sizes[row_label]
    slot = np.empty(sizes.size, dtype=np.intp)
    uniq, first = np.unique(sizes, return_index=True)
    groups = []
    for s in uniq[np.argsort(first)]:
        comps = np.flatnonzero(sizes == s)
        slot[comps] = np.arange(comps.size)
        mine = row_size == s
        flat = ((slot[row_label[mine]] * s + pos[coo.row[mine]]) * s
                + pos[coo.col[mine]])
        blocks = np.zeros(comps.size * s * s, dtype=complex)
        np.add.at(blocks, flat, coo.data[mine])  # sums duplicates, like toarray
        groups.append(blocks.reshape(comps.size, s, s))
    return groups


def _split_values(T, solve, single):
    """Values of a sparse T, component group by component group: ``solve``
    on each stacked (g, s, s) group and ``single`` on the g entries of the
    size-1 components, concatenated.  A LAPACK failure is a
    :class:`FactorizationError`."""
    try:
        parts = [single(b[:, 0, 0]) if b.shape[1] == 1 else solve(b).ravel()
                 for b in _component_blocks(T)]
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(T.label, _condition_estimate(T), str(exc)) from exc
    return np.concatenate(parts)


def _condition_estimate(T):
    top = T.norm_bound()
    if top == 0.0:
        return 0.0
    d = np.abs(T.diag())
    bottom = d[d > 0].min() if np.any(d > 0) else 0.0
    return float(top / bottom) if bottom else np.inf


# -- spectral operations -------------------------------------------------------


def eigenvalues(T):
    """All eigenvalues of ``T`` with algebraic multiplicity, canonical order.

    For a hermitian operator the imaginary parts are exactly zero (the
    hermitian LAPACK path is used).
    """
    herm = T.hermitian
    if T.kind == "diag":
        vals = T._data.real.astype(complex) if herm else T._data.copy()
    elif T._data.nnz == 0:
        vals = np.zeros(T.dim, dtype=complex)
    elif herm:
        vals = _split_values(T, np.linalg.eigvalsh,
                             lambda d: d.real.astype(complex))
    else:
        vals = _split_values(T, np.linalg.eigvals, lambda d: d)
    return Spectrum(canonical_order(vals), label=T.label)


def singular_values(T):
    """Singular values mu(k,T): eigenvalues of |T| in non-increasing order."""
    if T.kind == "diag":
        mu = np.sort(np.abs(T._data))[::-1]
        return SingularSequence(mu, label=T.label)
    if T._data.nnz == 0:
        return SingularSequence(np.zeros(T.dim), label=T.label)
    mu = _split_values(T, lambda b: np.linalg.svd(b, compute_uv=False), np.abs)
    return SingularSequence(np.sort(mu)[::-1], label=T.label)


def _real_diagonal(T, who):
    """The real diagonal entries of a hermitian diagonal T; any other T is a
    :class:`ContractViolation`."""
    if T.kind != "diag" or not T.hermitian:
        raise ContractViolation(
            f"{who} requires a hermitian diagonal operator, got {T.label!r}")
    return T._data.real


def _apply_scalar_function(f, w, label):
    # out-of-domain points surface as non-finite values, checked below
    with np.errstate(divide="ignore", invalid="ignore"):
        fw = np.asarray(f(w), dtype=complex)
    if fw.shape != w.shape:
        raise ContractViolation(
            f"function on the spectrum of {label!r} returned shape "
            f"{fw.shape}, not the spectrum's {w.shape}")
    bad = ~np.isfinite(fw)
    if bad.any():
        raise DomainError(f"function undefined at eigenvalue "
                          f"{w[np.argmax(bad)]!r} of operator {label!r}")
    return fw


def hermitian_calculus(T, f, label=None):
    """f(T) for a hermitian diagonal T: ``f`` maps the real diagonal entries.

    ``f`` is vectorized: it takes the array of entries and returns an array
    of the same shape.  Any other T, or a result of another shape, is a
    :class:`ContractViolation`; a non-finite value is a :class:`DomainError`.
    """
    w = _real_diagonal(T, "hermitian_calculus")
    label = label if label is not None else f"f({T.label})"
    return Operator(_apply_scalar_function(f, w, T.label), label=label)


def phase_modulus(D):
    """Polar data (F, |D|) of a hermitian diagonal D, with sign(0) := +1.

    On the real diagonal d, F = where(d >= 0, 1, -1) and |D| = |d|, so F is
    a self-adjoint unitary with F^2 = 1 and F |D| = D; kernel vectors of D
    receive +1.  Any other D is a :class:`ContractViolation`.
    """
    d = _real_diagonal(D, "phase_modulus")
    F = Operator(np.where(d >= 0.0, 1.0, -1.0), label=f"phase({D.label})",
                 hermitian=True)
    absD = Operator(np.abs(d), label=f"|{D.label}|", hermitian=True)
    return F, absD


def commutator(A, B):
    """[A, B] = AB - BA.

    Two diagonal factors commute, so their commutator is the exact zero,
    returned as an empty sparse operator.  With one factor diagonal and the
    other sparse, the entries (a_i - a_j) b_ij are formed on the sparse
    factor's pattern in one step.
    """
    if A.kind == "diag" and B.kind == "diag":
        A._check_dims(B)
        return Operator(sp.csr_matrix((A.dim, A.dim), dtype=complex))
    if {A.kind, B.kind} != {"diag", "sparse"}:
        return (A @ B) - (B @ A)
    A._check_dims(B)
    m = (B if A.kind == "diag" else A)._data
    row = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
    if A.kind == "diag":
        data = m.data * A._data[row] - m.data * A._data[m.indices]
    else:
        data = m.data * B._data[m.indices] - m.data * B._data[row]
    return Operator(sp.csr_matrix((data, m.indices.copy(), m.indptr.copy()),
                                  shape=m.shape))


def anticommutator(A, B):
    """{A, B} = AB + BA."""
    return (A @ B) + (B @ A)
