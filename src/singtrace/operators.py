"""Diagonal and weighted-shift operator core.

Everything downstream (ideal diagnostics, trace estimators, spectral-triple
models) works with the :class:`Operator` wrapper defined here.  An operator
stores its matrix in one of two backends:

* ``diag``   -- 1-d array of diagonal entries (fast path, scales to 1e6),
  float64 when the entries are real and complex128 when they are complex,
  so a real diagonal takes half the memory of a complex one,
* ``sparse`` -- a short tuple of diagonal runs, one per offset, each the
  span of one diagonal from its first nonzero entry to its last (see the
  run section below).  The models' algebras are crossed products: every
  word, commutator and chain product is a shift times a diagonal weight, so
  it is one run (the torus's spinor swap is two), and a chain whose terms
  shift by different amounts is a sum of a few.  An exact zero has no run.

Both behave identically under the algebraic operations; the backend and the
dtype are optimisation details, never semantic ones: a product or sum with
a real diagonal follows numpy's type promotion, which casts it to complex
exactly, so its result equals the one of the complex diagonal bit for bit
(up to the sign of a zero imaginary part).  Products are slice multiplies,
sums add the runs of one offset, and a run whose entries all cancel to
exactly 0 is dropped, so an exact zero stays an exact, empty operator.  An
Operator is built from a 1-d array of diagonal entries, by
:func:`weighted_shift`, or by the algebra; there is no general-entry
constructor.  The package needs numpy
only: :meth:`Operator.sparse` imports scipy, for tests that use it as an
oracle and for ``perfbench/child.py``, which takes the torus residuals of the
``suite-full`` benchmark workload (``F^2 = 1``, ``F|D| = D``,
``{Gamma, F} = 0``) through it, so moving ``sparse()`` into a test helper
would make that workload fail until ``child.py`` changes with it.
Spectra are computed after an exact permutation split of the matrix into
connected components of its nonzero pattern (a similarity transform, so
eigenvalues are preserved exactly; the components are labelled by numpy
alone, see :func:`_component_labels`).  Components of equal size are
stacked into one (g, s, s) array and solved with one batched LAPACK call
per size, except the 2 x 2 eigenvalue groups of a non-hermitian operator,
which have a closed form (:func:`_eigvals`).  The functional calculus and
the polar data take hermitian diagonal operators only: every model's D,
|D| and F and every function of them are diagonal or built in closed form,
so f(T) is f on the diagonal entries.  A psd diagonal D (no entry with its
sign bit set) is its own |D|, sharing D's array, and its F is the identity
as a read-only zero-stride view of one 1.0.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Operator",
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
    "weighted_shift",
    "zero",
]

HERMITIAN_RTOL = 1e-12


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


def _real_or_complex(x):
    """``x`` as float64 when it is real and as complex128 when it is complex;
    an array of either kind is returned itself, with no copy."""
    x = np.asarray(x)
    return x.astype(complex if np.iscomplexobj(x) else float, copy=False)


def canonical_order(values):
    """Sort eigenvalues by non-increasing modulus.

    Ties (exactly equal moduli) are broken by descending real part, then
    descending imaginary part, so the output is a deterministic total order.
    With no nonzero imaginary part the modulus is |re| exactly, and the last
    key ties everywhere, so two real keys give the same order.  Input that
    is already in this order is returned itself, as the stable sort would
    leave it, after a check that takes the keys one block at a time;
    anything else (a NaN included) is a sorted copy.
    """
    values = np.asarray(values)
    if all(_non_increasing(_order_keys(block))
           for _, block in _overlapping_blocks(values)):
        return values
    return values[_descending_order(_order_keys(values))]


# entries whose moduli an order check or the tie boundaries of a spectrum
# take at a time, so that no full-length moduli array is formed
_MODULI_BLOCK = 1 << 16


def _overlapping_blocks(values):
    """(lo, values[lo:lo + _MODULI_BLOCK + 1]) for lo = 0, _MODULI_BLOCK,
    ...: consecutive blocks that share their boundary entry, so that every
    adjacent pair of entries lies in one block (one block for fewer than
    two entries)."""
    for lo in range(0, max(values.size - 1, 1), _MODULI_BLOCK):
        yield lo, values[lo:lo + _MODULI_BLOCK + 1]


def _order_keys(values):
    """The sort keys of :func:`canonical_order`, the last the major one."""
    if np.iscomplexobj(values) and values.imag.any():
        return (values.imag, values.real, np.abs(values))
    return (values.real, np.abs(values.real))


def _descending_order(keys):
    """``np.lexsort`` of the negated ``keys``, bit for bit, from one stable
    sort on the last key and one lexsort of the runs it leaves tied (NaNs
    tie with each other, as in ``np.lexsort``)."""
    *minor, major = keys
    order = np.argsort(-major, kind="stable")
    k = major[order]
    tied = k[1:] == k[:-1]
    tied |= np.isnan(k[1:]) & np.isnan(k[:-1])
    at = np.zeros(k.size, dtype=bool)  # the slots in a run of ties
    at[1:] = tied
    at[:-1] |= tied
    del tied
    at = np.flatnonzero(at)
    if at.size:
        # the sorted major key keeps each run together and in place
        sub, runs = order[at], -k[at]
        del k
        order[at] = sub[np.lexsort([-m[sub] for m in minor] + [runs])]
    return order


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


class Operator:
    """Immutable square operator, real or complex, with a hermitian flag.

    Parameters
    ----------
    data : array_like or Operator
        1-d array of diagonal entries, or an Operator, whose matrix is
        shared.  Anything else (a 2-d array, a scipy matrix) is a
        :class:`ContractViolation`: sparse operators are built by
        :func:`weighted_shift` and the algebra.
        A 1-d array keeps its kind: a float64 or complex128 array is wrapped
        without a copy, so it must not be modified afterwards; any other
        real (integer, boolean, float32) array is stored as float64 and any
        other complex one as complex128.
    label : str
        Human-readable tag used in error messages and reports.
    hermitian : bool or None
        ``None`` leaves the :attr:`hermitian` flag to be detected on its
        first read; ``True`` is checked here and raises
        :class:`ContractViolation` when the matrix is not hermitian.
    """

    __slots__ = ("_kind", "_data", "_dim", "label", "_hermitian")

    def __init__(self, data, label="", hermitian=None):
        if isinstance(data, Operator):
            self._kind, self._data, self._dim = data._kind, data._data, data._dim
        else:
            array = np.asarray(data)
            if array.ndim != 1:
                raise ContractViolation(
                    f"operator {label!r} needs a 1-d array of diagonal "
                    f"entries or an Operator, not {type(data).__name__} of "
                    f"shape {getattr(data, 'shape', array.shape)}")
            self._kind, self._data = "diag", _real_or_complex(array)
            self._dim = array.size
        self.label = label
        if hermitian and not self._detect_hermitian():
            raise ContractViolation(
                f"operator {label!r} flagged hermitian but is not (to 1e-12 relative)"
            )
        self._hermitian = None if hermitian is None else bool(hermitian)

    def _assign(self, n, runs):
        """Store ``runs`` (already trimmed) on dim n: one run of offset 0
        becomes a ``diag`` operator."""
        self._dim = n
        if len(runs) == 1 and runs[0][0] == 0:
            self._kind, self._data = "diag", _diagonal(n, runs)
            return
        self._kind, self._data = "sparse", tuple(runs)

    @property
    def hermitian(self):
        """Whether the operator is hermitian to 1e-12 relative.

        Detected on the first read and cached.
        """
        if self._hermitian is None:
            self._hermitian = self._detect_hermitian()
        return self._hermitian

    def _detect_hermitian(self):
        if self._kind == "diag":
            d = self._data
            # real, NaN entries included
            if not np.iscomplexobj(d) or not d.imag.any():
                return True
            scale = 1.0 + (np.abs(d).max() if d.size else 0.0)
            # an inf entry: any imaginary part meets an inf bound
            return bool(np.isfinite(scale) and np.abs(d.imag).max(
                initial=0.0) <= HERMITIAN_RTOL * scale)
        # T - T* run by run: run k holds T[i, i + k], and run -k, read at
        # row i + k, the conj(T[i + k, i]) that T* puts there
        runs = self._data
        bound = HERMITIAN_RTOL * (1.0 + max(
            (np.abs(v).max() for _k, _lo, v in runs), default=0.0))
        if not np.isfinite(bound):  # an inf entry: any gap meets an inf bound
            return False
        partner = {k: (lo, v) for k, lo, v in runs}
        for k, lo, v in runs:
            plo, pv = partner.get(-k, (lo + k, v[:0]))
            gap = _add_terms([(lo, v), (plo - k, -np.conj(pv))])[1]
            if not np.abs(gap).max() <= bound:  # a NaN fails too
                return False
        return True

    # -- basic interface -------------------------------------------------------

    @property
    def dim(self):
        return self._dim

    def is_zero(self):
        """Whether this is the exact zero, an operator with no run (the
        form of every product, sum and commutator that cancels exactly)."""
        return self._kind == "sparse" and not self._data

    @property
    def kind(self):
        return self._kind

    def diag(self):
        """Diagonal entries (the full data for diagonal operators)."""
        if self._kind == "diag":
            return self._data
        return _diagonal(self._dim, [r for r in self._data if r[0] == 0])

    def sparse(self):
        """The matrix as a scipy CSR matrix; scipy is imported here only."""
        import scipy.sparse as sp

        if self._kind == "diag":
            return sp.diags(self._data, format="csr", dtype=complex)
        n = self._dim
        row, col, val = _entries(n, self._data)
        return sp.csr_matrix((val, (row, col)), shape=(n, n), dtype=complex)

    def norm_bound(self):
        """Cheap upper bound on the operator 2-norm, exact for a diagonal:
        sqrt(max column sum * max row sum) of the entries' moduli."""
        if self._kind == "diag":
            return float(np.abs(self._data).max(initial=0.0))
        n, runs = self._dim, self._data
        if not runs:
            return 0.0
        rows, cols = np.zeros(n), np.zeros(n)
        for k, lo, v in runs:
            size = np.abs(v)
            rows[lo:lo + size.size] += size
            cols[lo + k:lo + k + size.size] += size
        return float(np.sqrt(cols.max() * rows.max()))

    def relabel(self, label):
        out = Operator.__new__(Operator)
        out._kind, out._data, out._dim = self._kind, self._data, self._dim
        out.label, out._hermitian = label, self._hermitian
        return out

    def restrict(self, indices):
        """Compression P T P* onto the given distinct basis indices (in order)."""
        indices = np.asarray(indices)
        if self._kind == "diag":
            return Operator(self._data[indices], label=self.label)
        terms = _restrict_runs(self._dim, self._data, indices)
        return _from_runs(indices.size, _runs_of(terms), self.label)

    # -- arithmetic ------------------------------------------------------------

    def _check_dims(self, other):
        if self.dim != other.dim:
            raise ContractViolation(
                f"dimension mismatch: {self.label!r} is {self.dim}, "
                f"{other.label!r} is {other.dim}"
            )

    def _runs(self):
        """The runs of this operator; a diagonal is the run of offset 0 (or
        none, when every entry is 0), with complex values."""
        if self._kind == "sparse":
            return self._data
        run = _trimmed(0, 0, self._data.astype(complex, copy=False))
        return () if run is None else (run,)

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b, n = self, other, self._dim
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data * b._data)
        if a._kind == "diag":  # row i scaled by a_i
            runs = [_trimmed(k, lo, np.multiply(v, a._data[lo:lo + v.size]))
                    for k, lo, v in b._data]
        elif b._kind == "diag":  # column i + k scaled by b_(i + k)
            runs = [_trimmed(k, lo,
                             np.multiply(v, b._data[lo + k:lo + k + v.size]))
                    for k, lo, v in a._data]
        else:
            runs = _runs_of(_product(a._data, b._data))
        return _from_runs(n, runs)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b = self, other
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data + b._data)
        terms = {}
        for k, lo, v in (*a._runs(), *b._runs()):
            terms.setdefault(k, []).append((lo, v))
        return _from_runs(a._dim, _runs_of(terms))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        if self._kind == "diag":
            return Operator(self._data * scalar, label=self.label)
        runs = [_trimmed(k, lo, v * scalar) for k, lo, v in self._data]
        return _from_runs(self._dim, runs, self.label)

    __mul__ = __rmul__

    def __neg__(self):
        return (-1.0) * self

    def __repr__(self):
        flags = [self._kind]
        if self.hermitian:
            flags.append("hermitian")
        return f"Operator({self.label!r}, dim={self.dim}, {'/'.join(flags)})"


def zero(dim):
    """The exact zero on dim: an operator with no run, holding no array."""
    return _from_runs(dim, [])


def weighted_shift(col, val, label):
    """The operator whose row i holds ``val[i]`` in column ``col[i]``.

    ``col[i] == len(col)`` marks an empty row, as does ``val[i] == 0``.  The
    rows are split by offset ``col[i] - i`` into one run per offset: every
    shift and diagonal weight the models build is one run, and the torus's
    spinor swap two.  An operator whose entries are all diagonal is a
    ``diag`` operator.
    """
    col = np.asarray(col)
    n = col.size
    if (col.ndim != 1 or np.shape(val) != col.shape
            or not np.issubdtype(col.dtype, np.integer)
            or (n and not 0 <= col.min() <= col.max() <= n)):
        raise ContractViolation(
            f"weighted shift {label!r} needs one column in [0, {n}] and one "
            f"value per row")
    val = np.asarray(val)
    rows = np.flatnonzero((col != n) & (val != 0))
    terms = _by_offset(rows, col[rows] - rows, val[rows])
    return _from_runs(n, _runs_of(terms), label)


# -- diagonal runs -------------------------------------------------------------
#
# A run on dim n is a triple (k, lo, v): row i holds v[i - lo] in column
# i + k, for lo <= i < lo + v.size, and every row and column it reaches lies
# in [0, n).  v is complex, and its first and last entries are nonzero; an
# entry inside may be 0 (of either sign), which every reader takes as no
# entry: entries are read by adding them into 0, and the eigen engine and
# ``sparse()`` skip them.  An operator is the sum of its runs, no two of
# which share an offset, so no two hold an entry at one position.  Products
# and sums take numpy's complex arithmetic, so their last bits may depend on
# the CPU's multiply kernel (fused or not); tests/test_weighted_shifts.py
# bounds them against a compiled CSR product and sum.


def _from_runs(n, runs, label=""):
    """The operator with the given trimmed runs on dim n (a run that
    trimmed to nothing, None, is left out)."""
    out = Operator.__new__(Operator)
    out._assign(n, [run for run in runs if run is not None])
    out.label, out._hermitian = label, None
    return out


def _trimmed(k, lo, v):
    """The run (k, lo, v) cut to its first and last nonzero entry (a copy),
    or None when no entry is left; a run already so cut is itself."""
    if v.size and v[0] != 0 and v[-1] != 0:
        return k, lo, v
    live = v != 0
    if not live.any():
        return None
    first, end = int(live.argmax()), v.size - int(live[::-1].argmax())
    return k, lo + first, v[first:end].copy()


def _add_terms(parts):
    """The span (lo, values) of the sum of the spans ``parts``: each position
    adds its terms into 0, in the order given (a lone span is itself)."""
    if len(parts) == 1:
        return parts[0]
    lo = min(at for at, _v in parts)
    total = np.zeros(max(at + v.size for at, v in parts) - lo, dtype=complex)
    for at, v in parts:
        total[at - lo:at - lo + v.size] += v
    return lo, total


def _runs_of(terms):
    """The trimmed runs of ``terms``, a dict from offset to the spans
    (lo, values) to add on that diagonal, in order."""
    return [_trimmed(k, *_add_terms(parts)) for k, parts in terms.items()]


def _product(left, right):
    """The terms of (sum of ``left``) @ (sum of ``right``): for each pair of
    runs, in order, the product of their values over the rows where both
    hold an entry, on the diagonal of the sum of their offsets."""
    terms = {}
    for ka, la, va in left:
        for kb, lb, vb in right:
            # row i of A meets row i + ka of B
            lo = max(la, lb - ka)
            hi = min(la + va.size, lb + vb.size - ka)
            if lo < hi:
                # np.multiply keeps the operands in order (A's first), as
                # the fused imaginary part of b * a may round differently;
                # + 0 clears a negative zero
                v = np.multiply(va[lo - la:hi - la],
                                vb[lo + ka - lb:hi + ka - lb])
                v += 0
                terms.setdefault(ka + kb, []).append((lo, v))
    return terms


def _by_offset(rows, shift, val):
    """The terms of the entries val[j] at (rows[j], rows[j] + shift[j]), for
    ascending rows: one span per offset, in order of first row, with zeros
    at the rows inside it that hold no entry.  ``val`` is a fresh array
    (a gather), so a complex one is kept as a span with no copy."""
    terms = {}
    while rows.size:
        k = int(shift[0])
        mine = shift == k
        at, v = (rows, val) if mine.all() else (rows[mine], val[mine])
        lo, size = int(at[0]), int(at[-1]) - int(at[0]) + 1
        if at.size == size:
            span = v.astype(complex, copy=False)
        else:
            span = np.zeros(size, dtype=complex)
            span[at - lo] = v
        terms.setdefault(k, []).append((lo, span))
        rows, shift, val = rows[~mine], shift[~mine], val[~mine]
    return terms


def _restrict_runs(n, runs, indices):
    """The terms of P T P* for distinct ``indices`` in any order.  On a
    window [s, s + m) of the basis every run keeps its offset, and its
    values are a view; otherwise each entry moves to its row's and column's
    new indices, and each run splits by new offset where that offset
    varies."""
    m = indices.size
    terms = {}
    if m and indices[-1] - indices[0] == m - 1 and np.all(
            indices[1:] > indices[:-1]):
        s = int(indices[0])
        for k, lo, v in runs:
            first = max(lo, s, s - k)
            end = min(lo + v.size, s + m, s + m - k)
            if first < end:
                terms[k] = [(first - s, v[first - lo:end - lo])]
        return terms
    where = np.full(n, -1)  # new index of each old one; -1 if dropped
    where[indices] = np.arange(m)
    for k, lo, v in runs:
        rows = np.flatnonzero((indices >= lo) & (indices < lo + v.size))
        old = indices[rows]
        cols = where[old + k]
        kept = cols >= 0
        rows, cols, old = rows[kept], cols[kept], old[kept]
        for d, parts in _by_offset(rows, cols - rows, v[old - lo]).items():
            terms.setdefault(d, []).extend(parts)
    return terms


def _diagonal(n, runs):
    """The n diagonal entries held by ``runs`` of offset 0, added into 0."""
    d = np.zeros(n, dtype=complex)
    for _k, lo, v in runs:
        d[lo:lo + v.size] += v
    return d


def _entries(n, runs):
    """(row, col, val) of every nonzero entry, run by run."""
    parts = []
    for k, lo, v in runs:
        at = np.flatnonzero(v)
        parts.append((at + lo, at + (lo + k), v[at]))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=complex))
    return tuple(np.concatenate(part) for part in zip(*parts))


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
    components ordered by first index), scattered from T's run entries.

    Only the nodes that hold an entry are labelled: every other node is a
    component of its own, a zero 1 x 1 block in the size-1 group, whose
    components are the nodes outside every larger component, in order.
    """
    n = T.dim
    rows, cols, vals = _entries(n, T._data)
    nodes = np.flatnonzero(np.bincount(np.concatenate([rows, cols]),
                                       minlength=n))
    local = np.empty(n, dtype=np.intp)  # each node's place in ``nodes``
    local[nodes] = np.arange(nodes.size)
    rows, cols = local[rows], local[cols]
    labels = _component_labels(nodes.size, rows, cols)
    sizes = np.bincount(labels)
    order = np.argsort(labels, kind="stable")
    starts = np.cumsum(sizes) - sizes
    pos = np.empty(nodes.size, dtype=np.intp)  # place inside its component
    pos[order] = np.arange(nodes.size) - np.repeat(starts, sizes)
    row_label = labels[rows]
    row_size = sizes[row_label]
    # the first node of each size's first component; the size-1 group holds
    # every node not coupled to another, the least of them first
    uniq, at = np.unique(sizes, return_index=True)
    first = {int(s): int(nodes[order[starts[k]]])
             for s, k in zip(uniq, at) if s > 1}
    coupled = nodes[sizes[labels] > 1]
    if coupled.size < n:
        gaps = np.flatnonzero(coupled != np.arange(coupled.size))
        first[1] = int(gaps[0]) if gaps.size else coupled.size
    slot = np.empty(sizes.size, dtype=np.intp)
    groups = []
    for s in sorted(first, key=first.get):
        mine = row_size == s
        if s == 1:
            count = n - coupled.size
            here = nodes[rows[mine]]
            flat = here - np.searchsorted(coupled, here)
        else:
            comps = np.flatnonzero(sizes == s)
            slot[comps] = np.arange(comps.size)
            count = comps.size
            flat = ((slot[row_label[mine]] * s + pos[rows[mine]]) * s
                    + pos[cols[mine]])
        blocks = np.zeros(count * s * s, dtype=complex)
        np.add.at(blocks, flat, vals[mine])  # sums entries at one position
        groups.append(blocks.reshape(count, s, s))
    return groups


def _split_values(T, solve, single):
    """Values of a sparse T, component group by component group: ``solve``
    on each stacked (g, s, s) group, s > 1, to a (g, s) array, and
    ``single`` on the g entries of the size-1 components, concatenated.  A
    ``np.linalg.LinAlgError`` that ``solve`` raises (LAPACK's, or a
    non-finite entry) is a :class:`FactorizationError`."""
    try:
        parts = [single(b[:, 0, 0]) if b.shape[1] == 1 else solve(b).ravel()
                 for b in _component_blocks(T)]
    except np.linalg.LinAlgError as exc:
        raise FactorizationError(T.label, _condition_estimate(T), str(exc)) from exc
    return np.concatenate(parts)


def _eigvals(blocks):
    """Eigenvalues of each block of a stacked (g, s, s) group, as a (g, s)
    array: ``np.linalg.eigvals`` for s > 2, and a closed form for s = 2.

    Each 2 x 2 block [[a, b], [c, d]] is scaled by its largest modulus (a
    zero block has eigenvalues 0, 0).  With m = (a + d)/2 and
    q = sqrt(((a - d)/2)^2 + bc), the sign of q taken so that
    Re(conj(m) q) >= 0, the first eigenvalue l1 = m + q is the one of
    larger modulus, |l1| >= max(|m|, |q|), and the second is det/l1, or
    m - q when l1 = 0 (then m = q = 0), so that no cancellation in m - q
    costs the smaller one its accuracy.  A non-finite entry raises
    ``LinAlgError``, as LAPACK does."""
    if blocks.shape[1] != 2:
        return np.linalg.eigvals(blocks)
    if not np.isfinite(blocks).all():
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    scale = np.abs(blocks).max(axis=(1, 2))
    scale[scale == 0.0] = 1.0
    a, b, c, d = (blocks.reshape(-1, 4) / scale[:, None]).T
    m = 0.5 * (a + d)
    q = np.sqrt((0.5 * (a - d)) ** 2 + b * c)
    np.negative(q, out=q, where=(m.conj() * q).real < 0.0)
    l1 = m + q
    l2 = np.divide(a * d - b * c, l1, out=m - q, where=l1 != 0.0)
    return np.stack([l1, l2], axis=1) * scale[:, None]


def _condition_estimate(T):
    top = T.norm_bound()
    if top == 0.0:
        return 0.0
    d = np.abs(T.diag())
    bottom = d[d > 0].min() if np.any(d > 0) else 0.0
    return float(top / bottom) if bottom else np.inf


# -- spectral operations -------------------------------------------------------


def eigenvalues(T):
    """All eigenvalues of ``T`` with algebraic multiplicity, as an array in
    canonical order.

    For a hermitian operator they are real and float64 (the hermitian LAPACK
    path is used); otherwise they are complex128, and of the components of
    the nonzero pattern the 2 x 2 ones are solved in closed form and the
    larger ones by LAPACK, one call per size.  The real diagonal of a
    hermitian diagonal T that is already in canonical order is returned
    itself, with no copy, and the spectrum of the exact zero is a read-only
    view of one 0.0 with stride 0; neither may be written.
    """
    if T.is_zero():
        return np.broadcast_to(np.zeros(1), (T.dim,))
    herm = T.hermitian
    if T.kind == "diag":
        vals = T._data.real if herm else T._data.copy()
    elif herm:
        vals = _split_values(T, np.linalg.eigvalsh, lambda d: d.real)
    else:
        vals = _split_values(T, _eigvals, lambda d: d)
    return canonical_order(vals)


def singular_values(T):
    """Singular values mu(k,T): the eigenvalues of |T| as a float64 array in
    non-increasing order.

    Moduli of a diagonal T that are already non-increasing are returned
    after an O(N) check, with no sort; a NaN fails the check.  A real
    diagonal with no sign bit set (no negative entry, no -0.0) is its own
    moduli: ``mu`` is then T's entries themselves, so it must not be
    written.  Runs that hold at most one entry in each row and each column
    (one run always does) need no SVD either: the singular values are the
    entries' moduli, padded with zeros.  Those of the exact zero (an
    operator with no run) are a read-only view of one 0.0 with stride 0, as
    its eigenvalues are."""
    if T.kind == "diag":
        d = T._data
        mu = np.abs(d) if np.iscomplexobj(d) or np.signbit(d).any() else d
        if not np.all(mu[:-1] >= mu[1:]):
            mu = np.sort(mu)[::-1]
        return mu
    if T.is_zero():
        return np.broadcast_to(np.zeros(1), (T.dim,))
    rows, cols, vals = _entries(T.dim, T._data)
    if len(T._data) == 1 or (np.bincount(rows).max() < 2
                             and np.bincount(cols).max() < 2):
        # at most one entry per row and per column: T*T is diagonal, so
        # mu is the entries' moduli and a zero for each empty column
        mu = np.zeros(T.dim)
        mu[:vals.size] = np.abs(vals)
        return np.sort(mu)[::-1]
    del rows, cols, vals
    return np.sort(_split_values(
        T, lambda b: np.linalg.svd(b, compute_uv=False), np.abs))[::-1]


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
        fw = _real_or_complex(f(w))
    if fw.shape != w.shape:
        raise ContractViolation(
            f"function on the spectrum of {label!r} returned shape "
            f"{fw.shape}, not the spectrum's {w.shape}")
    bad = ~np.isfinite(fw)
    if bad.any():
        raise DomainError(f"function undefined at eigenvalue "
                          f"{w[np.argmax(bad)]!r} of operator {label!r}")
    return fw


def hermitian_calculus(T, f, label):
    """f(T) for a hermitian diagonal T: ``f`` maps the real diagonal entries.

    ``f`` is vectorized: it takes the array of entries and returns an array
    of the same shape; a real result is stored as float64.  Any other T, or
    a result of another shape, is a :class:`ContractViolation`; a non-finite
    value is a :class:`DomainError`.  The result is labelled ``label``.
    """
    w = _real_diagonal(T, "hermitian_calculus")
    return Operator(_apply_scalar_function(f, w, T.label), label=label)


def phase_modulus(D):
    """Polar data (F, |D|) of a hermitian diagonal D, with sign(0) := +1.

    On the real diagonal d, F = where(d >= 0, 1, -1) and |D| = |d|, so F is
    a self-adjoint unitary with F^2 = 1 and F |D| = D; kernel vectors of D
    receive +1.  Any other D is a :class:`ContractViolation`.

    A psd D with no sign bit set (every d >= 0, no -0.0, no NaN) is its own
    modulus: |D| then holds d itself, and F the identity as a read-only view
    of one 1.0 with stride 0, so neither costs a full-length array.
    """
    d = _real_diagonal(D, "phase_modulus")
    if np.all(d >= 0.0) and not np.signbit(d).any():
        phase, modulus = np.broadcast_to(np.ones(1), d.shape), d
    else:
        phase, modulus = np.where(d >= 0.0, 1.0, -1.0), np.abs(d)
    F = Operator(phase, label=f"phase({D.label})", hermitian=True)
    absD = Operator(modulus, label=f"|{D.label}|", hermitian=True)
    return F, absD


def commutator(A, B):
    """[A, B] = AB - BA.

    Two diagonal factors commute, so their commutator is the exact zero, an
    operator with no run.  With one factor diagonal (entries a) and the
    other sparse, each run's entries b_ij become b_ij a_i - b_ij a_j (not
    b_ij (a_i - a_j), which rounds differently), on slices of a.
    """
    if A.kind == "diag" and B.kind == "diag":
        A._check_dims(B)
        return zero(A.dim)
    if {A.kind, B.kind} != {"diag", "sparse"}:
        return (A @ B) - (B @ A)
    A._check_dims(B)
    a = (A if A.kind == "diag" else B)._data
    runs = []
    for k, lo, v in (B if A.kind == "diag" else A)._data:
        at_row = np.multiply(v, a[lo:lo + v.size])
        at_col = np.multiply(v, a[lo + k:lo + k + v.size])
        if A.kind == "diag":
            np.subtract(at_row, at_col, out=at_row)
        else:
            np.subtract(at_col, at_row, out=at_row)
        runs.append(_trimmed(k, lo, at_row))
    return _from_runs(A.dim, runs)


def anticommutator(A, B):
    """{A, B} = AB + BA."""
    return (A @ B) + (B @ A)
