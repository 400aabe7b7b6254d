"""Diagonal and weighted-shift operator core.

Everything downstream (ideal diagnostics, trace estimators, spectral-triple
models) works with the :class:`Operator` wrapper defined here.  An operator
stores its matrix in one of two backends:

* ``diag``   -- 1-d array of diagonal entries (fast path, scales to 1e6),
  float64 when the entries are real and complex128 when they are complex,
  so a real diagonal takes half the memory of a complex one,
* ``sparse`` -- a short list of weighted-shift layers, each with at most one
  entry per row (see the layer section below).  The models' algebras are
  crossed products: every word, commutator and chain product is a shift
  times a diagonal weight (times the spinor swap), so it is one layer, and
  a chain whose terms shift by different amounts is a sum of a few.  An
  exact zero has no layer.

Both behave identically under the algebraic operations; the backend and the
dtype are optimisation details, never semantic ones: a product or sum with
a real diagonal follows numpy's type promotion, which casts it to complex
exactly, so its result equals the one of the complex diagonal bit for bit
(up to the sign of a zero imaginary part).  Products are gathers, sums
merge layers, and entries that cancel to exactly 0 leave the layers, so an
exact zero stays an exact, empty operator.  The package needs numpy only:
:meth:`Operator.sparse` imports scipy, for tests that use it as an oracle
and for ``perfbench/child.py``, which takes the torus residuals of the
``suite-full`` benchmark workload (``F^2 = 1``, ``F|D| = D``,
``{Gamma, F} = 0``) through it, so moving ``sparse()`` into a test helper
would make that workload fail until ``child.py`` changes with it.
Spectra are computed with LAPACK, after an exact permutation split of the
matrix into connected components of its nonzero pattern (a similarity
transform, so eigenvalues are preserved exactly; the components are
labelled by numpy alone, see :func:`_component_labels`).  Components of
equal size are stacked into one (g, s, s) array and solved with one
batched LAPACK call per size.  The functional calculus and the polar data
take hermitian diagonal operators only: every model's D, |D| and F and
every function of them are diagonal or built in closed form, so f(T) is f
on the diagonal entries.  A psd diagonal D (no entry with its sign bit set)
is its own |D|, sharing D's array, and its F is the identity as a read-only
zero-stride view of one 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

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
    leave it; anything else (a NaN included) is a sorted copy.
    """
    values = np.asarray(values)
    if np.iscomplexobj(values) and values.imag.any():
        keys = (values.imag, values.real, np.abs(values))
    else:
        keys = (values.real, np.abs(values.real))
    if _non_increasing(keys):
        return values
    return values[_descending_order(keys)]


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


@dataclass(frozen=True)
class Spectrum:
    """All eigenvalues of an operator, in canonical order: float64 when they
    are real (a hermitian operator's), complex128 otherwise.  ``moduli`` are
    their moduli, taken once, for the order check, and kept."""

    values: np.ndarray
    label: str = ""
    moduli: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        values = _real_or_complex(self.values)
        object.__setattr__(self, "values", values)
        moduli = np.abs(values)
        if moduli.size and np.any(moduli[:-1] < moduli[1:] - 1e-30):
            raise ValueError("spectrum not ordered by non-increasing modulus")
        object.__setattr__(self, "moduli", moduli)

    def __len__(self):
        return self.values.size


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
    """Immutable square operator, real or complex, with a hermitian flag.

    Parameters
    ----------
    data : array_like, sparse matrix or Operator
        1-d array (interpreted as a diagonal), 2-d square array, any sparse
        matrix object with a ``tocoo()`` method (a scipy matrix, read
        without importing scipy), or an Operator, whose matrix is shared.
        A 2-d or sparse input is split into row-rank layers (layer r holds
        the r-th entry of every row, in column order), after duplicate
        entries are summed and exact zeros dropped.  An exactly diagonal
        matrix, dense or sparse, is stored as its diagonal, unless it has no
        nonzero entry: an exact zero is a ``sparse`` operator with no layer.
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
        elif hasattr(data, "tocoo"):  # a sparse matrix
            coo = data.tocoo()
            self._from_entries(coo.shape, coo.row, coo.col, coo.data, label)
        else:
            data = np.asarray(data)
            if data.ndim == 1:
                self._kind, self._data = "diag", _real_or_complex(data)
                self._dim = data.size
            elif data.ndim == 2:
                index = np.nonzero(data)
                self._from_entries(data.shape, *index, data[index], label)
            else:
                raise ContractViolation("operator data must be 1-d or 2-d")
        self.label = label
        if hermitian and not self._detect_hermitian():
            raise ContractViolation(
                f"operator {label!r} flagged hermitian but is not (to 1e-12 relative)"
            )
        self._hermitian = None if hermitian is None else bool(hermitian)

    def _from_entries(self, shape, row, col, val, label):
        if shape[0] != shape[1]:
            raise ContractViolation(f"operator {label!r} is not square")
        self._assign(shape[0], _layers_from_entries(shape[0], row, col, val))

    def _assign(self, n, layers):
        """Store ``layers`` (already pruned) on dim n: one layer whose every
        entry is diagonal becomes a ``diag`` operator."""
        self._dim = n
        if len(layers) == 1:
            col, val = layers[0]
            if not ((col != np.arange(n + 1)) & (col != n)).any():
                # + 0 clears a negative zero, as summing into 0 would
                self._kind, self._data = "diag", val[:n] + 0
                return
        self._kind, self._data = "sparse", tuple(layers)

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
            return bool(np.abs(d.imag).max(initial=0.0) <= HERMITIAN_RTOL * scale)
        n, layers = self._dim, self._data
        scale = 1.0 + max((np.abs(v).max() for _, v in layers), default=0.0)
        gap = _merge(n, [*layers, *((c, -v) for c, v in _adjoint(n, layers))])
        top = max((np.abs(v).max() for _, v in gap), default=0.0)
        return bool(top <= HERMITIAN_RTOL * scale)

    # -- basic interface -------------------------------------------------------

    @property
    def dim(self):
        return self._dim

    def is_zero(self):
        """Whether this is the exact zero, an operator with no layer (the
        form of every product, sum and commutator that cancels exactly)."""
        return self._kind == "sparse" and not self._data

    @property
    def kind(self):
        return self._kind

    def diag(self):
        """Diagonal entries (the full data for diagonal operators)."""
        if self._kind == "diag":
            return self._data
        n = self._dim
        d = np.zeros(n, dtype=complex)
        for col, val in self._data:
            d += np.where(col[:n] == np.arange(n), val[:n], 0)
        return d

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
        n, layers = self._dim, self._data
        if not layers:
            return 0.0
        rows, cols = 0.0, 0.0
        for col, val in layers:
            size = np.abs(val)
            rows = rows + size
            cols = cols + np.bincount(col, weights=size, minlength=n + 1)
        return float(np.sqrt(cols[:n].max() * rows[:n].max()))

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
        n, m = self._dim, indices.size
        where = np.full(n + 1, m)  # new index of each old one; m if dropped
        where[indices] = np.arange(m)
        layers = [_prune(m, np.append(where[col[indices]], m),
                         np.append(val[indices], 0)) for col, val in self._data]
        return _layered(m, layers, self.label)

    # -- arithmetic ------------------------------------------------------------

    def _check_dims(self, other):
        if self.dim != other.dim:
            raise ContractViolation(
                f"dimension mismatch: {self.label!r} is {self.dim}, "
                f"{other.label!r} is {other.dim}"
            )

    def _layers(self):
        """The layers of this operator; a diagonal is one layer.  Layer
        values are complex, a real diagonal's too: :func:`_merge` adds a
        group's values in place."""
        if self._kind == "sparse":
            return self._data
        d, n = self._data, self._dim
        col = np.arange(n + 1)
        col[:n][d == 0] = n
        val = np.zeros(n + 1, dtype=complex)
        val[:n] = d
        return ((col, val),)

    def __matmul__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b, n = self, other, self._dim
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data * b._data)
        if a._kind == "diag":  # row i scaled by a_i
            layers = [_prune(n, col, np.append(val[:n] * a._data, 0))
                      for col, val in b._data]
        elif b._kind == "diag":  # column j scaled by b_j
            layers = [_prune(n, col, val * b._data.take(col, mode="clip"))
                      for col, val in a._data]
        else:
            layers = _product(n, a._data, b._data)
        return _layered(n, layers)

    def __add__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        self._check_dims(other)
        a, b = self, other
        if a._kind == "diag" and b._kind == "diag":
            return Operator(a._data + b._data)
        return _layered(a._dim, _merge(a._dim, [*a._layers(), *b._layers()]))

    def __sub__(self, other):
        return self + (-1.0) * other

    def __rmul__(self, scalar):
        if self._kind == "diag":
            return Operator(self._data * scalar, label=self.label)
        n = self._dim
        layers = [_prune(n, col, val * scalar) for col, val in self._data]
        return _layered(n, layers, self.label)

    __mul__ = __rmul__

    def __neg__(self):
        return (-1.0) * self

    def __repr__(self):
        flags = [self._kind]
        if self.hermitian:
            flags.append("hermitian")
        return f"Operator({self.label!r}, dim={self.dim}, {'/'.join(flags)})"


def identity(dim):
    return Operator(np.ones(dim), label="1")


def zero(dim):
    """The exact zero on dim: an operator with no layer, holding no array."""
    return _layered(dim, [])


def weighted_shift(col, val, label):
    """The operator whose row i holds ``val[i]`` in column ``col[i]``.

    ``col[i] == len(col)`` marks an empty row, as does ``val[i] == 0``.  One
    such layer is every shift, diagonal weight and spinor swap the models
    build; one whose entries are all diagonal is a ``diag`` operator.
    """
    col = np.asarray(col)
    n = col.size
    if (col.ndim != 1 or np.shape(val) != col.shape
            or not np.issubdtype(col.dtype, np.integer)
            or (n and not 0 <= col.min() <= col.max() <= n)):
        raise ContractViolation(
            f"weighted shift {label!r} needs one column in [0, {n}] and one "
            f"value per row")
    layer = _prune(n, np.append(col, n).astype(np.intp, copy=False),
                   np.append(np.asarray(val, dtype=complex), 0))
    return _layered(n, [layer], label)


# -- weighted-shift layers -----------------------------------------------------
#
# A layer on dim n is a pair (col, val) of arrays of length n + 1: row i
# holds val[i] in column col[i], and col[i] == n marks an empty row, whose
# val[i] is exactly 0.  Row n is always empty, so a gather through col never
# leaves the array.  An operator is the sum of its layers, no two of which
# hold an entry at the same position, and no entry is exactly 0.  Products,
# sums and the one-step commutator do the complex arithmetic of scipy's CSR
# product and sum, entry for entry and in the same order, so on the models
# every result equals scipy's bit for bit (tests/test_weighted_shifts.py).


def _layered(n, layers, label=""):
    """The operator with the given pruned layers on dim n (a layer that
    pruned to nothing, None, is left out)."""
    out = Operator.__new__(Operator)
    out._assign(n, [layer for layer in layers if layer is not None])
    out.label, out._hermitian = label, None
    return out


def _prune(n, col, val):
    """The layer (col, val) with its exact zeros made empty rows, or None
    when no entry is left.  ``val`` is modified in place; ``col`` is not."""
    empty = col == n
    dead = val == 0
    dead |= empty
    count = np.count_nonzero(dead)
    if count == n + 1:
        return None
    if count != np.count_nonzero(empty):
        col = np.where(dead, n, col)
    np.copyto(val, 0, where=dead)
    return col, val


def _cmul(a, b):
    """0 + a * b entrywise, with the real part ar br - ai bi and the
    imaginary part ar bi + ai br each rounded step by step, as a compiled
    sparse product accumulates it (numpy's complex multiply may fuse)."""
    out = np.empty(a.shape, dtype=complex)
    re, im = out.real, out.imag
    np.multiply(a.real, b.real, out=re)
    part = a.imag * b.imag
    re -= part
    np.multiply(a.real, b.imag, out=im)
    np.multiply(a.imag, b.real, out=part)
    im += part
    out += 0  # clears a negative zero
    return out


def _product(n, left, right):
    """Pruned layers of (sum of ``left``) @ (sum of ``right``): one pair of
    gathers per pair of layers, C.col = B.col[A.col] and
    C.val = A.val * B.val[A.col], then merged."""
    pairs = [(bc[ac], _cmul(av, bv[ac])) for ac, av in left for bc, bv in right]
    return [_prune(n, *pairs[0])] if len(pairs) == 1 else _merge(n, pairs)


def _merge(n, layers):
    """Pruned sum of ``layers``, with no two layers holding one position.

    A layer joins the first group whose columns agree with its own wherever
    both have an entry; its entries at a position that another group holds
    go to that group.  A group's values are added in order (a lone layer's
    plus 0, which clears a negative zero as adding an absent entry would).
    """
    held = np.full((len(layers), n + 1), n)  # the columns of each group
    groups = []  # the values added into each group
    for col, val in layers:
        g = len(groups)
        live = col != n
        same = (held[:g] == col) & live
        fits = ~((held[:g] != n) & live & ~same).any(axis=1)
        home = int(np.argmax(fits)) if fits.any() else g
        for k in np.flatnonzero(same.any(axis=1)):
            if k != home:
                groups[k].append(np.where(same[k], val, 0))
                col, val = np.where(same[k], n, col), np.where(same[k], 0, val)
        if home == g:
            groups.append([])
        groups[home].append(val)
        np.copyto(held[home], col, where=held[home] == n)
    out = []
    for col, vals in zip(held, groups):
        total = vals[0] + (vals[1] if len(vals) > 1 else 0)
        for val in vals[2:]:
            total += val
        out.append(_prune(n, col.copy(), total))
    return [layer for layer in out if layer is not None]


def _entries(n, layers):
    """(row, col, val) of every entry, layer by layer."""
    parts = []
    for col, val in layers:
        row = np.flatnonzero(col[:n] != n)
        parts.append((row, col[row], val[row]))
    if len(parts) == 1:
        return parts[0]
    if not parts:
        return (np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp),
                np.zeros(0, dtype=complex))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _layers_from_entries(n, row, col, val):
    """Row-rank layers of general entries: duplicates are summed, exact
    zeros dropped, and layer r holds the r-th entry of each row in column
    order."""
    row = np.asarray(row, dtype=np.intp)
    key = row * n + np.asarray(col, dtype=np.intp)
    order = np.argsort(key, kind="stable")
    key, val = key[order], np.asarray(val, dtype=complex)[order]
    if key.size:
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        if first.size < key.size:
            key, val = key[first], np.add.reduceat(val, first)
    keep = val != 0
    key, val = key[keep], val[keep]
    row, col = np.divmod(key, n) if n else (key, key)
    rank = np.arange(key.size) - np.searchsorted(row, row)
    layers = []
    for r in range(rank.max() + 1 if rank.size else 0):
        mine = rank == r
        layer_col = np.full(n + 1, n)
        layer_val = np.zeros(n + 1, dtype=complex)
        layer_col[row[mine]] = col[mine]
        layer_val[row[mine]] = val[mine]
        layers.append((layer_col, layer_val))
    return layers


def _adjoint(n, layers):
    """Layers of the adjoint: a layer with distinct columns transposes to
    one layer by a scatter; the others go through their entries."""
    out, rest = [], []
    for col, val in layers:
        row = np.flatnonzero(col[:n] != n)
        if np.bincount(col[row], minlength=1).max() <= 1:
            new_col = np.full(n + 1, n)
            new_val = np.zeros(n + 1, dtype=complex)
            new_col[col[row]] = row
            new_val[col[row]] = np.conj(val[row])
            out.append((new_col, new_val))
        else:
            rest.append((col, val))
    if rest:
        row, col, val = _entries(n, rest)
        out += _layers_from_entries(n, col, row, np.conj(val))
    return out


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
    components ordered by first index), scattered from T's layer entries.

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

    For a hermitian operator they are real and float64 (the hermitian LAPACK
    path is used).  The real diagonal of a hermitian diagonal T that is
    already in canonical order is returned itself, with no copy, and the
    spectrum of the exact zero is a read-only view of one 0.0 with stride 0;
    neither may be written.
    """
    if T.is_zero():
        return Spectrum(np.broadcast_to(np.zeros(1), (T.dim,)), label=T.label)
    herm = T.hermitian
    if T.kind == "diag":
        vals = T._data.real if herm else T._data.copy()
    elif herm:
        vals = _split_values(T, np.linalg.eigvalsh, lambda d: d.real)
    else:
        vals = _split_values(T, np.linalg.eigvals, lambda d: d)
    return Spectrum(canonical_order(vals), label=T.label)


def singular_values(T):
    """Singular values mu(k,T): eigenvalues of |T| in non-increasing order.

    Moduli of a diagonal T that are already non-increasing are returned
    after an O(N) check, with no sort; a NaN fails the check.  A real
    diagonal with no sign bit set (no negative entry, no -0.0) is its own
    moduli: ``mu`` is then T's entries themselves, so it must not be
    written.  A single layer with distinct columns needs no SVD either:
    its singular values are its entries' moduli, padded with zeros."""
    if T.kind == "diag":
        d = T._data
        mu = np.abs(d) if np.iscomplexobj(d) or np.signbit(d).any() else d
        if not np.all(mu[:-1] >= mu[1:]):
            mu = np.sort(mu)[::-1]
        return SingularSequence(mu, label=T.label)
    if T.is_zero():
        return SingularSequence(np.zeros(T.dim), label=T.label)
    if len(T._data) == 1:
        _rows, cols, vals = _entries(T.dim, T._data)
        if np.bincount(cols, minlength=T.dim).max() < 2:
            # at most one entry per row and per column: T*T is diagonal, so
            # mu is the entries' moduli and a zero for each empty column
            mu = np.zeros(T.dim)
            mu[:vals.size] = np.abs(vals)
            return SingularSequence(np.sort(mu)[::-1], label=T.label)
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


def hermitian_calculus(T, f, label=None):
    """f(T) for a hermitian diagonal T: ``f`` maps the real diagonal entries.

    ``f`` is vectorized: it takes the array of entries and returns an array
    of the same shape; a real result is stored as float64.  Any other T, or
    a result of another shape, is a :class:`ContractViolation`; a non-finite
    value is a :class:`DomainError`.
    """
    w = _real_diagonal(T, "hermitian_calculus")
    label = label if label is not None else f"f({T.label})"
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
    operator with no layer.  With one factor diagonal (entries a) and the
    other layered, each layer's entries b_ij become (a_i - a_j) b_ij in one
    step.
    """
    if A.kind == "diag" and B.kind == "diag":
        A._check_dims(B)
        return zero(A.dim)
    if {A.kind, B.kind} != {"diag", "sparse"}:
        return (A @ B) - (B @ A)
    A._check_dims(B)
    n = A.dim
    a = (A if A.kind == "diag" else B)._data
    layers = []
    for col, val in (B if A.kind == "diag" else A)._data:
        at_row = val[:n] * a
        at_col = val[:n] * a.take(col[:n], mode="clip")
        out = np.zeros(n + 1, dtype=complex)
        if A.kind == "diag":
            np.subtract(at_row, at_col, out=out[:n])
        else:
            np.subtract(at_col, at_row, out=out[:n])
        layers.append(_prune(n, col, out))
    return _layered(n, layers)


def anticommutator(A, B):
    """{A, B} = AB + BA."""
    return (A @ B) + (B @ A)
