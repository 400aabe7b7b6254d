"""The diagonal-run backend of ``Operator`` against scipy.sparse.

scipy is the oracle here and nowhere in the package.  Each product, sum and
commutator that the identity suite and the volume cycle form must have the
nonzero pattern of the scipy expression a CSR backend evaluates on the
factors' ``.sparse()``, exactly (bar entries of AB - BA whose exact value
0 cancels on one side only), and its entries to within ``ULPS`` units of
double rounding of the moduli they are formed from.  On the models every
entry of a product is a single term a * b, which numpy's complex multiply
may round with a fused multiply-add and a compiled sparse product without,
so the two can differ in the last bits of |a||b|.  General input (rows with
several entries, built by ``conftest.matrix_operator``) must agree to
rounding, and its ``hermitian`` flag must be scipy's.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from singtrace import hochschild, operators, triples
from singtrace.harness import ExperimentConfig, run
from singtrace.operators import (
    HERMITIAN_RTOL,
    Operator,
    commutator,
    eigenvalues,
)

from conftest import matrix_operator, weighted_shift

# Each part of a complex product a * b, rounded with or without a fused
# multiply-add, lies within one unit (2**-52) of |a||b| of the exact part,
# so two such products lie within 2 sqrt(2) units of each other; a sum or
# difference of two of them adds one rounding of the result on each side.
ULPS = 4


def canonical(mat):
    """A CSR copy without explicit zeros, with sorted, summed indices; an
    exactly diagonal matrix gets 0 added to its entries, as reading its
    diagonal into a ``diag`` operator does."""
    mat = sp.csr_matrix(mat, dtype=complex, copy=True)
    mat.sum_duplicates()
    mat.eliminate_zeros()
    mat.sort_indices()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    if mat.nnz and np.array_equal(rows, mat.indices):
        mat.data = mat.data + 0
    return mat


def assert_close(op, oracle, scale, cancels=False):
    """``op`` has the nonzero pattern of ``oracle`` exactly, and each entry
    lies within ``ULPS`` units of the entry of ``scale`` (the sum of |a||b|
    over the terms that formed it) at its position.

    With ``cancels`` (a difference AB - BA of two products) an entry whose
    exact value is 0 may cancel in one rounding and not in the other, so a
    position held on one side only is allowed when its entry is within the
    bound."""
    got, want = canonical(op.sparse()), canonical(oracle)
    if not cancels:
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
    gap = canonical(got - want)
    rows = np.repeat(np.arange(gap.shape[0]), np.diff(gap.indptr))
    size = np.asarray(sp.csr_matrix(scale)[rows, gap.indices]).ravel()
    assert (np.abs(gap.data) <= ULPS * np.finfo(float).eps * size).all()


def csr_product(X, Y):
    """X @ Y as a CSR backend forms it: a diagonal factor scales rows or
    columns in place, two sparse factors go through a sparse product."""
    if X.kind == "diag":
        return Y.sparse().multiply(X.diag()[:, None])
    if Y.kind == "diag":
        return X.sparse().multiply(Y.diag()[None, :])
    return X.sparse() @ Y.sparse()


def csr_commutator(A, B, moduli=False):
    """[A, B] with one diagonal factor a: (a_i - a_j) m_ij on the pattern of
    the other factor m, in one step; with ``moduli``, the scale
    (|a_i| + |a_j|) |m_ij| of that step."""
    a = (A if A.kind == "diag" else B).diag()
    m = (B if A.kind == "diag" else A).sparse().tocoo()
    if moduli:
        a, m.data = np.abs(a), np.abs(m.data)
    at_row, at_col = m.data * a[m.row], m.data * a[m.col]
    if moduli:
        data = at_row + at_col
    else:
        data = at_row - at_col if A.kind == "diag" else at_col - at_row
    return sp.csr_matrix((data, (m.row, m.col)), shape=m.shape)


def moduli(T):
    """The entrywise moduli of T as a scipy matrix."""
    return abs(T.sparse())


def single_term(*ops):
    """Whether every row of every op holds at most one entry."""
    return all(np.diff(op.sparse().indptr).max(initial=0) <= 1 for op in ops)


@pytest.fixture
def recorded(monkeypatch):
    """Every product, sum and diagonal/sparse commutator with a layered
    operand, as (kind, inputs, output)."""
    calls = []
    matmul, add = Operator.__matmul__, Operator.__add__
    comm = operators.commutator

    def record(kind, fn):
        def wrapped(a, b):
            out = fn(a, b)
            if "sparse" in (a.kind, b.kind):
                calls.append((kind, a, b, out))
            return out
        return wrapped

    monkeypatch.setattr(Operator, "__matmul__", record("product", matmul))
    monkeypatch.setattr(Operator, "__add__", record("sum", add))
    for module in (operators, triples, hochschild):
        monkeypatch.setattr(module, "commutator", record("commutator", comm))
    return calls


@pytest.mark.parametrize("model", [{"name": "circle", "N": 64},
                                   {"name": "nc_torus", "N": 16}],
                         ids=["circle64", "torus16"])
def test_model_operations_equal_the_scipy_oracle(recorded, model):
    report = run(ExperimentConfig(
        model=model, checks=["identity-suite", "cycle", "chern", "measure"]))
    assert report.all_passed
    kinds = {kind for kind, *_ in recorded}
    assert kinds == {"product", "sum", "commutator"}
    checked = 0
    for kind, a, b, out in recorded:
        if kind == "product":
            oracle, scale = csr_product(a, b), moduli(a) @ moduli(b)
        elif kind == "sum":
            oracle, scale = a.sparse() + b.sparse(), moduli(a) + moduli(b)
        elif {a.kind, b.kind} == {"diag", "sparse"}:
            oracle = csr_commutator(a, b)
            scale = csr_commutator(a, b, moduli=True)
        else:
            continue  # (AB) - (BA), recorded as its parts
        # every operator these checks form has at most one entry per row
        assert single_term(a, b)
        assert_close(out, oracle, scale)
        checked += 1
    assert checked > 50


def test_model_factors_equal_the_scipy_oracle(torus16):
    # the realized words against their scipy construction, and each
    # [b, word] against the one-step formula
    R, L = torus16.N + torus16.B, 2 * (torus16.N + torus16.B) + 1
    n1, n2 = torus16.lattice
    for word in [(0, 0), (1, 0), (0, 1), (-2, 3), (4, -4)]:
        a, b = word
        inside = (np.abs(n1 - a) <= R) & (np.abs(n2 - b) <= R)
        dst = np.flatnonzero(inside)
        src = dst - a * L - b
        lat = sp.csr_matrix(
            (np.exp(2j * np.pi * torus16.theta * b * (n1[dst] - a)), (dst, src)),
            shape=(L * L, L * L))
        want = sp.kron(sp.identity(2, dtype=complex, format="csr"), lat)
        op = torus16.factor("id", word)
        assert_close(op, want, abs(want))
        for kind, b_op in (("D", torus16.D), ("delta", torus16.absD),
                           ("F", torus16.F)):
            got = torus16.factor(kind, word)
            if b_op.kind == "diag":
                assert_close(got, csr_commutator(b_op, op),
                             csr_commutator(b_op, op, moduli=True))
            else:
                B, W = b_op.sparse(), op.sparse()
                assert_close(got, B @ W - W @ B,
                             abs(B) @ abs(W) + abs(W) @ abs(B), cancels=True)


def random_general(rng, n, hermitian=False):
    """Complex sparse input with up to 4 entries per row, a few on the
    diagonal, and exact duplicates of one position."""
    k = 3 * n
    row, col = rng.integers(0, n, k), rng.integers(0, n, k)
    val = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    mat = sp.coo_matrix((val, (row, col)), shape=(n, n)).tocsr()
    if hermitian:
        mat = mat + mat.conj().T
    return mat


def scipy_hermitian(mat):
    """The ``hermitian`` flag from scipy: max |X - X^H| within
    ``HERMITIAN_RTOL`` of 1 + max |X|."""
    scale = 1.0 + abs(mat).max()
    return bool(abs(mat - mat.conj().T).max() <= HERMITIAN_RTOL * scale)


@pytest.mark.parametrize("seed", range(6))
def test_general_input_agrees_with_scipy(seed):
    rng = np.random.default_rng(seed)
    n = 90  # above the component-split cutoff
    X, Y = random_general(rng, n), random_general(rng, n)
    A, B = matrix_operator(X), matrix_operator(Y)
    assert A.kind == "sparse" and len(A._data) > 1
    tol = 1e-14 * (1.0 + abs(X).max() + abs(Y).max())
    dense = lambda T: T.sparse().toarray()

    def close(got, want, scale=tol):
        assert np.abs(got - want).max(initial=0.0) <= scale

    close(dense(A), X.toarray())
    close(dense(A + B), (X + Y).toarray())
    close(dense(A - B), (X - Y).toarray())
    close(dense((2 - 1j) * A), ((2 - 1j) * X).toarray())
    close(A.diag(), X.diagonal())
    idx = rng.permutation(n)[: n // 2]
    close(dense(A.restrict(idx)), X[idx][:, idx].toarray())
    absx = abs(X)
    bound = np.sqrt(absx.sum(axis=0).max() * absx.sum(axis=1).max())
    assert abs(A.norm_bound() - bound) <= tol
    close(dense(A @ B), (X @ Y).toarray(), 1e-14 * (1.0 + abs(X @ Y).max()))
    H = random_general(rng, n, hermitian=True)
    T = matrix_operator(H)
    assert T.hermitian and not A.hermitian
    for op, mat in ((A, X), (B, Y), (T, H)):
        assert op.hermitian == scipy_hermitian(mat)
    want = np.sort(np.linalg.eigvalsh(H.toarray()))
    got = np.sort(eigenvalues(T).real)
    close(got, want, 1e-14 * (1.0 + np.abs(want).max()))
    # exact cancellation leaves no entry behind
    zero = (A + B) - (B + A) + (A - A) + ((A + A) - 2 * A)
    assert zero.sparse().nnz == 0 and zero.norm_bound() == 0.0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("where", ["off-diagonal", "diagonal"])
@pytest.mark.parametrize("factor", [0.0, 0.99, 1.01])
def test_hermitian_flag_on_repeated_columns(seed, where, factor):
    # hermitian input with several entries in one column,
    # perturbed at one entry to a gap of factor * HERMITIAN_RTOL * scale:
    # the flag is scipy's on either side of the bound
    rng = np.random.default_rng(seed)
    n = 60
    H = random_general(rng, n, hermitian=True).tolil()
    i, j = rng.choice(n, 2, replace=False)
    if where == "diagonal":
        j = i
    delta = factor * HERMITIAN_RTOL * (1.0 + abs(H).max())
    # an imaginary diagonal step opens a gap of twice its size
    H[i, j] += 0.5j * delta if i == j else delta
    H = H.tocsr()
    T = matrix_operator(H)
    # several runs hold an entry in one column
    assert len(T._data) > 1 and np.diff(T.sparse().tocsc().indptr).max() > 1
    assert scipy_hermitian(H) == (factor < 1.0)
    assert T.hermitian == scipy_hermitian(H)


def test_mixed_shift_sum_keeps_positions_unique(circle64):
    # u + u^-2 is two runs; removing each part again is exactly zero
    u = circle64.factor("id", (1,))
    v = circle64.factor("id", (-2,))
    mixed = u + 0.5 * v
    assert mixed.kind == "sparse" and len(mixed._data) == 2
    d = commutator(circle64.D, mixed)
    rest = d - commutator(circle64.D, u) - 0.5 * commutator(circle64.D, v)
    assert rest.sparse().nnz == 0 and rest.norm_bound() == 0.0
    crossed = (mixed @ mixed) - (u @ u) - 0.5 * (u @ v) - 0.5 * (v @ u)
    assert abs(crossed.sparse() - 0.25 * (v @ v).sparse()).max() <= 1e-15


class TestWeightedShift:
    def test_shift_and_diagonal(self):
        S = weighted_shift(np.array([1, 2, 3]), np.array([1.0, 2.0, 0.0]), "S")
        assert S.kind == "sparse" and S.label == "S"
        np.testing.assert_array_equal(
            S.sparse().toarray(), [[0, 1, 0], [0, 0, 2], [0, 0, 0]])
        D = weighted_shift(np.array([0, 3, 2]), np.array([1j, 5.0, 2.0]), "D")
        assert D.kind == "diag"
        np.testing.assert_array_equal(D.diag(), [1j, 0, 2])
        Z = weighted_shift(np.full(4, 4), np.ones(4), "0")
        assert Z.kind == "sparse" and Z.sparse().nnz == 0


def random_banded(rng, n, offsets, density=0.6):
    """Complex input on the given diagonals, each entry present with
    probability ``density``."""
    parts = []
    for k in offsets:
        rows = np.arange(max(0, -k), min(n, n - k))
        rows = rows[rng.random(rows.size) < density]
        val = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)
        parts.append(sp.coo_matrix((val, (rows, rows + k)), shape=(n, n)))
    return sp.csr_matrix(sum(parts))


def runs_of(T):
    """(offset, first row, size) of each run of T."""
    return [(k, lo, v.size) for k, lo, v in T._data]


def assert_trimmed(T):
    """Every run of a sparse T holds distinct offsets and nonzero ends, and
    stays inside the matrix."""
    n = T.dim
    offsets = [k for k, _lo, _v in T._data]
    assert len(set(offsets)) == len(offsets)
    for k, lo, v in T._data:
        assert v.dtype == np.complex128 and v[0] != 0 and v[-1] != 0
        assert 0 <= lo and lo + v.size <= n
        assert 0 <= lo + k and lo + k + v.size <= n


class TestRunAlgebra:
    """Products, sums, commutators and compressions of operators made of
    several runs, against scipy on the same matrices."""

    @staticmethod
    def close(op, want):
        want = sp.csr_matrix(want).toarray()
        got = op.sparse().toarray()
        assert np.abs(got - want).max(initial=0.0) <= 1e-14 * (
            1.0 + np.abs(want).max(initial=0.0))
        if op.kind == "sparse":
            assert_trimmed(op)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_several_offsets(self, seed):
        rng = np.random.default_rng(seed)
        n = 40
        X = random_banded(rng, n, rng.choice(np.arange(-6, 7), 3, replace=False))
        Y = random_banded(rng, n, rng.choice(np.arange(-6, 7), 3, replace=False))
        A, B = matrix_operator(X), matrix_operator(Y)
        assert A.kind == B.kind == "sparse" and len(A._data) > 1
        d = Operator(rng.standard_normal(n))
        self.close(A, X)
        self.close(A @ B, X @ Y)
        self.close(A + B, X + Y)
        self.close(A - B, X - Y)
        self.close(1j * A, 1j * X)
        self.close(d @ A, d.sparse() @ X)
        self.close(A @ d, X @ d.sparse())
        self.close(commutator(d, A), d.sparse() @ X - X @ d.sparse())
        self.close(commutator(A, d), X @ d.sparse() - d.sparse() @ X)
        self.close(commutator(A, B), X @ Y - Y @ X)
        idx = np.sort(rng.choice(n, 25, replace=False))
        self.close(A.restrict(idx), X[idx][:, idx])
        self.close(A.restrict(np.arange(7, 31)), X[7:31, 7:31])
        perm = rng.permutation(n)[:30]
        self.close(A.restrict(perm), X[perm][:, perm])

    def test_rows_that_never_meet(self):
        # A holds rows 0-4 in columns 3-7, B rows 0-2 only: A @ B meets no
        # row of B and is the exact zero; B @ A is one run
        n = 10
        A = weighted_shift(np.r_[np.arange(3, 8), np.full(5, n)],
                           np.r_[np.arange(1.0, 6.0), np.zeros(5)], "A")
        B = weighted_shift(np.r_[np.arange(1, 4), np.full(7, n)],
                           np.r_[np.ones(3), np.zeros(7)], "B")
        assert runs_of(A) == [(3, 0, 5)] and runs_of(B) == [(1, 0, 3)]
        assert (A @ B).is_zero() and (A @ B).sparse().nnz == 0
        BA = B @ A
        assert runs_of(BA) == [(4, 0, 3)]
        self.close(BA, B.sparse() @ A.sparse())
        # a sum of runs on one diagonal with a gap between them keeps the
        # gap as a zero inside one run
        G = weighted_shift(np.r_[np.full(6, n), 9, n, n, n],
                           np.r_[np.zeros(6), 2.0, 0, 0, 0], "G")
        gap = A + G
        assert runs_of(gap) == [(3, 0, 7)] and gap.sparse().nnz == 6
        self.close(gap, A.sparse() + G.sparse())

    def test_trim_to_one_entry_and_cancel_to_zero(self):
        n = 12
        u = weighted_shift(np.r_[np.arange(1, n), n], np.r_[np.ones(n - 1), 0],
                           "u")
        bump = np.zeros(n)
        bump[5] = 3.0
        one = Operator(bump) @ u  # row 5 only
        assert runs_of(one) == [(1, 5, 1)]
        self.close(one, sp.diags(bump) @ u.sparse())
        # the difference of two shifts that agree but in one row
        w = u + one
        assert runs_of(w - u) == [(1, 5, 1)]
        self.close(w - u, one.sparse())
        # a product whose rows overlap in one row
        tail = weighted_shift(np.r_[np.full(n - 1, n), n - 1],
                              np.r_[np.zeros(n - 1), 2.0], "t")  # (n-1, n-1)
        assert tail.kind == "diag"
        last = u @ tail  # row n - 2 meets it
        assert runs_of(last) == [(1, n - 2, 1)]
        # exact cancellation leaves no run, in products and sums alike
        assert (u - u).is_zero() and ((u @ u) - (u @ u)).is_zero()
        assert (w @ u - (w @ u)).is_zero()
        assert (0.0 * w).is_zero()

    def test_restrict_splits_a_run_by_new_offset(self):
        # offset 2 on dim 6: (0,2), (1,3), (2,4), (3,5); dropping index 3
        # keeps (0,2) at offset 2 and moves (2,4) to (2,3), offset 1
        n = 6
        col = np.r_[np.arange(2, 6), n, n]
        T = weighted_shift(col, np.r_[np.arange(1.0, 5.0), 0, 0], "T")
        assert runs_of(T) == [(2, 0, 4)]
        idx = np.array([0, 1, 2, 4, 5])
        R = T.restrict(idx)
        assert sorted(runs_of(R)) == [(1, 2, 1), (2, 0, 1)]
        self.close(R, T.sparse()[idx][:, idx])
        # a window keeps every offset
        W = T.restrict(np.arange(1, 5))
        assert runs_of(W) == [(2, 0, 2)]
        self.close(W, T.sparse()[1:5, 1:5])

    def test_weighted_shift_with_mixed_offsets(self):
        rng = np.random.default_rng(3)
        n = 30
        col = np.clip(np.arange(n) + rng.choice([-3, 0, 2, 5], n), 0, n)
        val = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        val[rng.random(n) < 0.2] = 0
        T = weighted_shift(col, val, "mixed")
        live = (col != n) & (val != 0)
        rows = np.flatnonzero(live)
        want = sp.coo_matrix((val[rows], (rows, col[rows])), shape=(n, n))
        assert T.sparse().toarray().tobytes() == want.toarray().tobytes()
        assert len(T._data) == np.unique(col[rows] - rows).size
        # runs come in order of their first row
        firsts = [lo for _k, lo, _v in T._data]
        assert firsts == sorted(firsts)
        assert_trimmed(T)


@pytest.mark.parametrize("N", [8, 64, 1024, 32768])
def test_circle_f_commutator_stores_one_entry(N):
    # [F, u] is nonzero only where the sign of the mode changes: its run
    # holds one value at any N
    model = triples.build_circle(N)
    for word in [(1,), (-1,)]:
        fu = model.factor("F", word)
        assert sum(v.size for _k, _lo, v in fu._data) <= 2
        assert model.compress(fu).sparse().nnz == fu.sparse().nnz == 1
