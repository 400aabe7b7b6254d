import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components

from singtrace import operators
from singtrace.operators import (
    ContractViolation,
    _component_labels,
    canonical_order,
    DomainError,
    Operator,
    anticommutator,
    commutator,
    eigenvalues,
    hermitian_calculus,
    phase_modulus,
    singular_values,
    zero,
)

from singtrace.triples import build_diagonal_toy, build_nc_torus, summability_report

from conftest import matrix_operator, random_unitary


def random_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestEigenvalues:
    def test_identity(self):
        spec = eigenvalues(Operator(np.ones(3)))
        np.testing.assert_allclose(spec, np.ones(3))

    def test_diagonal_canonical_order(self):
        spec = eigenvalues(Operator(np.array([1.0, 3.0, -2j])))
        # modulus 3, then tie |1|=|2i| broken: no tie here; |-2i|=2 > 1
        np.testing.assert_allclose(spec, [3.0, -2j, 1.0])

    def test_nilpotent(self):
        T = matrix_operator(np.array([[0.0, 1.0], [0.0, 0.0]]))
        np.testing.assert_allclose(eigenvalues(T), [0.0, 0.0], atol=1e-14)

    def test_tie_break_real_then_imag(self):
        vals = np.array([1j, -1j, 1.0, -1.0])
        spec = eigenvalues(Operator(vals))
        np.testing.assert_allclose(spec, [1.0, 1j, -1j, -1.0])

    def test_real_input_order_equals_three_key_order(self):
        # ties of +-x and +-0.0, with the imaginary parts of both signs
        rng = np.random.default_rng(21)
        x = rng.choice([2.5, -2.5, 1.0, -1.0, 0.0, -0.0, 7.0], size=400)
        signed = x.astype(complex)
        signed.imag[::3] = -0.0
        for vals in (x, x.astype(complex), signed):
            full = np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))
            want = vals[full]
            got = canonical_order(vals)
            assert got.tobytes() == want.tobytes()

    def test_ordered_input_is_returned_as_the_sort_leaves_it(self):
        # ordered input with ties of +-x, +-0.0 and complex ties comes back
        # itself; one adjacent swap, or a NaN, takes the sort
        def lexsorted(vals):
            return vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]

        rng = np.random.default_rng(23)
        x = rng.choice([2.5, -2.5, 1.0, -1.0, 0.0, -0.0, 7.0], size=400)
        signed = x.astype(complex)
        signed.imag[::3] = -0.0
        z = rng.choice([3.0, -3.0, 3j, -3j, 1 + 1j, 1 - 1j, -1 + 1j, 0.0,
                        -0.0], size=400)
        for vals in (x, x.astype(complex), signed, z):
            ordered = lexsorted(vals)
            assert canonical_order(ordered) is ordered
            for i in rng.integers(0, vals.size - 1, size=30):
                swapped = ordered.copy()
                swapped[[i, i + 1]] = swapped[[i + 1, i]]
                assert (canonical_order(swapped).tobytes()
                        == lexsorted(swapped).tobytes())
            with_nan = ordered.copy()
            with_nan[7] = np.nan
            assert (canonical_order(with_nan).tobytes()
                    == lexsorted(with_nan).tobytes())

    @pytest.mark.parametrize("case", [
        "tie-heavy", "nan", "signed-zeros", "real-only", "ordered"])
    def test_one_sort_equals_the_three_key_lexsort(self, case):
        # one stable sort on the modulus, then a lexsort of the tied runs,
        # gives np.lexsort's permutation bit for bit: NaNs tie with each
        # other, +0.0 and -0.0 tie, and already ordered input stays itself
        rng = np.random.default_rng(31)
        n = 2000
        if case == "tie-heavy":  # a few moduli, each on many points
            vals = rng.choice([3.0, -3.0, 3j, -3j, 0.6 + 0.8j, 0.8 - 0.6j,
                               -0.6 + 0.8j, -1.0, 1.0, 1j], size=n)
        elif case == "nan":
            vals = rng.choice([2.0, -2.0, 2j, np.nan, complex(np.nan, 1.0),
                               complex(1.0, np.nan), np.inf, -np.inf * 1j],
                              size=n)
        elif case == "signed-zeros":
            vals = rng.choice([0.0, -0.0, 1.0, -1.0], size=n).astype(complex)
            vals.imag = rng.choice([0.0, -0.0, 1.0], size=n)
        elif case == "real-only":
            vals = rng.choice([2.5, -2.5, 0.0, -0.0, np.nan, 7.0], size=n)
            vals = np.concatenate([vals, rng.standard_normal(n)])
        else:
            vals = rng.standard_normal(n) + 1j * rng.choice([0.0, 1.0], n)
            vals = vals[np.lexsort((-vals.imag, -vals.real, -np.abs(vals)))]
        for v in (vals, vals[::-1], vals[rng.permutation(vals.size)]):
            want = v[np.lexsort((-v.imag, -v.real, -np.abs(v)))]
            got = canonical_order(v)
            assert got.dtype == v.dtype and got.tobytes() == want.tobytes()
        if case == "ordered":
            assert canonical_order(vals) is vals

    @pytest.mark.parametrize("block", [1, 2, 5, 64])
    def test_order_checks_see_every_adjacent_pair(self, block, monkeypatch):
        # canonical_order checks the order on one block of moduli at a
        # time; a swapped pair anywhere, across a block boundary too, is out
        # of order
        monkeypatch.setattr(operators, "_MODULI_BLOCK", block)
        k = np.arange(23)
        for ordered in (np.linspace(3.0, 1.0, k.size) * np.exp(1j * k),
                        np.linspace(3.0, 1.0, k.size) * (-1.0) ** k):
            assert canonical_order(ordered) is ordered
            for i in range(k.size - 1):
                swapped = ordered.copy()
                swapped[[i, i + 1]] = swapped[[i + 1, i]]
                got = canonical_order(swapped)
                assert got is not swapped
                assert got.tobytes() == ordered.tobytes()
        for short in (np.array([]), np.array([2.0]), np.array([1.0, 2.0])):
            assert canonical_order(short).tobytes() == short[::-1].tobytes()

    def test_matches_dense_lapack_on_block_structure(self):
        # the component-split path must agree with a direct dense solve
        rng = np.random.default_rng(5)
        blocks = [random_complex(rng, k) for k in (2, 3, 5, 8)]
        direct = np.concatenate([np.linalg.eigvals(b) for b in blocks])
        n = sum(b.shape[0] for b in blocks)
        mat = np.zeros((n, n), dtype=complex)
        pos = 0
        for b in blocks:
            k = b.shape[0]
            mat[pos:pos + k, pos:pos + k] = b
            pos += k
        perm = rng.permutation(n)
        mat = mat[np.ix_(perm, perm)]
        T = matrix_operator(sp.csr_matrix(mat))
        got = np.sort_complex(eigenvalues(T))
        np.testing.assert_allclose(np.sort_complex(direct), got, atol=1e-10)

    @staticmethod
    def _blocks_2x2():
        rng = np.random.default_rng(41)
        drawn = [random_complex(rng, 2) * s
                 for s in (1e-150, 1.0, 1e150) for _ in range(200)]
        c = 0.0111345
        special = [np.zeros((2, 2)),
                   [[2.0, -1.5], [0.0, 0.5j]],  # triangular
                   [[0.0, 1.0], [0.0, 0.0]],  # nilpotent Jordan block
                   [[1.5 - 1j, 2.0], [-0.5, 1.5 - 1j]],  # equal diagonal, bc < 0
                   [[1.0, -2.0], [3.0, 0.5]],  # real, a complex pair
                   [[0.0, 1j * c], [1j * c, 0.0]],  # the parity pairing's
                   [[0.0, -1j * c], [-1j * c, 0.0]]]
        return np.array(drawn + special, dtype=complex)

    def test_closed_form_2x2_matches_lapack(self):
        # each block's pair, matched either way round, within 8 eps of the
        # block's largest modulus; LAPACK's own error reaches about 6.5 eps
        blocks = self._blocks_2x2()
        got, want = operators._eigvals(blocks), np.linalg.eigvals(blocks)
        assert got.shape == want.shape == (blocks.shape[0], 2)
        gap = np.minimum(np.abs(got - want).max(axis=1),
                         np.abs(got - want[:, ::-1]).max(axis=1))
        bound = 8 * np.finfo(float).eps * np.abs(blocks).max(axis=(1, 2))
        assert np.all(gap <= bound)
        assert np.all(got[[-7, -5]] == 0.0)  # the zero and nilpotent blocks
        np.testing.assert_array_equal(got[-2], [1j * 0.0111345, -1j * 0.0111345])

    def test_closed_form_2x2_sizes_above_two_go_to_lapack(self):
        blocks = random_complex(np.random.default_rng(43), 3)[None]
        assert (operators._eigvals(blocks).tobytes()
                == np.linalg.eigvals(blocks).tobytes())

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1, np.inf)])
    def test_non_finite_2x2_block_is_a_factorization_error(self, bad):
        # never a NaN spectrum: the split raises as LAPACK does on a larger
        # one; nor a finite one from the hermitian path, which would read one
        # triangle only, so an operator with a non-finite entry is not
        # hermitian
        mat = np.zeros((5, 5), dtype=complex)
        mat[0, 0], mat[3, 3], mat[0, 3], mat[3, 0] = 1.0, 2.0, bad, 0.5
        mat[1, 2], mat[2, 1], mat[4, 4] = 3.0, 1j, 1.0
        T = matrix_operator(mat, label="bad")
        assert not T.hermitian
        with pytest.raises(operators.FactorizationError, match="'bad'"):
            eigenvalues(T)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, complex(1, np.inf)])
    def test_complex_diagonal_with_an_inf_entry_is_not_hermitian(self, bad):
        # its bound HERMITIAN_RTOL (1 + max|d|) is inf, which every imaginary
        # part meets: such a diagonal is not hermitian, so its spectrum keeps
        # every entry, 2j too, where the hermitian path would take the real
        # parts.  A real diagonal holding a NaN stays hermitian, so a NaN V
        # makes every heat sum NaN
        d = np.array([1, 2j, bad])
        T = Operator(d)
        assert not T.hermitian
        np.testing.assert_array_equal(np.sort_complex(eigenvalues(T)),
                                      np.sort_complex(d))
        assert Operator(np.array([1.0, np.nan])).hermitian

    def test_hermitian_spectra_are_float64(self):
        # the real parts of the complex path bit for bit, on the diagonal,
        # layered and split paths; a non-hermitian spectrum stays complex
        rng = np.random.default_rng(29)
        H = rng.standard_normal((80, 80))
        H = H + H.T
        H[np.abs(H) < 1.0] = 0.0  # several components
        for T in (Operator(rng.standard_normal(300)), matrix_operator(H),
                  matrix_operator(H.astype(complex)), zero(100)):
            assert T.hermitian
            assert eigenvalues(T).dtype == np.float64
        np.testing.assert_allclose(eigenvalues(matrix_operator(H)),
                                   canonical_order(np.linalg.eigvalsh(H)),
                                   atol=1e-10)
        T = matrix_operator(random_complex(rng, 20))
        assert eigenvalues(T).dtype == np.complex128

    def test_ordered_hermitian_diagonal_is_its_own_spectrum(self):
        d = np.array([3.0, -2.0, 1.0, -0.5])
        assert eigenvalues(Operator(d)) is d
        assert eigenvalues(Operator(d[::-1])).tobytes() == d.tobytes()

    def test_sum_equals_trace(self):
        rng = np.random.default_rng(0)
        T = matrix_operator(random_complex(rng, 40))
        total = eigenvalues(T).sum()
        tr = np.trace(T.sparse().toarray())
        assert abs(total - tr) <= 1e-10 * (1.0 + abs(tr))


class TestSingularValues:
    def test_harmonic_diagonal(self):
        mu = singular_values(Operator(np.array([1.0, 0.5, 1 / 3])))
        np.testing.assert_allclose(mu, [1.0, 0.5, 1 / 3])

    def test_zero_matrix(self):
        mu = singular_values(matrix_operator(np.zeros((4, 4))))
        np.testing.assert_allclose(mu, 0.0)

    def test_exact_zero_is_a_zero_stride_view(self):
        # the exact zero (no layer) has no entry to take: its singular
        # values are a read-only view of one 0.0 with stride 0, as its
        # eigenvalues are, not an array of dim zeros
        n = 1000
        mu = singular_values(zero(n))
        assert mu.strides == (0,) and not mu.flags.writeable
        assert mu.tobytes() == np.zeros(n).tobytes()

    def test_jordan_block(self):
        # oracle: |T| = sqrt(T^H T) = diag(0, 2) by direct computation
        T = np.array([[0.0, 2.0], [0.0, 0.0]])
        oracle = np.sqrt(np.linalg.eigvalsh(T.conj().T @ T))[::-1]
        mu = singular_values(matrix_operator(T))
        np.testing.assert_allclose(mu, oracle, atol=1e-12)
        np.testing.assert_allclose(mu, [2.0, 0.0], atol=1e-12)

    def test_unitary_invariance(self):
        rng = np.random.default_rng(11)
        T = random_complex(rng, 30)
        U = random_unitary(rng, 30)
        W = random_unitary(rng, 30)
        a = singular_values(matrix_operator(T))
        b = singular_values(matrix_operator(U @ T @ W))
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_normal_matches_eigenvalue_moduli(self):
        rng = np.random.default_rng(3)
        U = random_unitary(rng, 25)
        d = rng.standard_normal(25) + 1j * rng.standard_normal(25)
        T = matrix_operator(U @ np.diag(d) @ U.conj().T)
        np.testing.assert_allclose(
            singular_values(T), np.sort(np.abs(d))[::-1], atol=1e-10)


    @pytest.mark.parametrize("d, ordered", [
        (1.0 / (np.arange(1000) + 1.0), True),
        (np.array([3.0, 2.0, 2.0, -2.0, 1.0, 0.0, 0.0]), True),
        (np.array([2.0, 1.0 + 1.0j, -1.0j, 0.5, 0.0]), True),
        (np.array([1.0, 0.0, -0.0, 0.0]), True),
        (np.array([-0.0, 0.0, -0.0]), True),
        (np.array([5.0]), True),
        (np.array([]), True),
        (np.array([2.0, np.nan, 1.0]), False),
        (np.array([np.nan, 2.0, 1.0]), False),
        (np.array([1.0, 2.0, 0.5]), False),
    ], ids=["harmonic", "tied", "complex-tied", "signed-zeros",
            "only-zeros", "one", "empty", "nan-inside", "nan-first",
            "unordered"])
    def test_diagonal_equals_the_sort_path(self, d, ordered, monkeypatch):
        # moduli already non-increasing skip the sort (np.sort is taken
        # away); a NaN or an out-of-order pair takes it, and both paths give
        # the values of np.sort
        want = np.sort(np.abs(d))[::-1]
        T = Operator(d)
        if ordered:
            monkeypatch.setattr(np, "sort", None)
        got = singular_values(T)
        monkeypatch.undo()
        assert got.tobytes() == want.tobytes()

def _eigen_path_case(case, rng):
    """(T, its dense matrix, the dtype of its spectrum) for one output path
    of :func:`eigenvalues`."""
    if case == "ordered-diagonal":
        d = np.array([3.0, -2.0, 1.0, -0.5, 0.0])
        return Operator(d), np.diag(d), np.float64
    if case == "unordered-diagonal":
        d = rng.standard_normal(40) + 1j * rng.standard_normal(40)
        return Operator(d), np.diag(d), np.complex128
    if case == "exact-zero":
        return zero(7), np.zeros((7, 7)), np.float64
    M = rng.standard_normal((30, 30)) + 1j * rng.standard_normal((30, 30))
    M[np.abs(M) < 1.2] = 0.0  # several components
    if case == "hermitian-split":
        M = M + M.conj().T
        return matrix_operator(M), M, np.float64
    return matrix_operator(M), M, np.complex128


@pytest.mark.parametrize("case", [
    "ordered-diagonal", "unordered-diagonal", "exact-zero", "hermitian-split",
    "general-split"])
def test_eigenvalues_output_paths(case):
    # each path returns the plain array in canonical order, float64 for a
    # hermitian T and complex128 otherwise; the ordered real diagonal is
    # returned itself and the exact zero is a read-only zero-stride view
    T, M, dtype = _eigen_path_case(case, np.random.default_rng(43))
    got = eigenvalues(T)
    assert type(got) is np.ndarray and got.dtype == dtype
    assert got.shape == (T.dim,)
    order = np.lexsort((-got.imag, -got.real, -np.abs(got)))
    assert got[order].tobytes() == got.tobytes()
    np.testing.assert_allclose(np.sort_complex(got),
                               np.sort_complex(np.linalg.eigvals(M)),
                               atol=1e-10)
    if case == "ordered-diagonal":
        assert got is T.diag()
    if case == "exact-zero":
        assert got.strides == (0,) and not got.flags.writeable


def _singular_path_case(case, rng):
    """(T, its dense matrix) for one output path of :func:`singular_values`."""
    if case == "psd-diagonal":
        d = 1.0 / (np.arange(50) + 1.0)
        return Operator(d), np.diag(d)
    if case == "diagonal-to-sort":
        d = rng.standard_normal(50) + 1j * rng.standard_normal(50)
        return Operator(d), np.diag(d)
    if case == "exact-zero":
        return zero(7), np.zeros((7, 7))
    n = 30
    if case == "one-entry-per-line":
        M = np.zeros((n, n), dtype=complex)
        cols = rng.permutation(n)[:n - 3]  # three empty rows and columns
        M[np.arange(cols.size), cols] = rng.standard_normal(cols.size) + 1j
        return matrix_operator(M), M
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M[np.abs(M) < 1.2] = 0.0  # several components, lines of many entries
    return matrix_operator(M), M


@pytest.mark.parametrize("case", [
    "psd-diagonal", "diagonal-to-sort", "exact-zero", "one-entry-per-line",
    "svd-split"])
def test_singular_values_output_paths(case, monkeypatch):
    # each path returns a plain float64 array in non-increasing order; the
    # psd diagonal is returned itself and the exact zero is a read-only
    # zero-stride view
    T, M = _singular_path_case(case, np.random.default_rng(47))
    if case == "one-entry-per-line":
        assert len(T._data) > 1
        monkeypatch.setattr(operators, "_component_blocks", None)
    if case == "svd-split":
        assert np.bincount(np.nonzero(M)[0]).max() > 1
    got = singular_values(T)
    monkeypatch.undo()
    assert type(got) is np.ndarray and got.dtype == np.float64
    assert got.shape == (T.dim,) and np.all(got[:-1] >= got[1:])
    np.testing.assert_allclose(got, np.linalg.svd(M, compute_uv=False),
                               rtol=0, atol=1e-10)
    if case == "psd-diagonal":
        assert got is T.diag()
    if case == "exact-zero":
        assert got.strides == (0,) and not got.flags.writeable


def torus_generator_commutators(N):
    """[F, u] and [F, [|D|, u]] of each torus generator u, compressed to the
    interior, as the summability check forms them."""
    model = build_nc_torus(N)
    ops = []
    for g in model.generators().values():
        ((word, _),) = g.terms
        ops.append(model.compress(model.factor("F", word)))
        ops.append(model.compress(commutator(model.F,
                                             model.factor("delta", word))))
    return ops


def svd_by_components(T):
    return np.sort(operators._split_values(
        T, lambda b: np.linalg.svd(b, compute_uv=False), np.abs))[::-1]


class TestDistinctColumnSingularValues:
    """Runs that hold at most one entry in each row and each column have a
    diagonal T*T: the singular values are the entries' moduli, found with
    no component split and no SVD."""

    @pytest.mark.parametrize("N, oracle", [
        (8, lambda T: np.linalg.svd(T.sparse().toarray(), compute_uv=False)),
        (16, svd_by_components),
    ], ids=["dense-svd-8", "component-svd-16"])
    def test_torus_commutators_match_the_svd(self, N, oracle, monkeypatch):
        ops = torus_generator_commutators(N)
        want = [oracle(T) for T in ops]

        def refuse(T):
            raise AssertionError("component split of a partial permutation")

        monkeypatch.setattr(operators, "_component_blocks", refuse)
        monkeypatch.setattr(np.linalg, "svd", refuse)
        for T, w in zip(ops, want):
            # the spinor swap F puts the two halves on two runs
            assert len(T._data) == 2
            np.testing.assert_allclose(singular_values(T), w,
                                       rtol=0, atol=1e-14)

    def test_torus_summability_calls_no_svd(self, monkeypatch):
        # the summability check takes the singular values of each compressed
        # [F, u] and [F, delta(u)] with no SVD
        def refuse(*args, **kwargs):
            raise AssertionError("SVD of a partial permutation")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        _, norms = summability_report(build_nc_torus(16))
        assert set(norms) == {
            "[F,U]", "[F,delta(U)]", "[F,V]", "[F,delta(V)]"}

    @pytest.mark.parametrize("M", [
        np.array([[0, 3, 4j], [0, 0, 0], [0, 0, 0]]),
        np.array([[0, 0, 0], [3, 0, 0], [4j, 0, 0]]),
    ], ids=["row", "column"])
    def test_two_entries_in_a_line_are_not_moduli(self, M):
        # one row (or column) holds 3 and 4j on two runs: its singular
        # value is 5, not the moduli 3 and 4
        T = matrix_operator(M)
        assert len(T._data) == 2
        np.testing.assert_allclose(singular_values(T), [5, 0, 0],
                                   rtol=0, atol=1e-14)

    def test_two_layers_go_through_the_split(self, monkeypatch):
        fu, _, fv, _ = torus_generator_commutators(8)
        T = fu + fv  # the shifts of U and V differ: two entries a row
        assert np.diff(T.sparse().indptr).max() == 2
        calls = []
        real = operators._component_blocks
        monkeypatch.setattr(operators, "_component_blocks",
                            lambda T: calls.append(T) or real(T))
        mu = singular_values(T)
        assert len(calls) == 1
        want = np.linalg.svd(T.sparse().toarray(), compute_uv=False)
        np.testing.assert_allclose(mu, want, rtol=0, atol=1e-12)


def real_diagonal(rng, n):
    """A random real diagonal operator with a few exact zeros (ker D)."""
    d = rng.standard_normal(n)
    d[rng.choice(n, size=n // 4, replace=False)] = 0.0
    return Operator(d)


def indicator(lo, hi, closed_lo=True, closed_hi=True):
    """The spectral projection E_T[lo, hi] as a function for hermitian_calculus."""
    return lambda s: (((s >= lo) if closed_lo else (s > lo))
                      & ((s <= hi) if closed_hi else (s < hi))).astype(float)


class TestSpectralProjection:
    def test_closed_left_half_line(self):
        T = Operator(np.array([-1.0, 0.0, 2.0]))
        P = hermitian_calculus(T, indicator(0.0, np.inf), "P")
        np.testing.assert_allclose(P.diag(), [0, 1, 1])

    def test_open_left_half_line(self):
        T = Operator(np.array([-1.0, 0.0, 2.0]))
        P = hermitian_calculus(T, indicator(0.0, np.inf, closed_lo=False),
                               "P")
        np.testing.assert_allclose(P.diag(), [0, 0, 1])

    def test_above_spectrum_is_zero(self):
        T = Operator(np.array([-1.0, 0.0, 2.0]))
        P = hermitian_calculus(T, indicator(5.0, np.inf), "P")
        assert P.norm_bound() == 0.0

    def test_idempotent_and_commutes(self):
        T = real_diagonal(np.random.default_rng(7), 20)
        P = hermitian_calculus(T, indicator(0.0, np.inf), "P")
        assert (P @ P - P).norm_bound() == 0.0
        assert commutator(P, T).norm_bound() == 0.0

    def test_requires_hermitian(self):
        with pytest.raises(ContractViolation):
            hermitian_calculus(matrix_operator(np.array([[0, 1], [0, 0]])),
                               indicator(0, 1), "P")


class TestHermitianCalculus:
    def test_gaussian(self):
        T = Operator(np.array([0.0, 1.0]))
        out = hermitian_calculus(T, lambda s: np.exp(-np.abs(s) ** 2),
                                 "exp(-T^2)")
        np.testing.assert_allclose(out.diag().real, [1.0, np.exp(-1)])

    def test_circle_resolvent_weight(self, circle64):
        out = hermitian_calculus(circle64.D, lambda s: (1 + s ** 2) ** -0.5,
                                 "(1+D^2)^(-1/2)")
        k = circle64.modes
        np.testing.assert_allclose(out.diag().real, (1 + k ** 2) ** -0.5)

    def test_indicator_reproduces_projection(self):
        T = real_diagonal(np.random.default_rng(2), 15)
        w, v = np.linalg.eigh(T.sparse().toarray())
        P1 = matrix_operator(v[:, w > 0.5] @ v[:, w > 0.5].conj().T)
        P2 = hermitian_calculus(T, lambda s: (s > 0.5).astype(float), "P")
        assert (P1 - P2).norm_bound() <= 1e-10

    def test_identity_function_returns_input(self):
        T = real_diagonal(np.random.default_rng(9), 12)
        out = hermitian_calculus(T, lambda s: s, "T")
        assert out.kind == "diag"
        np.testing.assert_array_equal(out.diag(), T.diag())

    def test_eigenvalue_multiset_mapped(self):
        T = real_diagonal(np.random.default_rng(13), 18)
        f = lambda s: np.cos(s) + s ** 2
        got = np.sort(eigenvalues(hermitian_calculus(T, f, "f(T)")).real)
        want = np.sort(f(np.linalg.eigvalsh(T.sparse().toarray())))
        np.testing.assert_allclose(got, want, atol=1e-10)

    @pytest.mark.parametrize("T", [
        matrix_operator(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))),
        matrix_operator(np.array([[1.0, 1j], [-1j, 2.0]])),
    ], ids=["swap", "dense-hermitian"])
    def test_non_diagonal_operator_is_a_contract_violation(self, T):
        assert T.hermitian and T.kind == "sparse"
        with pytest.raises(ContractViolation, match="hermitian diagonal"):
            hermitian_calculus(T, np.exp, "exp(T)")
        with pytest.raises(ContractViolation, match="hermitian diagonal"):
            phase_modulus(T)

    @pytest.mark.parametrize("f", [lambda s: 1.0, np.sum,
                                   lambda s: s[:, None]],
                             ids=["constant", "reduction", "reshaped"])
    def test_result_of_another_shape_is_a_contract_violation(self, f):
        T = Operator(np.array([0.5, 1.0, 2.0]))
        with pytest.raises(ContractViolation, match="returned shape"):
            hermitian_calculus(T, f, "f(T)")

    def test_domain_error_names_eigenvalue(self):
        T = Operator(np.array([0.0, 2.0]))
        with pytest.raises(DomainError):
            hermitian_calculus(T, lambda s: 1.0 / s, "T^-1")


class TestPhaseModulus:
    def test_small_diagonal(self):
        F, absD = phase_modulus(Operator(np.array([-2.0, 0.0, 3.0])))
        np.testing.assert_allclose(F.diag().real, [-1, 1, 1])
        np.testing.assert_allclose(absD.diag().real, [2, 0, 3])

    def test_psd_gives_identity_phase(self):
        F, _ = phase_modulus(Operator(np.array([0.5, 0.0, 3.0])))
        np.testing.assert_allclose(F.diag().real, 1.0)

    def test_circle_dirac_sign(self, circle64):
        F, _ = phase_modulus(circle64.D)
        want = np.where(circle64.modes >= 0, 1.0, -1.0)
        np.testing.assert_allclose(F.diag().real, want)

    def test_polar_properties_dense(self):
        # a dense 2-d array that is exactly diagonal is a diagonal operator
        d = real_diagonal(np.random.default_rng(21), 25).diag()
        D = matrix_operator(np.diag(d))
        assert D.kind == "diag"
        F, absD = phase_modulus(D)
        assert (F @ F - Operator(np.ones(25))).norm_bound() == 0.0
        assert F.hermitian
        assert (F @ absD - D).norm_bound() == 0.0
        assert min(np.linalg.eigvalsh(absD.sparse().toarray())) >= 0.0


class TestPolarStorage:
    """A psd diagonal D is its own |D|, and its F is a read-only zero-stride
    identity; a sign bit anywhere gives fresh arrays."""

    def test_toy_modulus_is_d_and_phase_a_read_only_one(self):
        model = build_diagonal_toy(1000)
        d, phase = model.D.diag(), model.F.diag()
        assert model.absD.diag() is d
        assert phase.strides == (0,) and not phase.flags.writeable
        assert phase.tobytes() == np.ones(1000).tobytes()
        F, absD = phase_modulus(Operator(np.array([0.5, 0.0, 3.0])))
        assert absD.diag().tobytes() == np.array([0.5, 0.0, 3.0]).tobytes()
        assert F.diag().strides == (0,)

    @pytest.mark.parametrize("d", [[0.5, -1.0, 3.0], [0.5, -0.0, 3.0],
                                   [0.5, np.nan, 3.0]],
                             ids=["negative", "negative-zero", "nan"])
    def test_sign_bit_or_nan_gives_fresh_arrays(self, d):
        d = np.array(d)
        F, absD = phase_modulus(Operator(d))
        for got, want in ((F.diag(), np.where(d >= 0.0, 1.0, -1.0)),
                          (absD.diag(), np.abs(d))):
            assert not np.shares_memory(got, d)
            assert got.flags.writeable and got.strides == (8,)
            assert got.tobytes() == want.tobytes()


class TestAlgebra:
    def test_commutator_with_identity(self):
        rng = np.random.default_rng(1)
        T = matrix_operator(random_complex(rng, 10))
        assert commutator(T, Operator(np.ones(10))).norm_bound() == 0.0

    def test_grading_anticommutes_with_dirac(self, torus12):
        assert anticommutator(torus12.Gamma, torus12.D).norm_bound() <= 1e-10

    def test_trace_cyclicity(self):
        rng = np.random.default_rng(4)
        A = matrix_operator(random_complex(rng, 30))
        B = matrix_operator(random_complex(rng, 30))
        ab = np.trace((A @ B).sparse().toarray())
        ba = np.trace((B @ A).sparse().toarray())
        assert abs(ab - ba) <= 1e-12 * (1.0 + abs(ab))

    def test_dimension_mismatch(self):
        with pytest.raises(ContractViolation):
            commutator(Operator(np.ones(3)), Operator(np.ones(4)))
        with pytest.raises(ContractViolation):
            commutator(Operator(np.ones(3)), matrix_operator(sp.eye(4, k=1)))

    def test_diagonal_sparse_commutator_matches_dense(self):
        rng = np.random.default_rng(5)
        n = 40
        d = Operator(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        S = matrix_operator(sp.random(n, n, density=0.1, random_state=6,
                               format="csr") * (1 + 2j))
        for A, B in ((d, S), (S, d)):
            a, b = A.sparse().toarray(), B.sparse().toarray()
            got = commutator(A, B)
            assert got.kind == "sparse"
            np.testing.assert_allclose(got.sparse().toarray(), a @ b - b @ a,
                                       atol=1e-12)

    def test_diagonal_commutator_is_an_empty_sparse_operator(self):
        rng = np.random.default_rng(7)
        n = 100
        # a real diagonal (as D, |D| and F of every model) against a complex
        # one: AB - BA is exactly zero too
        A = Operator(rng.standard_normal(n))
        B = Operator(rng.standard_normal(n) + 1j * rng.standard_normal(n))
        got = commutator(A, B)
        assert got.kind == "sparse" and got.sparse().nnz == 0
        np.testing.assert_array_equal(got.sparse().toarray(),
                                      ((A @ B) - (B @ A)).sparse().toarray())
        with pytest.raises(ContractViolation):
            commutator(A, Operator(np.ones(n + 1)))

    def test_sparse_input_with_explicit_zeros_left_untouched(self):
        mat = sp.csr_matrix((np.array([1.0, 0.0, 2.0], dtype=complex),
                             np.array([1, 0, 0]), np.array([0, 2, 3])),
                            shape=(2, 2))
        T = matrix_operator(mat)
        assert mat.nnz == 3 and T.sparse().nnz == 2


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(2, 16))
def test_singular_values_unitarily_invariant_property(seed, n):
    rng = np.random.default_rng(seed)
    T = random_complex(rng, n)
    U = random_unitary(rng, n)
    W = random_unitary(rng, n)
    a = singular_values(matrix_operator(T))
    b = singular_values(matrix_operator(U @ T @ W))
    np.testing.assert_allclose(a, b, atol=1e-9 * (1 + a[0]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 31), n=st.integers(1, 40))
def test_phase_modulus_properties_property(seed, n):
    D = real_diagonal(np.random.default_rng(seed), n)
    F, absD = phase_modulus(D)
    assert F.kind == absD.kind == "diag"
    np.testing.assert_array_equal((F @ F).diag(), np.ones(n))
    np.testing.assert_array_equal((F @ absD).diag(), D.diag())
    np.testing.assert_array_equal(F.diag()[D.diag() == 0], 1.0)


def permuted_blocks(rng, backend):
    """Randomly permuted block-diagonal hermitian matrix, block sizes {1, 2, 3, 5}.

    Returns the operator on the given backend, its dense matrix and the
    sorted index set of each block, which are the pattern's components.
    """
    sizes = rng.permutation([1, 2, 3, 5] * 7)  # dim 77, above the split cutoff
    perm = rng.permutation(int(sizes.sum()))
    mat = np.zeros((perm.size, perm.size), dtype=complex)
    comps = []
    for start, size in zip(np.cumsum(sizes) - sizes, sizes):
        idx = np.sort(perm[start:start + size])
        h = random_complex(rng, size)
        mat[np.ix_(idx, idx)] = h + h.conj().T
        comps.append(idx)
    data = sp.csr_matrix(mat) if backend == "sparse" else mat
    return matrix_operator(data), mat, comps


@pytest.mark.parametrize("backend", ["sparse", "dense"])
class TestComponentSplitReference:
    """The grouped split against a plain loop over the known components."""

    def test_eigenvalues_exact(self, backend):
        T, mat, comps = permuted_blocks(np.random.default_rng(31), backend)
        want = np.concatenate(
            [np.linalg.eigvalsh(mat[np.ix_(idx, idx)]) for idx in comps])
        np.testing.assert_array_equal(eigenvalues(T),
                                      canonical_order(want.astype(complex)))

    def test_singular_values_exact(self, backend):
        T, mat, comps = permuted_blocks(np.random.default_rng(32), backend)
        want = np.concatenate([np.linalg.svd(mat[np.ix_(idx, idx)],
                                             compute_uv=False) for idx in comps])
        np.testing.assert_array_equal(singular_values(T),
                                      np.sort(want)[::-1])


class TestFlags:
    def test_hermitian_flag_validated(self):
        with pytest.raises(ContractViolation):
            matrix_operator(np.array([[0.0, 1.0], [0.0, 0.0]]), hermitian=True)

    @pytest.mark.parametrize("data", [
        np.eye(3), np.zeros((3, 3)), np.zeros((2, 2, 2)), np.float64(1.0),
        sp.eye(3, format="csr"), sp.csr_array((3, 3)), sp.diags([1.0, 2.0])],
        ids=["2-d", "2-d-zero", "3-d", "0-d", "csr-matrix", "csr-array",
             "dia-matrix"])
    def test_only_a_diagonal_or_an_operator_is_data(self, data):
        # general entries have no constructor: layered operators come from
        # weighted_shift and the algebra
        with pytest.raises(ContractViolation, match="1-d array"):
            Operator(data, label="T")

    def test_exact_diagonal_dense_compacts(self):
        T = matrix_operator(np.diag([1.0, 2.0]))
        assert T.kind == "diag"

    @pytest.mark.parametrize("data", [np.zeros((3, 3)),
                                      sp.csr_matrix((3, 3), dtype=complex),
                                      sp.diags(np.zeros(3), format="csr")],
                             ids=["dense", "empty-csr", "explicit-zeros"])
    def test_exact_zero_stays_sparse(self, data):
        T = matrix_operator(data)
        assert T.kind == "sparse" and T.sparse().nnz == 0
        np.testing.assert_array_equal(T.diag(), np.zeros(3))

    def test_exact_zero_skips_split_and_dense_norm(self, monkeypatch):
        from singtrace import operators

        def refuse(*args, **kwargs):
            raise AssertionError("factorization of an exact zero")

        monkeypatch.setattr(operators, "_component_blocks", refuse)
        monkeypatch.setattr(np.linalg, "norm", refuse)
        n = 256
        Z = matrix_operator(sp.csr_matrix((n, n), dtype=complex))
        np.testing.assert_array_equal(eigenvalues(Z), np.zeros(n))
        np.testing.assert_array_equal(singular_values(Z), np.zeros(n))

    def test_zero_is_the_layerless_exact_zero(self):
        Z = zero(5)
        assert Z.is_zero() and Z.kind == "sparse" and Z.dim == 5
        assert Z.hermitian and Z.sparse().nnz == 0
        spec = eigenvalues(Z)
        assert spec.strides == (0,) and spec.tolist() == [0.0] * 5
        assert commutator(Operator(np.arange(5.0)), Operator(np.ones(5))).is_zero()
        # a diagonal of zeros is stored as a diagonal, not as the exact zero
        assert not Operator(np.zeros(5)).is_zero()
        assert not Operator(np.ones(5)).is_zero()

    def test_dense_input_stored_as_csr(self):
        T = matrix_operator(np.array([[1.0, 2.0], [0.0, 3.0]]))
        assert T.kind == "sparse"
        np.testing.assert_array_equal(T.sparse().toarray(),
                                      [[1.0, 2.0], [0.0, 3.0]])

    def test_hermitian_detected_once_on_first_read(self, monkeypatch):
        calls = []
        real = Operator._detect_hermitian

        def counting(self):
            calls.append(self.label)
            return real(self)

        monkeypatch.setattr(Operator, "_detect_hermitian", counting)
        T = matrix_operator(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        T.relabel("S")
        assert calls == []
        assert T.hermitian
        assert len(calls) == 1
        assert T.hermitian
        # relabel carries the cached flag
        assert T.relabel("S").hermitian
        assert len(calls) == 1

    def test_sparse_input(self):
        mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        T = matrix_operator(mat)
        assert T.kind == "sparse"
        assert T.hermitian

    def test_complex_diagonal_wrapped_without_copy(self):
        d = np.exp(1j * np.arange(5.0))
        assert Operator(d).diag() is d
        narrow = d.astype(np.complex64)
        assert Operator(narrow).diag().dtype == np.complex128

    def test_real_diagonal_stays_float64_without_copy(self):
        real = np.arange(5.0)
        T = Operator(real)
        assert T.diag() is real and T.hermitian
        for data in (np.arange(5), np.arange(5.0, dtype=np.float32),
                     np.array([True, False]), [0.5, 2.0]):
            assert Operator(data).diag().dtype == np.float64
        assert Operator(np.ones(3)).diag().dtype == np.float64

    @pytest.mark.parametrize("n", [3, 70])
    def test_exact_zero_restricts_to_empty_csr(self, n):
        Z = matrix_operator(sp.csr_matrix((100, 100)), label="Z")
        R = Z.restrict(np.arange(n) * (99 // n))
        assert R.kind == "sparse" and R.sparse().shape == (n, n)
        assert R.sparse().nnz == 0 and R.label == "Z"


def _as_complex(T):
    """T with a real diagonal cast to complex; any other T itself."""
    if T.kind == "diag" and not np.iscomplexobj(T.diag()):
        return Operator(T.diag().astype(complex), label=T.label)
    return T


def _same_bits(got, want):
    """Real parts bit for bit, imaginary parts up to the sign of a zero."""
    np.testing.assert_array_equal(np.real(got).view(np.int64),
                                  np.real(want).view(np.int64))
    np.testing.assert_array_equal(np.imag(got), np.imag(want))


def _assert_same_bits(got, want):
    """Equal entry for entry: the same kind and runs (offset and first
    row), and :func:`_same_bits` values."""
    assert (got.kind, got.dim) == (want.kind, want.dim)
    if got.kind == "diag":
        _same_bits(got.diag(), want.diag())
        return
    assert len(got._data) == len(want._data)
    for (got_k, got_lo, got_v), (want_k, want_lo, want_v) in zip(
            got._data, want._data):
        assert got_v.dtype == np.complex128
        assert (got_k, got_lo) == (want_k, want_lo)
        _same_bits(got_v, want_v)


_BINARY = {
    "R@P": lambda r, p: r @ p,
    "P@R": lambda r, p: p @ r,
    "R+P": lambda r, p: r + p,
    "P-R": lambda r, p: p - r,
    "[R,P]": commutator,
    "[P,R]": lambda r, p: commutator(p, r),
    "{R,P}": anticommutator,
}


class TestRealDiagonalParity:
    """Every operation on a real diagonal gives the bits it gives on the
    same diagonal stored as complex (numpy casts the real operand to
    complex exactly), up to the sign of a zero imaginary part."""

    @staticmethod
    def _operands(model):
        from singtrace.triples import resolvent_weight

        reals = {"|D|": model.absD, "weight": resolvent_weight(model, model.p)}
        if model.Gamma is None:
            reals.update({"D": model.D, "F": model.F})
        else:
            reals["Gamma"] = model.Gamma
        words = [model.realize(g) for g in model.generators().values()]
        rng = np.random.default_rng(5)
        partners = dict(reals)
        partners.update({
            "word": words[0], "words": model.realize(
                sum(model.generators().values(), model.monomial(
                    (2,) * model.word_rank))),
            "[D,word]": commutator(model.D, words[-1]),
            "phases": Operator(np.exp(2j * np.pi * rng.random(model.dim))),
        })
        if model.Gamma is not None:
            partners.update({"D": model.D, "F": model.F})
        return reals, partners

    @pytest.mark.parametrize("name", ["circle64", "torus16"])
    def test_binary_operations(self, name, request):
        model = request.getfixturevalue(name)
        reals, partners = self._operands(model)
        for rname, R in reals.items():
            assert R.kind == "diag" and R.diag().dtype == np.float64, rname
            for P in partners.values():
                for op in _BINARY.values():
                    got = op(R, P)
                    want = op(_as_complex(R), _as_complex(P))
                    _assert_same_bits(got, want)
                    if name == "circle64":
                        _same_bits(eigenvalues(got),
                                   eigenvalues(want))

    @pytest.mark.parametrize("name", ["circle64", "torus16"])
    def test_unary_operations(self, name, request):
        model = request.getfixturevalue(name)
        reals, _ = self._operands(model)
        for R in reals.values():
            C = _as_complex(R)
            assert R.hermitian and C.hermitian
            _assert_same_bits(R.restrict(model.interior),
                              C.restrict(model.interior))
            _assert_same_bits(2.5 * R, 2.5 * C)
            _assert_same_bits(-R, -C)
            _same_bits(eigenvalues(R), eigenvalues(C))
            _same_bits(singular_values(R), singular_values(C))
            assert R.hermitian and C.hermitian
            assert R.norm_bound() == C.norm_bound()

    @pytest.mark.parametrize("name", ["circle64", "torus16"])
    def test_chained_sums(self, name, request):
        """Real diagonals added one after another into a sparse operator
        land on its run of offset 0, whose values are added in place: every
        run must stay complex for that sum to exist."""
        model = request.getfixturevalue(name)
        reals, partners = self._operands(model)
        for P in partners.values():
            got, want = P, _as_complex(P)
            for R in reals.values():
                got, want = R + got, _as_complex(R) + want
                _assert_same_bits(got, want)

    def test_real_diagonals_summed_into_one_group(self):
        M = np.zeros((3, 3), dtype=complex)
        M[0, 2] = M[2, 0] = 1
        M[1, 1] = 1j
        R = Operator(np.array([1.0, 0.0, 2.0])) + matrix_operator(M)
        got = Operator(np.ones(3)) + R
        want = (Operator(np.ones(3, dtype=complex))
                + (Operator(np.array([1, 0, 2], dtype=complex))
                   + matrix_operator(M)))
        _assert_same_bits(got, want)
        np.testing.assert_array_equal(got.sparse().toarray(), np.eye(3) + M
                                      + np.diag([1.0, 0.0, 2.0]))


@st.composite
def graphs(draw):
    """Edge lists (n, row, col): random edges, plus at times a long chain
    through a random permutation of the nodes."""
    n = draw(st.integers(1, 300))
    k = draw(st.integers(0, 2 * n))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    row, col = rng.integers(0, n, k), rng.integers(0, n, k)
    if draw(st.booleans()):
        perm = rng.permutation(n)
        stop = draw(st.integers(1, n))
        row = np.concatenate([row, perm[:stop - 1]])
        col = np.concatenate([col, perm[1:stop]])
    return n, row, col


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_component_labels_match_scipy(graph):
    n, row, col = graph
    mat = sp.coo_matrix((np.ones(row.size), (row, col)), shape=(n, n))
    _, want = connected_components(mat, directed=False)
    np.testing.assert_array_equal(_component_labels(n, row, col), want)


def test_long_reversed_chain_labels():
    n = 100_000
    nodes = np.arange(n)[::-1]
    labels = _component_labels(n, nodes[:-1], nodes[1:])
    assert not labels.any()


def reference_blocks(T):
    """The component groups of T from scipy's labels of every node: sizes in
    order of first appearance, components by first index, rows and columns
    ascending, entries added into zeros."""
    n = T.dim
    coo = T.sparse().tocoo()
    mat = np.zeros((n, n), dtype=complex)
    mat[coo.row, coo.col] += coo.data
    pattern = sp.coo_matrix((np.ones(coo.nnz), (coo.row, coo.col)), shape=(n, n))
    _, labels = connected_components(pattern, directed=False)
    groups = {}
    for k in range(labels.max() + 1):
        idx = np.flatnonzero(labels == k)
        groups.setdefault(idx.size, []).append(mat[np.ix_(idx, idx)])
    return [np.stack(blocks) for blocks in groups.values()]


@pytest.mark.parametrize("pattern", [
    "one-entry", "diagonal-singletons", "node-0-shared", "no-singleton"])
def test_split_labels_only_touched_nodes(pattern):
    # nodes with no entry are zero 1 x 1 components: the groups equal those
    # of a labelling of every node, bit for bit and in the same order
    rng = np.random.default_rng(41)
    n = 300
    mat = np.zeros((n, n), dtype=complex)
    if pattern == "one-entry":
        mat[7, 250] = 2.0 - 1.0j
    elif pattern == "diagonal-singletons":
        for i, j in rng.integers(0, n, (12, 2)):
            mat[i, j] = rng.standard_normal() + 1j * rng.standard_normal()
        mat[[3, 90, 299], [3, 90, 299]] = [1.5, -0.0 - 2.0j, 1.0 - 0.0j]
    elif pattern == "node-0-shared":
        mat[0, 1] = mat[1, 2] = mat[2, 0] = 1.0j
        mat[[5, 200], [200, 5]] = -3.0
    else:
        perm = rng.permutation(n)
        mat[perm[0::2], perm[1::2]] = rng.standard_normal(n // 2)
    T = matrix_operator(mat)
    got, want = operators._component_blocks(T), reference_blocks(T)
    assert [g.shape for g in got] == [w.shape for w in want]
    for g, w in zip(got, want):
        assert g.tobytes() == w.tobytes()


def test_cli_suite_quick_loads_no_scipy(tmp_path):
    # scipy is a test oracle only: neither the import of the CLI nor any
    # lazy import on the path of `suite quick` may load it.  Nor may the run
    # load numpy.ma (np.unique without return_index does, in numpy 2.4), or
    # numpy.random (identity-suite draws from the standard library's
    # generator); older numpy versions load them with numpy itself, so only
    # the run's imports count
    import singtrace

    src = os.path.dirname(os.path.dirname(singtrace.__file__))
    code = ("import sys, singtrace.cli\n"
            "before = {'numpy.ma', 'numpy.random'} & set(sys.modules)\n"
            "rc = singtrace.cli.main(['suite', 'quick', '--out', sys.argv[1]])\n"
            "print(rc, sorted(m for m in sys.modules\n"
            "                 if m == 'scipy' or m.startswith('scipy.')),\n"
            "      sorted({'numpy.ma', 'numpy.random'} & set(sys.modules)\n"
            "             - before))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path / "quick")],
                         env=env, check=True, capture_output=True,
                         text=True).stdout
    assert out.splitlines()[-1] == "0 [] []"
