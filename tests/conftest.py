import numpy as np
import pytest
import scipy.sparse as sp

from singtrace.operators import Operator, weighted_shift, zero
from singtrace.triples import build_circle, build_diagonal_toy, build_nc_torus


@pytest.fixture(scope="session")
def circle64():
    return build_circle(64)


@pytest.fixture(scope="session")
def circle256():
    return build_circle(256)


@pytest.fixture(scope="session")
def torus12():
    return build_nc_torus(12)


@pytest.fixture(scope="session")
def torus16():
    return build_nc_torus(16)


@pytest.fixture(scope="session")
def toy1000():
    return build_diagonal_toy(1000, decay_exponent=1)


def random_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def matrix_operator(M, label="", hermitian=None):
    """An Operator with the entries of a square 2-d array or scipy matrix.

    Duplicate entries are summed and exact zeros dropped; the r-th entry of
    every row, in column order, goes into one :func:`weighted_shift`, and
    the shifts are added (they hold distinct positions, so the sum is
    exact).  An exactly diagonal matrix becomes a ``diag`` operator, and one
    with no entry the exact zero.  ``label`` and ``hermitian`` are passed on
    to :class:`Operator`.
    """
    csr = sp.csr_matrix(M, dtype=complex, copy=True)
    csr.sum_duplicates()  # sorts each row's columns too
    csr.eliminate_zeros()
    n = csr.shape[0]
    assert csr.shape == (n, n), csr.shape
    rows = np.repeat(np.arange(n), np.diff(csr.indptr))
    rank = np.arange(csr.nnz) - csr.indptr[rows]
    out = zero(n)
    for r in range(rank.max(initial=-1) + 1):
        mine = rank == r
        col = np.full(n, n)
        val = np.zeros(n, dtype=complex)
        col[rows[mine]] = csr.indices[mine]
        val[rows[mine]] = csr.data[mine]
        out = out + weighted_shift(col, val, label)
    return Operator(out, label=label, hermitian=hermitian)
