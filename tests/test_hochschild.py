import itertools
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace import hochschild, triples
from singtrace.hochschild import (
    Chain,
    antisymmetrized_cycle,
    appendix_identity_checks,
    bob_identity_check,
    boundary,
    ch_op,
    chain_from_json,
    chern,
    circle_winding_cycle,
    heat_cycle_trace,
    is_cycle,
    main_theorem_check,
    nc_torus_volume_cycle,
    omega,
    reduction_partial_sum_check,
    w_subset,
)
from singtrace.operators import ContractViolation, Operator
from singtrace.triples import (
    SpectralTripleModel,
    _interior_weight,
    build_circle,
    build_diagonal_toy,
    build_nc_torus,
    invertible_double,
    summability_report,
)


def brute_force_circle_chern(N=64):
    """Independent oracle: (1/2) Tr(F [F,u*] [F,u]) from scratch with numpy."""
    modes = np.arange(-N, N + 1)
    dim = modes.size
    F = np.diag(np.where(modes >= 0, 1.0, -1.0).astype(complex))
    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim - 1):
        u[i + 1, i] = 1.0  # mode k -> k+1
    ustar = u.conj().T
    fc = lambda a: F @ a - a @ F
    return 0.5 * np.trace(F @ fc(ustar) @ fc(u))


def brute_force_torus(R, theta, interior_radius):
    """From-scratch realization of the torus character data.

    Rebuilds the whole construction with plain numpy loops (independent
    index maps, phases, polar data) and returns (chern, omega diagonal
    entry), with the same conventions as the model: upper spinor block
    d1 + i d2, graded phase on ker D, volume cycle with per-orientation
    inverses.

    Only the storage and the order of evaluation are chosen for speed and
    memory.  The lattice shifts and D have at most one entry per row and
    per column, so each is held as an index map (``dst``, ``val``): column i
    holds val[i] in row dst[i], and none where dst[i] < 0.  Products with a
    map are gathers and scatters, and G is held as its diagonal.  F is the
    one dense matrix.  D couples each mode only with its spinor partner, so F is the
    eigh sign of D on each of those 2 x 2 blocks.  A commutator [F, a] is
    applied to a block of columns Z as F (a Z) - a (F Z).  The interior trace
    of F G X reads only the interior columns of X, and Omega's corner entry
    is one row pushed through the products.
    """
    L = 2 * R + 1
    half = L * L
    n = 2 * half
    n1 = np.repeat(np.arange(-R, R + 1), L)
    n2 = np.tile(np.arange(-R, R + 1), L)
    lam = np.exp(2j * np.pi * theta)

    def lat_shift(a, b):
        """The map of kron(eye(2), M), M e_(x, y) = phase e_(x+a, y+b)."""
        dst = np.full(half, -1)
        val = np.zeros(half, dtype=complex)
        for i, (x, y) in enumerate(zip(n1, n2)):
            if abs(x + a) <= R and abs(y + b) <= R:
                dst[i] = (x + a + R) * L + (y + b + R)
                val[i] = np.exp(2j * np.pi * theta * b * x)
        return (np.concatenate([dst, np.where(dst >= 0, dst + half, -1)]),
                np.concatenate([val, val]))

    def left(M, Y):
        """M @ Y for a map M and a vector or matrix Y."""
        dst, val = M
        live = dst >= 0
        out = np.zeros(Y.shape, dtype=complex)
        out[dst[live]] = (val[live] if Y.ndim == 1 else val[live, None]) * Y[live]
        return out

    def right(Y, M):
        """Y @ M for a vector or matrix Y and a map M."""
        dst, val = M
        live = dst >= 0
        out = np.zeros(Y.shape[:-1] + dst.shape, dtype=complex)
        out[..., live] = Y[..., dst[live]] * val[live]
        return out

    U = lat_shift(1, 0)
    V = lat_shift(0, 1)
    shift = lat_shift(-1, -1)
    t_mat = (shift[0], lam * shift[1])   # (U V)^{-1}
    s_mat = shift                        # (V U)^{-1}
    w = 1j * n1 - n2
    # D = [[0, W], [W*, 0]], W = diag(w): column i of the upper half holds
    # conj(w_i) in the lower half, column half + i holds w_i in the upper
    D = (np.concatenate([np.arange(half) + half, np.arange(half)]),
         np.concatenate([w.conj(), w]))
    # the 2 x 2 blocks of D on (i, half + i), and F = sign(D) on each
    blocks = np.zeros((half, 2, 2), dtype=complex)
    blocks[:, 0, 1], blocks[:, 1, 0] = D[1][half:], D[1][:half]
    ww, vv = np.linalg.eigh(blocks)
    fb = (vv * np.where(ww >= 0, 1.0, -1.0)[:, None, :]) @ vv.conj().transpose(0, 2, 1)
    k0 = np.flatnonzero((n1 == 0) & (n2 == 0))[0]
    fb[k0] = [[0.0, 1.0], [1.0, 0.0]]   # the spinor swap on ker D
    up = np.arange(half)
    F = np.zeros((n, n), dtype=complex)
    F[up, up], F[up, up + half] = fb[:, 0, 0], fb[:, 0, 1]
    F[up + half, up], F[up + half, up + half] = fb[:, 1, 0], fb[:, 1, 1]
    g = np.concatenate([np.ones(half), -np.ones(half)])  # G = diag(g)

    inside = (np.abs(n1) <= interior_radius) & (np.abs(n2) <= interior_radius)
    idx = np.flatnonzero(np.concatenate([inside, inside]))
    # the corner entry of Omega = G (t cm(U) cm(V) - s cm(V) cm(U)), with
    # cm(a) = D a - a D taken on one row on the left, one column on the right
    i0 = idx[0]
    e0 = np.zeros(n)
    e0[i0] = 1.0
    row_cm = lambda r, a: right(right(r, D), a) - right(right(r, a), D)
    col_cm = lambda a: left(D, left(a, e0)) - left(a, left(D, e0))
    om_entry = g[i0] * (row_cm(right(e0, t_mat), U) @ col_cm(V)
                        - row_cm(right(e0, s_mat), V) @ col_cm(U))
    # the interior columns of X = fc(t) fc(U) fc(V) - fc(s) fc(V) fc(U),
    # fc(a) = F a - a F
    fc_apply = lambda a, Z: F @ left(a, Z) - left(a, F @ Z)
    fc_cols = lambda a: right(F, (a[0][idx], a[1][idx])) - left(a, F[:, idx])
    X = fc_apply(t_mat, fc_apply(U, fc_cols(V)))
    X -= fc_apply(s_mat, fc_apply(V, fc_cols(U)))
    GX = g[:, None] * X  # G is diagonal
    sign = (-1.0) ** (2 - 1)  # degree-2 parity normalization
    ch_val = sign * 0.5 * np.einsum("ij,ji->", F[idx], GX)
    return complex(ch_val), complex(om_entry)


class TestBoundary:
    def test_degree_one_gives_commutator(self, torus12):
        U = torus12.monomial((1, 0))
        V = torus12.monomial((0, 1))
        c = Chain.from_elements(torus12, [(1.0, [U, V])])
        b = boundary(c)
        # b(U (x) V) = UV - VU = (1 - lam) U V as words
        assert b.terms == {(((1, 1),), 0): 1.0 + 0j, (((1, 1),), 1): -1.0 + 0j}

    def test_circle_winding_is_cycle(self, circle64):
        assert is_cycle(circle_winding_cycle(circle64))

    def test_circle_one_chains_all_cycles(self, circle64):
        # commutative word algebra: every 1-chain closes
        u = circle64.monomial((1,))
        u2 = circle64.monomial((2,))
        c = Chain.from_elements(circle64, [(1.0, [u.adjoint(), u2])])
        assert is_cycle(c)

    def test_torus_noncycle_detected(self, torus12):
        U = torus12.monomial((1, 0))
        V = torus12.monomial((0, 1))
        c = Chain.from_elements(torus12, [(1.0, [U.adjoint(), V])])
        assert not is_cycle(c)

    def test_degree_two_noncycle(self, circle64):
        m = circle64
        c = Chain.from_elements(
            m, [(1.0, [m.monomial((-2,)), m.monomial((1,)), m.monomial((1,))])])
        assert not is_cycle(c)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 31), degree=st.integers(1, 4))
    def test_boundary_squares_to_zero(self, seed, degree):
        m = build_nc_torus(8)
        rng = np.random.default_rng(seed)
        combos = []
        for _ in range(3):
            # Gaussian-integer coefficients: their products and sums are
            # exact in double precision, so is_zero() is an exact test
            slots = [m.monomial((int(rng.integers(-2, 3)),
                                 int(rng.integers(-2, 3))),
                                coeff=complex(*rng.choice((-3, -2, -1, 1, 2, 3),
                                                          size=2)))
                     for _ in range(degree + 1)]
            combos.append((1.0, slots))
        c = Chain.from_elements(m, combos)
        if degree >= 2:
            assert boundary(boundary(c)).is_zero()
        else:
            assert boundary(c).degree == 0


class TestVolumeCycle:
    def test_exact_cycle_for_both_twists(self):
        for theta in (0.0, np.sqrt(0.5)):
            m = build_nc_torus(8, theta=theta)
            assert is_cycle(nc_torus_volume_cycle(m))

    def test_perm_sign_is_the_permutation_matrix_determinant(self):
        for q in range(1, 5):
            for perm in itertools.permutations(range(q)):
                det = np.linalg.det(np.eye(q)[list(perm)])
                assert hochschild._perm_sign(perm) == round(det)

    def test_nondegenerate_and_twist_independent(self, torus16):
        m0 = build_nc_torus(16, theta=0.0)
        ch_irr = chern(nc_torus_volume_cycle(torus16), torus16).value
        ch_com = chern(nc_torus_volume_cycle(m0), m0).value
        assert abs(ch_irr) > 1.0
        assert abs(ch_irr - ch_com) <= 0.02 * abs(ch_irr)

    def test_kappa_scaling(self, torus12):
        c1 = nc_torus_volume_cycle(torus12)
        c3 = 3.0 * nc_torus_volume_cycle(torus12)
        assert chern(c3, torus12).value == pytest.approx(
            3.0 * chern(c1, torus12).value)


class TestOmega:
    def test_circle_winding_gives_interior_identity(self, circle64):
        om = omega(circle_winding_cycle(circle64), circle64)
        eye = Operator(np.ones(om.dim, dtype=complex))
        assert (om - eye).norm_bound() <= 1e-12

    def test_toy_vanishes(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        assert omega(c, toy1000).norm_bound() == 0.0

    def test_linearity(self, circle64):
        u = circle64.monomial((1,))
        u2 = circle64.monomial((2,))
        c1 = Chain.from_elements(circle64, [(1.0, [u.adjoint(), u])])
        c2 = Chain.from_elements(circle64, [(1.0, [u2.adjoint(), u2])])
        combo = c1 + 2.0 * c2
        gap = omega(combo, circle64) - (
            omega(c1, circle64) + 2.0 * omega(c2, circle64))
        assert gap.norm_bound() <= 1e-12

    def test_any_degree_is_realized(self, circle64):
        # Omega takes a chain of any degree: a parity-mismatched cycle is a
        # legitimate input of the pairing checks
        u = circle64.monomial((1,))
        c = Chain.from_elements(circle64, [(1.0, [u, u, u])])
        assert omega(c, circle64).dim == circle64.interior.size

    def test_ch_and_w_linear_in_chain(self, torus12):
        m = torus12
        c1 = nc_torus_volume_cycle(m)
        U = m.monomial((1, 0))
        V = m.monomial((0, 1))
        c2 = Chain.from_elements(m, [(1.0, [U.adjoint(), U, V])])
        combo = c1 + (0.5 - 2j) * c2
        for mapper in (lambda c: ch_op(c, m),
                       lambda c: w_subset(c, m, frozenset({2}))):
            gap = mapper(combo) - (mapper(c1) + (0.5 - 2j) * mapper(c2))
            assert gap.norm_bound() <= 1e-12


def _window(model, radius):
    """The basis mask of the modes within ``radius``, read from each basis
    vector's coordinates (on the toy, the first ``radius`` modes)."""
    if model.name == "circle":
        return np.abs(model.modes) <= radius
    if model.name == "nc_torus":
        n1, n2 = (np.tile(n, 2) for n in model.lattice)  # both spinor halves
        return (np.abs(n1) <= radius) & (np.abs(n2) <= radius)
    return np.arange(model.dim) < radius


class TestChern:
    def test_circle_matches_brute_force(self, circle64):
        oracle = brute_force_circle_chern(64)
        assert oracle == pytest.approx(2.0)
        got = chern(circle_winding_cycle(circle64), circle64)
        assert got.value == pytest.approx(oracle, abs=1e-10)

    def test_convergence_record(self, circle256):
        got = chern(circle_winding_cycle(circle256), circle256)
        assert set(got.history) == {64, 128, 256}
        assert max(got.deltas) <= 1e-10  # rank-one ch: exact at every window

    def test_toy_vanishes(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        assert chern(c, toy1000).value == 0.0

    @pytest.mark.parametrize("degree", [1, 2])
    def test_exact_zero_ch_reads_no_diagonal(self, degree, monkeypatch):
        # every toy ch(c) is the exact zero: each window's trace is the
        # zero sum, with no diagonal and no window index built, and its
        # bits (the sign of each zero included) are those of the sum
        model = build_diagonal_toy(64)
        w = model.monomial((1,))
        slots = [w.adjoint(), w, w.adjoint()][:degree + 1]
        c = Chain.from_elements(model, [(1.0, slots)])
        assert ch_op(c, model).is_zero()

        def refuse(*args):
            raise AssertionError("read the exact zero's diagonal or a window")

        monkeypatch.setattr(Operator, "diag", refuse)
        monkeypatch.setattr(type(model), "interior_at", refuse)
        got = chern(c, model)
        sign = (-1.0) ** (degree - 1)
        want = complex(sign * 0.5 * np.zeros(model.dim, dtype=complex).sum())
        assert set(got.history) == {16, 32, 64}
        for value in [got.value, *got.history.values()]:
            assert (np.array([value]).tobytes()
                    == np.array([want]).tobytes())

    def test_wrong_parity_vanishes_exactly(self, circle64):
        c = antisymmetrized_cycle(
            circle64, [circle64.monomial((1,)), circle64.monomial((2,))])
        assert abs(chern(c, circle64).value) <= 1e-12

    def test_torus_trace_class_convergence(self, torus16):
        got = chern(nc_torus_volume_cycle(torus16), torus16)
        deltas = got.deltas
        assert deltas[-1] <= deltas[0]
        assert deltas[-1] <= 0.05 * abs(got.value)

    @pytest.mark.parametrize("name", ["circle64", "torus12", "toy1000"])
    def test_window_sums_match_isin_masks(self, name, request):
        # each nested window's trace sums the interior modes within the
        # radius; the mask np.isin of the two sorted index arrays gives
        model = request.getfixturevalue(name)
        c = {"circle64": circle_winding_cycle, "torus12": nc_torus_volume_cycle,
             "toy1000": lambda m: Chain.from_elements(
                 m, [(1.0, [m.monomial((-1,)), m.monomial((1,))])])}[name](model)
        got = chern(c, model)
        diag = ch_op(c, model).diag()
        sign = (-1.0) ** (c.degree - 1)
        assert len(got.history) == 3
        for radius, value in got.history.items():
            inside = np.isin(model.interior,
                             np.flatnonzero(_window(model, radius)))
            want = complex(sign * 0.5 * diag[inside].sum())
            assert complex(value) == want

    @pytest.mark.parametrize("name", ["circle64", "torus12", "toy1000"])
    def test_interior_at_selects_the_modes_within_the_radius(
            self, name, request):
        model = request.getfixturevalue(name)
        for radius in (0, 3, model.N // 4, model.N, model.N + model.B + 1):
            np.testing.assert_array_equal(
                model.interior_at(radius),
                np.flatnonzero(_window(model, radius)))
        # the builders' interior is the window at N
        np.testing.assert_array_equal(model.interior_at(model.N),
                                      model.interior)
        if name != "toy1000":
            np.testing.assert_array_equal(model.interior_at(model.N),
                                          model._interior)

    def test_torus_matches_brute_force(self, torus12):
        # fully independent reconstruction (own index maps, phases and
        # polar data)
        ch_oracle, om_entry = brute_force_torus(
            torus12.N + torus12.B, torus12.theta, torus12.N)
        got = chern(nc_torus_volume_cycle(torus12), torus12)
        assert got.value == pytest.approx(ch_oracle, abs=1e-10)
        om = omega(nc_torus_volume_cycle(torus12), torus12)
        assert om.diag()[0] == pytest.approx(om_entry, abs=1e-10)
        assert om_entry == pytest.approx(-2j, abs=1e-12)


class TestWMaps:
    def test_full_subset_uses_all_deltas(self, torus12):
        c = nc_torus_volume_cycle(torus12)
        manual = None
        m = torus12
        from singtrace.operators import commutator

        for (words, lam), coeff in sorted(c.terms.items()):
            piece = Operator(m.realize_word(words[0]))
            for w in words[1:]:
                piece = piece @ commutator(m.absD, Operator(m.realize_word(w)))
            piece = (coeff * m.eval_phase(lam)) * piece
            manual = piece if manual is None else manual + piece
        manual = m.compress(m.Gamma @ manual)
        got = w_subset(c, m, frozenset({1, 2}))
        assert (got - manual).norm_bound() <= 1e-12

    def test_circle_w1_is_delta_pattern(self, circle64):
        c = circle_winding_cycle(circle64)
        got = w_subset(c, circle64, {1})
        k = circle64.modes[circle64.interior]
        want = np.where(k >= 0, 1.0, -1.0)
        np.testing.assert_allclose(got.diag().real, want, atol=1e-12)

    def test_invalid_subset(self, circle64):
        c = circle_winding_cycle(circle64)
        with pytest.raises(ContractViolation):
            w_subset(c, circle64, frozenset({7}))


class TestIdentities:
    def test_bob_circle(self, circle64):
        rep = bob_identity_check(circle_winding_cycle(circle64), circle64)
        assert rep["residual_norm"] <= 1e-10

    def test_bob_torus(self, torus16):
        rep = bob_identity_check(nc_torus_volume_cycle(torus16), torus16)
        assert rep["residual_norm"] <= 1e-10

    def test_bob_toy(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        rep = bob_identity_check(c, toy1000)
        assert rep["residual_norm"] <= 1e-10

    def test_appendix_circle_shift(self, circle64):
        u = circle64.monomial((1,))
        rep = appendix_identity_checks(u, u, circle64)
        assert max(rep.values()) <= 1e-10

    def test_appendix_identity_slot(self, circle64):
        one = circle64.monomial((0,))
        u = circle64.monomial((1,))
        rep = appendix_identity_checks(one, u, circle64)
        assert rep["delta_square_residual"] <= 1e-12
        assert rep["f_delta_residual"] <= 1e-12

    def test_appendix_random_torus_words(self, torus12):
        rng = np.random.default_rng(31)
        for _ in range(3):
            a = torus12.monomial(tuple(rng.integers(-2, 3, size=2)),
                                 coeff=complex(*rng.standard_normal(2)))
            b = torus12.monomial(tuple(rng.integers(-2, 3, size=2)),
                                 coeff=complex(*rng.standard_normal(2)))
            rep = appendix_identity_checks(a, b, torus12)
            assert max(rep.values()) <= 1e-10

    def test_coboundary_duality(self, circle64):
        # theta(tensor) = Tr(a0 ... a_{q-1} T0) with a rapidly decaying
        # kernel: evaluating theta on the symbolic boundary agrees with the
        # alternating matrix-product formula
        m = circle64
        from singtrace.operators import hermitian_calculus

        T0 = hermitian_calculus(m.D, lambda s: np.exp(-0.25 * s ** 2), "T0")
        trace = lambda T: np.trace(T.sparse().toarray())

        def theta(words, lam, coeff):
            acc = Operator(m.realize_word(words[0]))
            for w in words[1:]:
                acc = acc @ Operator(m.realize_word(w))
            return coeff * m.eval_phase(lam) * trace(acc @ T0)

        def eval_chain(chain):
            return sum(theta(words, lam, coeff)
                       for (words, lam), coeff in chain.terms.items())

        rng = np.random.default_rng(7)
        slots = [m.monomial((int(rng.integers(-2, 3)),),
                            coeff=complex(*rng.standard_normal(2)))
                 for _ in range(3)]
        c = Chain.from_elements(m, [(1.0, slots)])
        side_symbolic = eval_chain(boundary(c))
        # alternating sum with matrix products instead of word products
        mats = [m.realize(s) for s in slots]
        side_matrix = (
            trace(mats[0] @ mats[1] @ mats[2] @ T0)
            - trace(mats[0] @ (mats[1] @ mats[2]) @ T0)
            + trace(mats[2] @ mats[0] @ mats[1] @ T0))
        assert abs(side_symbolic - side_matrix) <= 1e-10


class TestReduction:
    def test_circle_difference_bounded(self, circle256):
        # the difference is a localized sign-change defect near mode 0: its
        # partial sums are constant over the window (slope and residual ~ 0)
        rep = reduction_partial_sum_check(
            circle_winding_cycle(circle256), circle256)
        assert all(gate.holds for gate in rep["gates"])
        assert abs(rep["fit"].z) <= 1e-10
        assert rep["fit"].residual_sup <= 1e-10
        assert rep["sum_sup"] <= 2.0

    def test_toy_trivial(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        rep = reduction_partial_sum_check(c, toy1000)
        assert all(gate.holds for gate in rep["gates"])

    def test_torus(self, torus16):
        # |z| decays with N (0.14 at N=16, 0.07 at 32, 0.03 at 64); the
        # check's 0.1 gate is an acceptance-scale bound, so at N=16 the two
        # conditions it gates are asserted with 0.2 on the slope
        rep = reduction_partial_sum_check(nc_torus_volume_cycle(torus16),
                                          torus16)
        assert abs(rep["fit"].z) <= 0.2
        (resid,) = [g for g in rep["gates"] if g.name == "residual_sup"]
        assert rep["fit"].residual_sup == resid.value <= resid.bound

    def test_rejects_non_cycle(self, torus12):
        U = torus12.monomial((1, 0))
        V = torus12.monomial((0, 1))
        c = Chain.from_elements(torus12, [(1.0, [U.adjoint(), V])])
        with pytest.raises(ContractViolation):
            reduction_partial_sum_check(c, torus12)

    def test_degree_mismatch_rejected(self, circle64):
        # a degree-2 cycle on the odd circle (p = 1): Omega realizes it, but
        # the reduction pairs it with |D0|^{-p} and W_p(c), which need degree p
        c = antisymmetrized_cycle(
            circle64, [circle64.monomial((1,)), circle64.monomial((2,))])
        assert is_cycle(c) and c.degree == 2
        with pytest.raises(ContractViolation, match="does not match model p=1"):
            reduction_partial_sum_check(c, circle64)


class TestHeatCycle:
    def test_circle_slope_near_two(self):
        m = build_circle(512)
        rep = heat_cycle_trace(circle_winding_cycle(m), m)
        assert rep["z"] == pytest.approx(2.0, abs=0.2)

    def test_toy_identically_zero(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        rep = heat_cycle_trace(c, toy1000)
        assert np.max(np.abs(rep["values"])) == 0.0
        assert rep["z"] == 0.0

    def test_torus_matches_chern(self, torus16):
        c = nc_torus_volume_cycle(torus16)
        ch = chern(c, torus16).value
        rep = heat_cycle_trace(c, torus16)
        assert abs(rep["z"] - ch) <= 0.15 * abs(ch)

    def test_degree_mismatch_rejected(self, circle64):
        c = antisymmetrized_cycle(
            circle64, [circle64.monomial((1,)), circle64.monomial((2,))])
        assert is_cycle(c) and c.degree == 2
        with pytest.raises(ContractViolation, match="does not match model p=1"):
            heat_cycle_trace(c, circle64)

    def test_values_match_fsum_of_unmasked_heat_sums(self, circle256):
        # at N=256 the top of the default s-grid puts (s d)^2 above the
        # engine's underflow cut at the top of the interior spectrum; every
        # sample must match the full formula, summed exactly, to the
        # rounding of a reordered sum
        c = circle_winding_cycle(circle256)
        rep = heat_cycle_trace(c, circle256)
        s_grid = np.asarray(rep["s"])
        double = invertible_double(circle256)
        p = double.p
        wp = w_subset(c, double, frozenset({p}))
        xdiag = (wp @ hochschild._interior_inverse_powers(double)[1]).diag()
        d = double.compress(double.absD).diag().real
        assert np.any((s_grid[-1] * d) ** (p + 1) >= 1000.0)
        for s, got in zip(s_grid, rep["values"]):
            terms = xdiag * np.exp(-(s * d) ** (p + 1))
            want = complex(math.fsum(terms.real), math.fsum(terms.imag))
            assert abs(got - want) <= 1e-14 * math.fsum(np.abs(terms))


class TestMainTheorem:
    def test_circle_character(self, circle256):
        rep = main_theorem_check(circle_winding_cycle(circle256), circle256)
        assert rep["mode"] == "character"
        assert rep["chern"] == pytest.approx(2.0, abs=1e-10)
        assert rep["fit"].z == pytest.approx(2.0, abs=0.1)
        assert rep["heat"].z == pytest.approx(2.0, abs=0.1)
        assert all(gate.holds for gate in rep["gates"])

    def test_torus_character(self, torus16):
        rep = main_theorem_check(nc_torus_volume_cycle(torus16), torus16)
        ch = rep["chern"]
        assert abs(ch + 4j * np.pi) <= 0.05 * abs(ch)
        assert all(gate.holds for gate in rep["gates"])

    def test_torus_heat_residual_falls_with_n(self):
        # the heat grid stops where the last reliable weight eigenvalue's
        # heat factor is 1e-3, short of the square's corner modes, so the
        # heat fit improves with N like the other two estimates
        resid = []
        for N in (32, 64, 128):
            m = build_nc_torus(N)
            rep = main_theorem_check(nc_torus_volume_cycle(m), m)
            resid.append(rep["heat"].residual_sup)
        assert resid[0] > resid[1] > resid[2]

    def test_toy_degenerate(self, toy1000):
        w = toy1000.monomial((1,))
        c = Chain.from_elements(toy1000, [(1.0, [w.adjoint(), w])])
        rep = main_theorem_check(c, toy1000)
        assert rep["chern"] == 0.0
        assert abs(rep["fit"].z) <= 1e-10
        assert all(gate.holds for gate in rep["gates"])

    def test_circle_parity_vanishing(self, circle256):
        c = antisymmetrized_cycle(
            circle256, [circle256.monomial((1,)), circle256.monomial((2,))])
        rep = main_theorem_check(c, circle256)
        assert rep["mode"] == "parity_vanishing"
        assert abs(rep["chern"]) <= 1e-8
        assert abs(rep["fit"].z) <= 0.05
        assert all(gate.holds for gate in rep["gates"])

    def test_torus_parity_vanishing(self, torus16):
        U = torus16.monomial((1, 0))
        c = Chain.from_elements(torus16, [(1.0, [U.adjoint(), U])])
        rep = main_theorem_check(c, torus16)
        assert rep["mode"] == "parity_vanishing"
        assert abs(rep["chern"]) <= 1e-8
        assert abs(rep["fit"].z) <= 0.05
        assert all(gate.holds for gate in rep["gates"])

    def test_rejects_non_cycle(self, torus12):
        U = torus12.monomial((1, 0))
        V = torus12.monomial((0, 1))
        c = Chain.from_elements(torus12, [(1.0, [U.adjoint(), V])])
        with pytest.raises(ContractViolation):
            main_theorem_check(c, torus12)


class TestPerturbationSurrogate:
    def test_double_commutator_difference_trace_norm_bounded(self):
        # || a0 [D,a1] |D0|^-1 - a0 [D0,a1] |D0|^-1 ||_1 stays bounded in N
        from singtrace.operators import commutator, hermitian_calculus, singular_values

        norms = []
        for N in (32, 64, 128):
            m = build_circle(N)
            double = invertible_double(m)
            u = m.monomial((1,))
            A = m.realize(u.adjoint())
            U = m.realize(u)
            inv = hermitian_calculus(double.absD, lambda x: 1.0 / x, "|D0|^-1")
            diff = (A @ commutator(m.D, U) @ inv) - (A @ commutator(double.D, U) @ inv)
            norms.append(float(singular_values(m.compress(diff)).sum()))
        assert norms[-1] <= 2.0
        assert norms[2] - norms[1] <= norms[1] - norms[0] + 1e-9


class TestChainSerialization:
    def test_volume_cycle_from_literal(self, torus12):
        payload = {"model": torus12.model_id, "degree": 2, "terms": [
            {"coeff": [2.5, 0.0], "lambda_pow": 1,
             "tensor": [[-1, -1], [1, 0], [0, 1]]},
            {"coeff": [-2.5, 0.0], "lambda_pow": 0,
             "tensor": [[-1, -1], [0, 1], [1, 0]]},
        ]}
        c = chain_from_json(torus12, payload)
        assert c.degree == 2
        assert c.terms == (2.5 * nc_torus_volume_cycle(torus12)).terms

    def test_winding_cycle_from_literal(self, circle64):
        # lambda_pow defaults to 0, and equal tensors add up
        payload = {"degree": 1, "terms": [
            {"coeff": [0.25, 0.0], "tensor": [[-1], [1]]},
            {"coeff": [0.75, 0.0], "tensor": [[-1], [1]]},
        ]}
        back = chain_from_json(circle64, payload)
        assert back.terms == circle_winding_cycle(circle64).terms


def test_toy_checks_realize_no_word_and_hold_no_full_length_sums():
    # on the toy every [D, a], [|D|, a] and [F, a] is the exact zero, so
    # summability, chern and measure realize no word, and the pairing's
    # partial sums are one 0.0 seen with stride 0
    from singtrace.harness import builtin_chain

    model = build_diagonal_toy(4096)
    c = builtin_chain(model)
    summability_report(model)
    assert chern(c, model).value == 0
    assert all(gate.holds for gate in main_theorem_check(c, model)["gates"])
    assert model._word_cache == {}
    assert omega(c, model).is_zero()
    series = [entry for key, entry in model._memo.items()
              if key[0] == "pairing"]
    assert len(series) == 1
    sums = series[0].sums
    assert sums.size == model.dim and sums.strides == (0,)
    assert sums.base.size == 1 and not sums.flags.writeable
    assert series[0].boundaries.tolist() == [model.dim - 1]


@pytest.mark.parametrize("build", [lambda: build_diagonal_toy(4096),
                                   lambda: build_circle(64)],
                         ids=["toy", "circle"])
def test_weight_ideal_norms_are_derived_once(build, monkeypatch):
    # summability and the measurability criterion of main_theorem_check
    # read one memo entry for the quasi-norm, the Lorentz norm and the decay
    # exponent of the weight's singular values: those are read once, by its
    # ideal_diagnostics, and both reports carry that entry itself
    from singtrace import ideals
    from singtrace.harness import builtin_chain

    model = build()
    c = builtin_chain(model)
    mu = triples._weight_singular_values(model, c.degree)
    reads = []
    real_norm = ideals.lorentz_norm_m1inf
    monkeypatch.setattr(ideals, "lorentz_norm_m1inf", lambda x: reads.append(
        x is mu) or real_norm(x))
    diag, _ = summability_report(model)
    ideal = main_theorem_check(c, model)["ideal"]
    assert sum(reads) == 1
    assert ideal is diag
    assert (ideal.quasi_norm_pinf, ideal.lorentz_norm,
            ideal.fitted_decay_exponent) == (
        diag.quasi_norm_pinf, diag.lorentz_norm, diag.fitted_decay_exponent)
    # the report holds the memo entry itself, which nothing writes
    assert triples._weight_diagnostics(model, c.degree) is diag
    assert summability_report(model)[0] is diag


def test_memo_builds_each_entry_once(monkeypatch):
    """Every memo key of a model is built once, in any order of requests.

    The derived objects are requested in several random orders, each on a
    fresh model, then all again; the pairing series asks for Omega(c) and
    the weight, so some builds nest inside others.  The invertible double's
    entries are keys of its model's memo that begin with "double", apart
    from the model's own.
    """
    builds = Counter()
    real_derived = SpectralTripleModel.derived

    def counting_derived(self, key, build):
        def counted():
            builds[self._prefix + key] += 1
            return build()
        return real_derived(self, key, counted)

    monkeypatch.setattr(SpectralTripleModel, "derived", counting_derived)
    for seed in range(4):
        builds.clear()
        model = build_circle(16)
        c = circle_winding_cycle(model)
        tasks = {
            "chern": lambda: chern(c, model),
            "omega": lambda: omega(c, model),
            "w_p": lambda: w_subset(c, model, {1}),
            "weight": lambda: _interior_weight(model, 1),
            "double": lambda: invertible_double(model),
            "double omega": lambda: omega(c, invertible_double(model)),
            "inverse_powers": lambda: hochschild._interior_inverse_powers(
                invertible_double(model)),
            "pairing": lambda: hochschild._pairing_series(c, model),
        }
        names = list(tasks)
        order = np.random.default_rng(seed).permutation(len(names))
        first = {names[i]: tasks[names[i]]() for i in order}
        again = {name: tasks[name]() for name in names}
        assert all(again[name] is first[name] for name in names)
        assert first["double omega"] is not first["omega"]
        assert set(builds.values()) == {1}
        assert set(builds) == set(model._memo)
        assert {key[0] for key in builds} == {
            "chern", "omega", "W", "weight", "double", "pairing"}
        assert {key[1] for key in builds if key[0] == "double"
                and len(key) > 1} == {"omega", "inverse_powers"}


def test_chain_map_forms_each_commutator_once(monkeypatch):
    """Omega(c) of the torus volume cycle forms [D, U] and [D, V] once each,
    though both of the cycle's terms read them, and stores neither in the
    memo.  A word of band 0 is diagonal, so its commutators with the
    circle's diagonal D, |D| and F are exact zeros, formed without a call of
    ``commutator``."""
    calls = Counter()
    real_commutator = triples.commutator

    def counting_commutator(b, op):
        calls[(id(b), op.label)] += 1
        return real_commutator(b, op)

    monkeypatch.setattr(triples, "commutator", counting_commutator)
    model = build_nc_torus(8)
    omega(nc_torus_volume_cycle(model), model)
    assert calls == {(id(model.D), "U^1V^0"): 1, (id(model.D), "U^0V^1"): 1}
    assert [key[0] for key in model._memo] == ["omega"]
    calls.clear()
    circle = build_circle(16)
    for kind in ("D", "delta", "F"):
        assert circle.factor(kind, (0,)).is_zero()
    assert not calls
