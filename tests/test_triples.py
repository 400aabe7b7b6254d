import json

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace.harness import builtin_chain
from singtrace.hochschild import main_theorem_check
from singtrace.ideals import (
    eigenvalue_partial_sums,
    quasi_norm_pinf,
    universal_measurability_test,
)
from singtrace.operators import (
    ContractViolation,
    Operator,
    anticommutator,
    commutator,
    singular_values,
)
from singtrace.triples import (
    build_circle,
    build_diagonal_toy,
    build_model,
    build_nc_torus,
    delta,
    invertible_double,
    partial_d,
    resolvent_weight,
    summability_report,
)

from conftest import matrix_operator


class TestCircle:
    def test_shift_raises_mode_exactly(self, circle64):
        u = circle64.monomial((1,))
        du = partial_d(u, circle64)
        U = circle64.realize(u)
        assert circle64.interior_norm(du - U) == 0.0

    def test_phase_commutator_rank_one(self, circle64):
        u = circle64.monomial((1,))
        fu = commutator(circle64.F, circle64.realize(u))
        mat = fu.sparse()
        assert mat.nnz == 1
        center = circle64.dim // 2  # index of mode 0
        assert mat[center, center - 1] == pytest.approx(2.0)

    def test_weight_singular_value_pairs(self, circle64):
        mu = singular_values(circle64.compress(
            resolvent_weight(circle64, 1)))
        want = [1.0, 2 ** -0.5, 2 ** -0.5, 5 ** -0.5, 5 ** -0.5]
        np.testing.assert_allclose(mu[:5], want, atol=1e-12)

    def test_requires_minimum_size(self):
        with pytest.raises(ContractViolation):
            build_circle(4)


class TestTorus:
    def test_commutative_at_theta_zero(self):
        # the formal algebra still carries lam powers; the twist only
        # evaluates away on realization
        m = build_nc_torus(8, theta=0.0)
        U = m.monomial((1, 0))
        V = m.monomial((0, 1))
        assert m.interior_norm(m.realize(U * V - V * U)) <= 1e-12
        gap = commutator(m.realize(U), m.realize(V))
        assert m.interior_norm(gap) <= 1e-12

    def test_twist_relation_on_interior(self, torus12):
        # V U = exp(2 pi i theta) U V, checked on realized matrices
        m = torus12
        U = m.realize(m.monomial((1, 0)))
        V = m.realize(m.monomial((0, 1)))
        lam = np.exp(2j * np.pi * m.theta)
        gap = (V @ U) - lam * (U @ V)
        assert m.interior_norm(gap) <= 1e-12

    def test_grading_relations_exact(self, torus12):
        m = torus12
        assert anticommutator(m.Gamma, m.D).norm_bound() == 0.0
        for g in m.generators().values():
            assert commutator(m.Gamma, m.realize(g)).norm_bound() == 0.0
        eye = Operator(np.ones(m.dim, dtype=complex))
        assert (m.Gamma @ m.Gamma - eye).norm_bound() == 0.0

    def test_phase_squares_to_identity(self, torus12):
        m = torus12
        eye = Operator(np.ones(m.dim, dtype=complex))
        assert (m.F @ m.F - eye).norm_bound() <= 1e-10
        assert (m.F @ m.absD - m.D).norm_bound() <= 1e-10
        # graded kernel block: F anticommutes with Gamma everywhere
        assert anticommutator(m.Gamma, m.F).norm_bound() <= 1e-12

    @pytest.mark.parametrize("N", [16, 32])
    def test_closed_form_polar_data(self, N):
        m = build_nc_torus(N)
        assert m.absD.kind == "diag"
        assert m.F.sparse().nnz == m.dim  # one entry per row
        assert anticommutator(m.Gamma, m.F).norm_bound() == 0.0
        tol = 8 * np.finfo(float).eps * (1.0 + m.D.norm_bound())
        eye = Operator(np.ones(m.dim, dtype=complex))
        assert (m.F @ m.F - eye).norm_bound() <= tol
        assert (m.F @ m.absD - m.D).norm_bound() <= tol
        # on ker D (mode n = 0, one vector per spinor half) F swaps the halves
        n1, n2 = m.lattice
        (k,) = np.flatnonzero((n1 == 0) & (n2 == 0))
        half = m.dim // 2
        assert m.absD.diag()[[k, k + half]].tolist() == [0, 0]
        F = m.F.sparse()
        for row, col in ((k, k + half), (k + half, k)):
            assert F[row].indices.tolist() == [col]
            assert F[row].data.tolist() == [1.0]

    @pytest.mark.parametrize("N", [16, 32])
    def test_parity_cycle_pairs_to_exact_zero(self, N):
        # a cycle of the wrong degree parity pairs to zero; with the exact
        # phase F its Chern value is exactly 0
        m = build_nc_torus(N)
        report = main_theorem_check(builtin_chain(m, "parity"), m)
        assert report["mode"] == "parity_vanishing"
        assert all(gate.holds for gate in report["gates"])
        assert report["chern"] == 0j

    def test_word_algebra_twist_bookkeeping(self, torus12):
        m = torus12
        U = m.monomial((1, 0))
        V = m.monomial((0, 1))
        VU = V * U
        assert VU.terms == {((1, 1), 1): 1.0 + 0j}
        UV = U * V
        assert UV.terms == {((1, 1), 0): 1.0 + 0j}

    def test_adjoint_twist(self, torus12):
        m = torus12
        w = m.monomial((2, -1))
        prod = w * w.adjoint()
        assert prod.terms == {((0, 0), 0): 1.0 + 0j}


class TestToy:
    def test_all_derivations_vanish(self, toy1000):
        a = toy1000.monomial((3,), coeff=2.0 - 1j)
        assert partial_d(a, toy1000).norm_bound() == 0.0
        assert delta(a, toy1000).norm_bound() == 0.0
        assert commutator(toy1000.F, toy1000.realize(a)).norm_bound() == 0.0

    def test_weight_is_harmonic_like(self, toy1000):
        mu = singular_values(resolvent_weight(toy1000, 1))
        k = np.arange(1000) + 1.0
        np.testing.assert_allclose(mu, np.sort((1 + k ** 2) ** -0.5)[::-1])

    def test_weight_measurable_with_unit_trace(self):
        for p in (1, 3):
            m = build_diagonal_toy(50_000, decay_exponent=p)
            verdict = universal_measurability_test(
                eigenvalue_partial_sums(resolvent_weight(m, m.p)))
            assert verdict.kind == "measurable"
            assert verdict.z == pytest.approx(1.0, abs=0.05)

    def test_words_and_elements_stay_diagonal(self, toy1000):
        k = np.arange(1000)
        word = toy1000.factor("id", (3,))
        assert word.kind == "diag"
        np.testing.assert_allclose(word.diag(), np.exp(2j * np.pi * 3 * k / 1000),
                                   rtol=0, atol=1e-15)
        w = toy1000.generators()["w"]
        a = (2.0 - 1j) * w * w * w + 0.5 * w.adjoint()
        A = toy1000.realize(a)
        assert A.kind == "diag"
        want = ((2.0 - 1j) * np.exp(2j * np.pi * 3 * k / 1000)
                + 0.5 * np.exp(-2j * np.pi * k / 1000))
        np.testing.assert_allclose(A.diag(), want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("N", [32, 33, 4096, 100_000, 1_000_000])
    def test_inverse_word_is_the_formula_bit_for_bit(self, N):
        # with w^j cached or not, w^-j (and w^j after w^-j) must equal
        # exp(2 pi i j k / N) as computed directly
        model = build_diagonal_toy(N, decay_exponent=1)
        k = np.arange(N)
        for j in range(1, 6):
            for first in (j, -j):
                model._word_cache.clear()
                model.realize_word((first,))
                got = model.realize_word((-first,))
                want = np.exp(2j * np.pi * -first * k / N)
                assert got.tobytes() == want.tobytes()
        model._word_cache.clear()

    def test_compress_is_the_identity_on_the_whole_basis(self, toy1000):
        A = toy1000.realize(toy1000.monomial((2,), coeff=1.5j))
        C = toy1000.compress(A)
        assert C.kind == "diag" and C.diag() is A.diag()
        Z = partial_d(toy1000.monomial((1,)), toy1000)
        assert toy1000.compress(Z) is Z
        # with no buffer the circle's interior is its whole basis too
        circle = build_circle(8, buffer=0)
        assert circle.interior_dim == circle.dim
        A = circle.realize(circle.monomial((0,)))
        assert circle.compress(A) is A

    @pytest.mark.parametrize("name", ["toy1000", "circle64", "torus12"])
    def test_only_the_toy_keeps_no_interior_index_array(self, name, request):
        # the toy's interior is its whole basis: no index array is kept,
        # and every reader sees the indices 0 .. dim - 1
        model = request.getfixturevalue(name)
        assert (model._interior is None) == (name == "toy1000")
        assert model.interior.dtype.kind == "i"
        assert model.interior_dim == model.interior.size
        assert invertible_double(model)._interior is model._interior
        if name == "toy1000":
            np.testing.assert_array_equal(model.interior,
                                          np.arange(model.dim))


class TestRealize:
    def test_identity_word(self, circle64):
        one = circle64.monomial((0,))
        got = circle64.realize(one)
        assert (got - Operator(np.ones(circle64.dim, complex))).norm_bound() == 0.0

    def test_shift_compose_to_interior_identity(self, circle64):
        u = circle64.monomial((1,))
        prod = circle64.realize(u) @ circle64.realize(u.adjoint())
        eye = Operator(np.ones(circle64.dim, complex))
        assert circle64.interior_norm(prod - eye) == 0.0

    def test_empty_element_is_zero(self, circle64):
        zero = circle64.monomial((1,)) - circle64.monomial((1,))
        assert zero.is_zero()
        assert circle64.realize(zero).norm_bound() == 0.0

    def test_band_exceeding_buffer_rejected(self, circle64):
        with pytest.raises(ContractViolation):
            circle64.realize(circle64.monomial((circle64.B + 1,)))

    def test_symbolic_product_matches_matrix_product_on_interior(self, torus12):
        m = torus12
        a = m.monomial((1, 0), coeff=1.5) + m.monomial((0, -1), coeff=0.5j)
        b = m.monomial((1, 1), coeff=-2.0)
        sym = m.realize(a * b)
        mat = m.realize(a) @ m.realize(b)
        assert m.interior_norm(sym - mat) <= 1e-12


class TestDerivations:
    def test_delta_of_shift_band_structure(self, circle64):
        # [|D|, u] maps mode k to (|k+1| - |k|) mode k+1
        m = circle64
        d = delta(m.monomial((1,)), m).sparse()
        R = m.N + m.B
        for k in (-5, -1, 0, 7):
            i = k + R
            assert d[i + 1, i] == pytest.approx(abs(k + 1) - abs(k))

    @settings(max_examples=20, deadline=None)
    @given(e1=st.integers(-3, 3), e2=st.integers(-3, 3),
           c1=st.floats(-2, 2), c2=st.floats(-2, 2))
    def test_leibniz_on_interior(self, e1, e2, c1, c2):
        m = build_circle(16)
        a = m.monomial((e1,), coeff=c1 + 0.5j)
        b = m.monomial((e2,), coeff=c2 - 0.25j)
        A, B = m.realize(a), m.realize(b)
        ab = m.realize(a * b)
        for der, gen in ((partial_d, m.D), (delta, m.absD)):
            lhs = commutator(gen, ab)
            rhs = (der(a, m) @ B) + (A @ der(b, m))
            # symbolic product and matrix product differ only at the edge
            correction = commutator(gen, ab - A @ B)
            assert m.interior_norm(lhs - rhs - correction) <= 1e-10

    def test_kogom_base_identity_on_double(self, circle64):
        # [D0, a] = ([F, delta(a)] |D0|^-1 + delta(a) D0^-1 + [F, a]) |D0|
        double = invertible_double(circle64)
        a = double.monomial((1,), coeff=1.0) + double.monomial((-2,), coeff=0.5)
        A = double.realize(a)
        from singtrace.operators import hermitian_calculus

        d0 = commutator(double.D, A)
        da = commutator(double.absD, A)
        fa = commutator(double.F, A)
        fda = commutator(double.F, da)
        abs_inv = hermitian_calculus(double.absD, lambda x: 1.0 / x,
                                     "|D0|^-1")
        d0_inv = abs_inv @ double.F
        rhs = ((fda @ abs_inv) + (da @ d0_inv) + fa) @ double.absD
        assert double.interior_norm(d0 - rhs) <= 1e-10


class TestInvertibleDouble:
    def test_circle_closed_forms(self, circle64):
        double = invertible_double(circle64)
        D1 = double.D - circle64.D
        k = circle64.modes
        sign = np.where(k >= 0, 1.0, -1.0)
        np.testing.assert_allclose(double.D.diag().real,
                                   sign * np.sqrt(1.0 + k ** 2), atol=1e-12)
        np.testing.assert_allclose(
            D1.diag().real, sign / (np.abs(k) + np.sqrt(1.0 + k ** 2)),
            atol=1e-12)
        ev = np.abs(double.D.diag())
        assert ev.min() >= 1.0

    def test_perturbation_in_weak_l1(self, circle64):
        # mu(D1) = 1, then 1/(k + sqrt(1 + k^2)) twice for each k >= 1: the
        # sup of (n+1) mu_n is at the pair k = 1, for every N
        D1 = invertible_double(circle64).D - circle64.D
        qn = quasi_norm_pinf(singular_values(D1), circle64.p)
        assert qn == pytest.approx(3.0 / (1.0 + np.sqrt(2.0)), rel=1e-12)

    @pytest.mark.parametrize("name", ["circle64", "torus12", "toy1000"])
    def test_double_is_a_copy_with_memo_keys_of_its_own(self, name, request):
        model = request.getfixturevalue(name)
        double = invertible_double(model)
        assert type(double) is type(model)
        for attr in ("F", "Gamma", "_interior", "_word_cache", "_memo"):
            assert getattr(double, attr) is getattr(model, attr)
        assert double.D is not model.D and double.absD is not model.absD
        assert double.name == model.name + "+double"
        assert double.metadata == dict(model.metadata,
                                       double_of=model.model_id)
        # its entries are keys of the model's memo that begin with "double"
        probe, other = object(), object()
        assert double.derived(("probe",), lambda: probe) is probe
        assert model.derived(("probe",), lambda: other) is other
        assert double.derived(("probe",), lambda: other) is probe
        assert model._memo[("double", "probe")] is probe
        assert model._memo.pop(("probe",)) is other
        del model._memo[("double", "probe")]  # the model is shared

    def test_invertible_model_keeps_phase(self, toy1000):
        # toy D is psd with |D| >= 1 already; the double keeps F = identity
        double = invertible_double(toy1000)
        assert (double.F - toy1000.F).norm_bound() == 0.0

    def test_torus_double(self, torus12):
        double = invertible_double(torus12)
        ev = np.abs(double.compress(double.absD).diag().real)
        assert ev.min() >= 1.0
        assert double.F is torus12.F


def test_failed_build_is_not_memoized():
    # a build that raises stores nothing, so the next call builds again; a
    # build may ask for other keys, and each nested key is stored once
    model = build_circle(16)
    attempts = []

    def flaky():
        attempts.append(model.derived(("inner",), object))
        if len(attempts) == 1:
            raise RuntimeError("first attempt")
        return len(attempts)

    with pytest.raises(RuntimeError):
        model.derived(("outer",), flaky)
    assert ("outer",) not in model._memo
    assert model.derived(("outer",), flaky) == 2
    assert model.derived(("outer",), flaky) == 2
    assert attempts[0] is attempts[1] is model._memo[("inner",)]


class TestSummability:
    def test_circle_decay_exponent(self, circle256):
        diag, norms = summability_report(circle256)
        assert diag.fitted_decay_exponent == pytest.approx(-1.0, abs=0.1)
        assert norms["[F,u]"] == pytest.approx(2.0, abs=1e-9)
        assert np.isfinite(norms["[F,delta(u)]"])

    def test_torus_decay_exponent(self, torus16):
        # lattice counting: #{|n| <= R} ~ pi R^2 makes the p=2 weight harmonic
        diag, _ = summability_report(torus16)
        assert diag.fitted_decay_exponent == pytest.approx(-1.0, abs=0.15)

    def test_toy_p3(self):
        m = build_diagonal_toy(20_000, decay_exponent=3)
        diag, _ = summability_report(m)
        assert diag.fitted_decay_exponent == pytest.approx(-1.0, abs=0.05)


class TestInteriorWindow:
    def test_buffer_independence(self):
        # products of band-limited words agree after compression for any
        # buffer at least as large as the total band
        small = build_circle(32, buffer=6)
        large = build_circle(32, buffer=12)
        for model in (small, large):
            u = model.monomial((1,))
            w = model.monomial((-2,))
            prod = model.realize(u) @ model.realize(w) @ model.realize(u)
            model._probe = model.compress(prod).sparse().toarray()
        np.testing.assert_allclose(small._probe, large._probe, atol=1e-14)


class TestInteriorNorm:
    @pytest.mark.parametrize("seed", range(5))
    def test_bounds_the_dense_two_norm(self, circle64, seed):
        rng = np.random.default_rng(seed)
        n = circle64.dim
        mat = (sp.random(n, n, density=0.05, random_state=rng)
               + 1j * sp.random(n, n, density=0.05, random_state=rng))
        op = matrix_operator(mat)
        dense = circle64.compress(op).sparse().toarray()
        assert circle64.interior_norm(op) >= np.linalg.norm(dense, 2) - 1e-15

    def test_exact_on_weighted_partial_permutation(self, circle64):
        # the shape of the circle Leibniz residual: at most one entry per row
        # and per column, where the bound sqrt(|T|_1 |T|_inf) is the 2-norm
        n = circle64.dim
        rng = np.random.default_rng(7)
        weights = rng.standard_normal(n - 3) * 1e-13
        op = matrix_operator(sp.diags(weights.astype(complex), offsets=-3,
                                      shape=(n, n)))
        dense = circle64.compress(op).sparse().toarray()
        exact = np.linalg.norm(dense, 2)
        assert abs(circle64.interior_norm(op) - exact) <= np.spacing(exact)


class TestDescriptor:
    def test_json_fields(self, torus12):
        payload = json.loads(torus12.descriptor_json())
        assert payload["name"] == "nc_torus"
        assert payload["p"] == 2
        assert payload["parity"] == "even"
        assert payload["theta"] == pytest.approx(np.sqrt(0.5))
        assert payload["working_dim"] == torus12.dim
        assert payload["reliable_count"] == torus12.reliable_count

    def test_build_model_registry(self):
        assert build_model("circle", 16).name == "circle"
        assert build_model("toy", 64, p=2).p == 2
        with pytest.raises(ContractViolation):
            build_model("sphere", 10)

    @pytest.mark.parametrize("p", [1.9, 2.7, 2.0, 0, -1, True, "2"])
    def test_toy_p_must_be_an_integer_at_least_1(self, p):
        # a non-integral p used to be truncated without a word (1.9 -> 1)
        with pytest.raises(ContractViolation, match="integer p >= 1"):
            build_diagonal_toy(64, decay_exponent=p)
        with pytest.raises(ContractViolation, match="integer p >= 1"):
            build_model("toy", 64, p=p)
        assert build_diagonal_toy(64, decay_exponent=np.int64(3)).p == 3
