"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline.
Criteria sizes: exact algebra at circle N=256 / torus N=32; diagonal
estimators at N=1e5; circle character at N=2048; torus character at N=64.
"""

import time

import numpy as np
import pytest

from singtrace.hochschild import (
    Chain,
    antisymmetrized_cycle,
    appendix_identity_checks,
    bob_identity_check,
    boundary,
    chern,
    circle_winding_cycle,
    heat_cycle_trace,
    is_cycle,
    main_theorem_check,
    nc_torus_volume_cycle,
    omega,
    reduction_partial_sum_check,
)
from singtrace.ideals import (
    MEASURABLE,
    PartialSumSeries,
    eigenvalue_partial_sums,
    geometric_grid,
    log_fit,
    universal_measurability_test,
)
from singtrace.operators import (
    Operator,
    anticommutator,
    commutator,
    singular_values,
)
from singtrace.traces import (
    ExtendedLimitScheme,
    default_heat_grid,
    dixmier_logmean,
    heat_fit,
    heat_functional,
    heat_xi,
    lemma_estimate_scalings,
    measurability_criterion_check,
)
from singtrace.triples import (
    build_circle,
    build_nc_torus,
    delta,
    partial_d,
    resolvent_weight,
)


def _report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def circle2048():
    model = build_circle(2048)
    return model, circle_winding_cycle(model)


@pytest.fixture(scope="module")
def torus64():
    model = build_nc_torus(64)
    return model, nc_torus_volume_cycle(model)


def test_criterion_1_exact_algebra_suite():
    t0 = time.monotonic()
    tol = 1e-10
    residuals = {}

    circle = build_circle(256)
    c = circle_winding_cycle(circle)
    residuals["circle bob"] = bob_identity_check(c, circle)["residual_norm"]
    app = appendix_identity_checks(circle.monomial((1,)), circle.monomial((1,)),
                                   circle)
    residuals["circle appendix"] = max(app["delta_square_residual"],
                                       app["f_delta_residual"])
    rng = np.random.default_rng(0)
    rand = Chain.from_elements(circle, [
        (1.0, [circle.monomial((int(rng.integers(-3, 4)),),
                               coeff=complex(*rng.standard_normal(2)))
               for _ in range(4)]) for _ in range(3)])
    residuals["circle b.b"] = 0.0 if boundary(boundary(rand)).is_zero() else 1.0
    a = circle.monomial((2,), coeff=1.0 - 0.5j)
    b = circle.monomial((-1,), coeff=0.25j)
    A, B = circle.realize(a), circle.realize(b)
    AB = circle.realize(a * b)
    for name, der, gen in (("partial_d", partial_d, circle.D),
                           ("delta", delta, circle.absD)):
        edge = commutator(gen, AB - A @ B)
        gap = der(a * b, circle) - (der(a, circle) @ B) - (A @ der(b, circle)) - edge
        residuals[f"circle leibniz {name}"] = circle.interior_norm(gap)

    torus = build_nc_torus(32)
    ct = nc_torus_volume_cycle(torus)
    residuals["torus bob"] = bob_identity_check(ct, torus)["residual_norm"]
    app_t = appendix_identity_checks(torus.monomial((1, 0)),
                                     torus.monomial((0, 1)), torus)
    residuals["torus appendix"] = max(app_t["delta_square_residual"],
                                      app_t["f_delta_residual"])
    residuals["torus gamma anti D"] = anticommutator(torus.Gamma, torus.D).norm_bound()
    residuals["torus gamma comm algebra"] = max(
        commutator(torus.Gamma, torus.realize(g)).norm_bound()
        for g in torus.generators().values())
    randt = Chain.from_elements(torus, [
        (1.0, [torus.monomial(tuple(rng.integers(-2, 3, size=2)),
                              coeff=complex(*rng.standard_normal(2)))
               for _ in range(4)]) for _ in range(2)])
    residuals["torus b.b"] = 0.0 if boundary(boundary(randt)).is_zero() else 1.0

    elapsed = time.monotonic() - t0
    worst = max(residuals.values())
    ok = worst <= tol and elapsed < 10.0
    _report(1, ok, f"exact algebra: worst residual {worst:.2e} "
                   f"(tol {tol:.0e}), {elapsed:.1f}s < 10s")


def test_criterion_2_diagonal_oracle_suite():
    t0 = time.monotonic()
    N = 100_000
    V = Operator(1.0 / (np.arange(N) + 1.0), label="harmonic")
    scheme, grid = ExtendedLimitScheme(), default_heat_grid(N)
    z_dix = dixmier_logmean(
        PartialSumSeries(singular_values(V)), scheme).z
    z_xi = heat_xi(V, scheme).z
    z_heat = heat_fit(grid, heat_functional(None, V, 2.0, grid)).z
    slopes_ok = True
    slope_text = []
    for alpha in (1.5, 2.0):
        rep = {g.name: g.value for g in lemma_estimate_scalings(V, alpha)}
        s_ok = (abs(rep["slope_saturating"] - (1.0 - alpha)) <= 0.05
                and abs(rep["slope_counting"] - 1.0) <= 0.05)
        slopes_ok = slopes_ok and s_ok
        slope_text.append(f"a={alpha}: ({rep['slope_saturating']:.3f}, "
                          f"{rep['slope_counting']:.3f})")
    A = Operator(((-1.0) ** np.arange(N)).astype(complex))
    alt = measurability_criterion_check(
        A, V, grid, heat_functional(A, V, 2.0, grid))
    elapsed = time.monotonic() - t0
    ok = (abs(z_dix - 1.0) <= 0.05 and abs(z_xi - 1.0) <= 0.05
          and abs(z_heat - 1.0) <= 0.05 and slopes_ok
          and abs(alt["z_heat"]) <= 0.02 and abs(alt["z_spec"]) <= 0.02
          and elapsed < 30.0)
    _report(2, ok,
            f"diag oracles: dixmier {z_dix.real:.4f}, xi {z_xi.real:.4f}, "
            f"heat {z_heat.real:.4f} (1 +/- 0.05); slopes {'; '.join(slope_text)};"
            f" alternating ({abs(alt['z_heat']):.4f}, {abs(alt['z_spec']):.4f})"
            f" <= 0.02; {elapsed:.1f}s < 30s")


def test_criterion_3_circle_character(circle2048):
    t0 = time.monotonic()
    model, c = circle2048
    ch = chern(c, model).value
    verdict = universal_measurability_test(eigenvalue_partial_sums(
        omega(c, model) @ model.compress(resolvent_weight(model, 1))),
        window=model.fit_window())
    heat = heat_cycle_trace(c, model)
    red = reduction_partial_sum_check(c, model)
    red_ok = all(gate.holds for gate in red["gates"])
    elapsed = time.monotonic() - t0
    ok = (abs(ch - 2.0) <= 0.02
          and verdict.kind == MEASURABLE and abs(verdict.z - 2.0) <= 0.1
          and abs(heat["z"] - 2.0) <= 0.2
          and red_ok
          and elapsed < 300.0)
    _report(3, ok,
            f"circle N=2048: chern {ch.real:.5f} (2 +/- 0.02); "
            f"measurable z {verdict.z.real:.4f} (2 +/- 0.1); "
            f"heat z {heat['z'].real:.4f} (2 +/- 0.2); "
            f"reduction {'pass' if red_ok else 'fail'}; "
            f"{elapsed:.1f}s < 300s")


def test_criterion_4_torus_character(torus64):
    t0 = time.monotonic()
    model, c = torus64
    cycle_ok = is_cycle(c)
    ch = chern(c, model).value
    rep = main_theorem_check(c, model)
    gap_rel = abs(rep["fit"].z - ch) / abs(ch)
    model0 = build_nc_torus(64, theta=0.0)
    ch0 = chern(nc_torus_volume_cycle(model0), model0).value
    theta_rel = abs(ch - ch0) / abs(ch)
    U = model.monomial((1, 0))
    parity = main_theorem_check(
        Chain.from_elements(model, [(1.0, [U.adjoint(), U])]), model)
    elapsed = time.monotonic() - t0
    ok = (cycle_ok and gap_rel <= 0.15 and theta_rel <= 0.02
          and abs(parity["chern"]) <= 1e-8 and abs(parity["fit"].z) <= 0.05
          and elapsed < 900.0)
    _report(4, ok,
            f"torus N=64: cycle exact {cycle_ok}; |z_spec-Ch|/|Ch| "
            f"{gap_rel:.4f} <= 0.15; theta-independence {theta_rel:.2e} <= 0.02; "
            f"parity |Ch| {abs(parity['chern']):.2e} <= 1e-8, "
            f"|z| {abs(parity['fit'].z):.2e} <= 0.05; {elapsed:.1f}s < 900s")


def test_criterion_5_trace_estimator_concordance(circle2048, torus64):
    results = []
    for model, c in (circle2048, torus64):
        T = omega(c, model) @ model.compress(resolvent_weight(model, c.degree))
        series = eigenvalue_partial_sums(T)
        fit = log_fit(series, window=model.fit_window())
        dix = dixmier_logmean(series, ExtendedLimitScheme(),
                              n_max=model.reliable_count - 1)
        grid = geometric_grid(8, max(model.reliable_count // 8, 32))
        heat = heat_fit(grid, heat_functional(
            omega(c, model), model.compress(resolvent_weight(model, c.degree)),
            alpha=1.0 + 1.0 / c.degree, grid=grid))
        results.append((model.name, {
            "partial_sum": (fit.z, fit.residual_sup),
            "heat": (heat.z, heat.residual_sup),
            "dixmier": (dix.z, dix.residual_sup)}))
    # the diagonal model: same pairing via its three estimators
    N = 100_000
    V = Operator(1.0 / (np.arange(N) + 1.0))
    fitd = log_fit(eigenvalue_partial_sums(V))
    dixd = dixmier_logmean(PartialSumSeries(singular_values(V)),
                           ExtendedLimitScheme())
    grid = default_heat_grid(N)
    heatd = heat_fit(grid, heat_functional(None, V, 2.0, grid))
    results.append(("diag harmonic", {
        "partial_sum": (fitd.z, fitd.residual_sup),
        "heat": (heatd.z, heatd.residual_sup),
        "dixmier": (dixd.z, dixd.residual_sup)}))
    floor = 0.02
    ok = True
    gaps = []
    for name, ests in results:
        keys = list(ests)
        for i, a in enumerate(keys):
            for b in keys[i + 1:]:
                gap = abs(ests[a][0] - ests[b][0])
                budget = ests[a][1] + ests[b][1] + floor
                gaps.append(f"{name} {a}|{b}: {gap:.3f}<={budget:.3f}")
                ok = ok and gap <= budget
    _report(5, ok, "concordance within summed residuals: " + "; ".join(gaps))


def test_criterion_6_scheme_robustness(circle2048, torus64):
    drifts = []
    ok = True
    N = 100_000
    sums = PartialSumSeries(
        singular_values(Operator(1.0 / (np.arange(N) + 1.0))))
    zs = [dixmier_logmean(sums, ExtendedLimitScheme(ratio=r)).z
          for r in (1.5, 2.0, 3.0)]
    drift = max(abs(a - b) for a in zs for b in zs)
    drifts.append(f"diag harmonic {drift:.2e}")
    ok = ok and drift < 0.02
    for model, c in (circle2048, torus64):
        T = omega(c, model) @ model.compress(resolvent_weight(model, c.degree))
        series = eigenvalue_partial_sums(T)
        zs = [dixmier_logmean(series, ExtendedLimitScheme(ratio=r),
                              n_max=model.reliable_count - 1).z
              for r in (1.5, 2.0, 3.0)]
        drift = max(abs(a - b) for a in zs for b in zs)
        drifts.append(f"{model.name} {drift:.2e}")
        ok = ok and drift < 0.02
    _report(6, ok, "scheme ratio r in {1.5,2,3} moves z by: "
            + "; ".join(drifts) + " (< 0.02)")
