"""Experiment orchestration: configs, check registry, reports, suites.

A check is a named, self-contained verification (exact identity suite,
character-theorem run, estimator battery, ...).  ``run`` executes the checks
requested by an :class:`ExperimentConfig` one after another and assembles a
:class:`Report` with one record per check, sorted by name, plus an
environment stamp.  Reports are deterministic for a fixed config and seed;
the only varying fields are runtimes and the environment stamp (time,
versions, platform), which ``stable_digest`` excludes.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import platform
import random
import sys
import time
from dataclasses import dataclass, field, fields, asdict, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import hochschild as hh
from . import ideals, traces, triples
from .ideals import Gate
from .operators import (
    ContractViolation,
    Operator,
    OperatorError,
    singular_values,
)

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "CheckRecord",
    "Report",
    "run",
    "suite",
    "builtin_chain",
    "Check",
    "CHECKS",
]


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown check, bad field, ...)."""


_MODEL_KEYS = ("name", "N", "theta", "p", "buffer")
# the optional model keys each builder reads
_BUILDER_KEYS = {"circle": ("buffer",), "nc_torus": ("theta", "buffer"),
                 "toy": ("p",)}


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    model: dict = field(default_factory=lambda: {"name": "circle", "N": 64})
    chain: object = None  # builtin name, inline dict, or None for default
    checks: list = field(default_factory=list)
    scheme: dict = field(default_factory=dict)
    out: str = None
    seed: int = 0

    @classmethod
    def from_json(cls, text):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: line {exc.lineno}, "
                              f"column {exc.colno}: {exc.msg}") from exc
        if not isinstance(payload, dict):
            raise ConfigError("config must be a JSON object")
        known = {"model", "chain", "checks", "scheme", "out", "seed"}
        unknown = set(payload) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        cfg = cls(**payload)
        cfg.validate()
        return cfg

    def validate(self):
        if not isinstance(self.model, dict) or "name" not in self.model:
            raise ConfigError("config.model must carry at least a 'name'")
        unknown = sorted(set(self.model) - set(_MODEL_KEYS))
        if unknown:
            raise ConfigError(
                f"unknown model keys {unknown}; known: {list(_MODEL_KEYS)}")
        name = self.model["name"]
        if name not in _BUILDER_KEYS:
            raise ConfigError(f"unknown model {name!r}")
        N = self.model.get("N", 64)
        if not _integer(N):
            raise ConfigError(f"model N must be an integer, got {N!r}")
        for key in ("theta", "p", "buffer"):
            value = self.model.get(key)
            if value is not None and key not in _BUILDER_KEYS[name]:
                raise ConfigError(
                    f"model {key} is not read by the {name} builder")
            if value is not None and not _finite_number(value):
                raise ConfigError(
                    f"model {key} must be a finite number, got {value!r}")
        p = self.model.get("p")
        if p is not None and not (_integer(p) and p >= 1):
            raise ConfigError(f"model p must be an integer >= 1, got {p!r}")
        # below 0 no word fits the buffer, and the working dim can shrink
        # below the default scheme's heat grid
        buffer = self.model.get("buffer")
        if buffer is not None and buffer < 0:
            raise ConfigError(
                f"model buffer must be non-negative, got {buffer!r}")
        if not isinstance(self.checks, list) or not all(
                isinstance(name, str) for name in self.checks):
            raise ConfigError(
                f"config.checks must be a list of check names, got "
                f"{self.checks!r}")
        for name in self.checks:
            if name not in CHECKS:
                raise ConfigError(
                    f"unknown check {name!r}; known: {sorted(CHECKS)}")
            # the defaults (8 on the circle, 4 on the torus) meet every row's
            if buffer is not None and buffer < CHECKS[name].buffer:
                raise ConfigError(f"{name} needs model buffer >= "
                                  f"{CHECKS[name].buffer}, got {buffer!r}")
        repeated = sorted({name for name in self.checks
                           if self.checks.count(name) > 1})
        if repeated:
            raise ConfigError(f"checks listed more than once: {repeated}")
        self._validate_scheme()
        if not _integer(self.seed) or self.seed < 0:
            raise ConfigError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if self.out:
            _check_out(self.out)
        return self

    def _validate_scheme(self):
        """Each scheme key is a field of :class:`traces.ExtendedLimitScheme`
        and has its default's type (a finite number for a float)."""
        if not isinstance(self.scheme, dict):
            raise ConfigError(
                f"config.scheme must be an object, got {self.scheme!r}")
        defaults = {f.name: f.default
                    for f in fields(traces.ExtendedLimitScheme)}
        for key, value in self.scheme.items():
            if key not in defaults:
                raise ConfigError(f"unknown scheme key {key!r}; known: "
                                  f"{sorted(defaults)}")
            default = defaults[key]
            if isinstance(default, str):
                ok, kind = isinstance(value, str), "a string"
            elif isinstance(default, int):
                ok, kind = _integer(value) and value >= 1, "a positive integer"
            else:
                ok, kind = _finite_number(value), "a finite number"
            if not ok:
                raise ConfigError(f"scheme {key} must be {kind}, got {value!r}")
        try:
            traces.ExtendedLimitScheme(**self.scheme)
        except ContractViolation as exc:  # a value out of range
            raise ConfigError(str(exc)) from exc

    def build_model(self):
        """The model this config names; a parameter its builder rejects is a
        :class:`ConfigError`."""
        spec = self.model
        try:
            return triples.build_model(
                spec["name"], spec.get("N", 64), theta=spec.get("theta"),
                p=spec.get("p"), buffer=spec.get("buffer"))
        except ContractViolation as exc:
            raise ConfigError(str(exc)) from exc

    def to_json(self):
        return json.dumps(asdict(self), indent=2, sort_keys=True, default=str)

    def digest(self):
        """Hash of every field that can change results (not the ``out`` path)."""
        text = replace(self, out=None).to_json()
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _check_out(out):
    """A report directory ``out`` whose nearest existing path is not a
    directory cannot be made: a :class:`ConfigError` before any check runs."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"out {out!r} cannot be made: {str(path)!r} "
                                  f"exists and is not a directory")
            return


def _integer(value):
    return isinstance(value, int) and not isinstance(value, bool)


def _finite_number(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass
class CheckRecord:
    """A check's result: the check states its gates, and ``run`` derives
    ``passed`` (no error, no non-finite field, every gate holds).

    Each field has one job, and each number is stated once: ``gates`` hold
    the comparisons, ``values`` the estimates, ``residuals`` the fit
    residuals that no gate reads, and ``details`` only provenance (grids,
    windows, fit point counts, the scheme, ``error`` and ``nonfinite``).
    """

    gates: list = field(default_factory=list)  # of Gate
    values: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    runtime_s: float = 0.0
    inputs_digest: str = ""
    curves: list = field(default_factory=list)  # (curve_name, header, rows)
    name: str = ""  # the key of the check's row in CHECKS
    passed: bool = False

    def as_dict(self, timing=True):
        out = {
            "name": self.name,
            "passed": self.passed,
            "inputs_digest": self.inputs_digest,
            "gates": _jsonable(self.gates),
            "values": _jsonable(self.values),
            "residuals": _jsonable(self.residuals),
            "details": _jsonable(self.details),
        }
        if timing:
            out["runtime_s"] = round(self.runtime_s, 3)
        return out

    def failures(self):
        """Why the record fails: its error, else each gate that fails or
        holds a non-finite number, with its value and bound, and each
        non-finite field; none if it passes."""
        if "error" in self.details:
            return [self.details["error"]]
        return [f"{g.name}={_fmt(g.value)} (bound {_fmt(g.bound)})"
                for g in self.gates if not (g.holds and math.isfinite(g.value)
                                            and math.isfinite(g.bound))] + [
            f"{path} not finite" for path in self.details.get("nonfinite", [])]


def _jsonable(obj):
    if isinstance(obj, complex):
        return {"re": _jsonable(obj.real), "im": _jsonable(obj.imag)}
    if isinstance(obj, (np.floating, np.integer)):
        return _jsonable(obj.item())
    if isinstance(obj, np.ndarray):
        return [_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)  # 'nan', 'inf' or '-inf': reports are strict JSON
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def _nonfinite_fields(rec):
    """Dotted names of the non-finite floats in a record's values, residuals
    and details (a complex number counts as its parts ``re`` and ``im``);
    :meth:`CheckRecord.failures` names a gate's own."""
    found = []

    def walk(obj, path):
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, tuple, np.ndarray)):
            items = enumerate(obj)
        elif isinstance(obj, (complex, np.complexfloating)):
            items = (("re", obj.real), ("im", obj.imag))
        else:
            if isinstance(obj, (float, np.floating)) and not math.isfinite(obj):
                found.append(path)
            return
        for key, value in items:
            walk(value, f"{path}.{key}")

    walk(rec.values, "values")
    walk(rec.residuals, "residuals")
    walk(rec.details, "details")
    return found


@dataclass
class Report:
    records: list
    config: ExperimentConfig
    environment: dict

    @property
    def all_passed(self):
        return all(r.passed for r in self.records)

    def as_dict(self, timing=True):
        out = {
            "config_digest": self.config.digest(),
            "all_passed": self.all_passed,
            "records": [r.as_dict(timing=timing) for r in self.records],
        }
        if timing:
            out["environment"] = self.environment
        return out

    def to_json(self, timing=True):
        return json.dumps(self.as_dict(timing=timing), indent=2, sort_keys=True,
                          allow_nan=False)

    def stable_digest(self):
        """Digest of everything except runtimes and the environment stamp."""
        return hashlib.sha256(self.to_json(timing=False).encode()).hexdigest()

    def to_markdown(self):
        lines = ["# singtrace report", ""]
        lines.append(f"- config digest: `{self.config.digest()}`")
        lines.append(f"- all passed: **{self.all_passed}**")
        lines.append("")
        lines.append("| check | passed | values | residuals | runtime (s) |")
        lines.append("|---|---|---|---|---|")
        for r in self.records:
            vals = "; ".join(f"{k}={_fmt(v)}" for k, v in r.values.items())
            res = "; ".join(f"{k}={_fmt(v)}" for k, v in r.residuals.items())
            status = "PASS" if r.passed else "FAIL: " + "; ".join(r.failures())
            lines.append(f"| {r.name} | {status} | {vals} | {res} | "
                         f"{r.runtime_s:.2f} |")
        return "\n".join(lines) + "\n"

    def write(self, out_dir):
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(self.to_json())
        (out / "report.md").write_text(self.to_markdown())
        for rec in self.records:
            for curve_name, header, rows in rec.curves:
                tag = rec.name.replace(" ", "_").replace(":", "_")
                stem = f"{tag}_{curve_name}"
                with open(out / f"{stem}.csv", "w", newline="") as fh:
                    writer = csv.writer(fh)
                    writer.writerow(header)
                    writer.writerows(rows)
                with open(out / f"{stem}.dat", "w") as fh:
                    fh.write("# " + " ".join(header) + "\n")
                    for row in rows:
                        fh.write(" ".join(repr(float(x)) for x in row) + "\n")
        return out


def _fmt(v):
    if isinstance(v, complex):
        return f"{v.real:.4g}{v.imag:+.4g}i"
    if isinstance(v, float):
        return f"{v:.4g}"
    return str(v)


def _environment_stamp(config):
    return {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": _platform(),
        "seed": config.seed,
    }


def _platform():
    """``platform.platform()`` without its processor lookup where that is
    known: on Linux with glibc the string is the system, release, machine
    and C library, while ``platform.platform()`` also reads
    ``uname().processor``, which there runs ``uname -p`` in a subprocess
    (about 10 ms per process) only to drop an empty or repeated answer."""
    uname = platform.uname()  # its processor is looked up when read
    libc, version = platform.libc_ver() if uname.system == "Linux" else ("", "")
    if libc != "glibc":
        return platform.platform()
    return "-".join((uname.system, uname.release, uname.machine, "with",
                     libc + version))


# -- builtin chains ---------------------------------------------------------------


def builtin_chain(model, name=None):
    """Named chains per model; None selects the model's default cycle."""
    kind = model.name.split("+")[0]
    if name in (None, "default"):
        name = {"circle": "winding", "nc_torus": "volume", "toy": "toy-volume"}[kind]
    if name == "winding":
        return hh.circle_winding_cycle(model)
    if name == "volume":
        return hh.nc_torus_volume_cycle(model)
    if name == "toy-volume":
        w = model.monomial((1,))
        if model.p == 1:
            return hh.Chain.from_elements(model, [(1.0, [w.adjoint(), w])])
        letters = [model.monomial((j,)) for j in range(1, model.p + 1)]
        return hh.antisymmetrized_cycle(model, letters)
    if name == "parity":
        if kind == "nc_torus":
            U = model.monomial((1, 0))
            return hh.Chain.from_elements(model, [(1.0, [U.adjoint(), U])])
        g = model.monomial((1,))
        g2 = model.monomial((2,))
        return hh.antisymmetrized_cycle(model, [g, g2])
    raise ConfigError(f"unknown builtin chain {name!r}")


def _load_chain(model, spec):
    if spec is None or isinstance(spec, str):
        return builtin_chain(model, spec)
    if isinstance(spec, dict):
        return hh.chain_from_json(model, spec)
    raise ConfigError("chain must be a builtin name or an inline JSON object")


# -- check implementations ----------------------------------------------------------


class _Context:
    def __init__(self, config):
        self.config = config
        self.model = config.build_model()
        self.chain = _load_chain(self.model, config.chain)
        # a word the checks realize must fit the buffer: one that does not
        # is the config's fault, not a failing check
        realized = {CHECKS[name].words for name in config.checks}
        words = set()
        if "chain" in realized:
            words.update(w for ws, _m in self.chain.terms for w in ws)
        if "generators" in realized:
            words.update(w for g in self.model.generators().values()
                         for w, _m in g.terms)
        for word in sorted(words):
            if self.model.word_band(word) > self.model.B:
                raise ConfigError(
                    f"word {self.model.word_label(word)} exceeds buffer "
                    f"B={self.model.B}")
        self.chain_key = hh._chain_key(self.chain)
        self.scheme = traces.ExtendedLimitScheme(**config.scheme)
        # a heat grid reaches max(dim // 8, 2 n_min): past dim it samples
        # nothing but the truncation tail
        if 2 * self.scheme.n_min > self.model.dim:
            raise ConfigError(
                f"scheme n_min={self.scheme.n_min} puts the heat grid's top "
                f"2*n_min past the model's dim {self.model.dim}")
        # a grid a check builds on the harmonic diagonal of dim N, which on
        # the circle and torus is below the working dim, must stay on it
        N = self.model.N
        for name in config.checks:
            least = CHECKS[name].least_N.get(self.model.name, 0)
            if N < least:
                raise ConfigError(f"{name} needs {self.model.name} N >= "
                                  f"{least}, got {N}")
            grid = CHECKS[name].n_min
            if grid is not None and self.scheme.n_min > grid[0](N):
                on_grid = sorted(other for other in config.checks
                                 if CHECKS[other].n_min is grid)
                raise ConfigError(
                    f"scheme n_min={self.scheme.n_min} {grid[1].format(N=N)} "
                    f"of the harmonic diagonal that {on_grid} sample")
        stamp = (config.digest() + self.model.model_id
                 + json.dumps(sorted(map(str, self.chain.terms.items()))))
        self.inputs_digest = hashlib.sha256(stamp.encode()).hexdigest()[:16]

    def rng(self):
        """A generator of its own for each check that draws, seeded by the
        config, so a check's inputs do not depend on the other checks listed:
        a ``random.Random(seed)``, drawn from only through ``random()``, the
        one sequence Python keeps the same for a given seed."""
        return random.Random(self.config.seed)


def _check_cycle(ctx):
    return CheckRecord(
        gates=[Gate("boundary_terms", len(hh.boundary(ctx.chain).terms), 0)],
        values={"degree": ctx.chain.degree, "terms": len(ctx.chain.terms)})


_CHERN_CONVERGENCE = 0.1  # of max(|Ch(c)|, 1)


def _check_chern(ctx):
    res = hh.chern(ctx.chain, ctx.model)
    delta = (res.deltas or [0.0])[-1]
    rows = [(r, v.real, v.imag) for r, v in sorted(res.history.items())]
    # the trace at each radius is a row of the convergence curve
    return CheckRecord(
        gates=[Gate("last_window_delta", delta,
                    _CHERN_CONVERGENCE * max(abs(res.value), 1.0))],
        values={"chern": res.value}, details={"radii": sorted(res.history)},
        curves=[("convergence", ["radius", "re", "im"], rows)])


def _fit_details(fit):
    """The provenance of a log fit: its index window and grid size."""
    return {"window": fit.window, "grid_points": fit.grid.size}


def _check_eigen_sums(ctx):
    series = hh._pairing_series(ctx.chain, ctx.model)
    verdict = hh._pairing_verdict(ctx.chain, ctx.model)
    grid = verdict.fit.grid
    rows = [(int(n), x.real, x.imag)
            for n, x in zip(grid, series.at(grid))]
    return CheckRecord(
        gates=[Gate("residual_sup", verdict.fit.residual_sup, verdict.tol)],
        values={"z": verdict.z, "intercept": verdict.fit.intercept,
                "verdict": verdict.kind},
        details=_fit_details(verdict.fit),
        curves=[("partial_sums", ["n", "re_sum", "im_sum"], rows)])


# of |Ch(c)|, at least the floor of a vanishing pairing: the truncation
# leaks a gap into the heat trace of a cycle whose Ch(c) is 0
_HEAT_REL = 0.15


def _check_heat(ctx):
    ch = hh.chern(ctx.chain, ctx.model).value
    res = hh.heat_cycle_trace(ctx.chain, ctx.model)
    rows = list(zip(res["s"], [v.real for v in res["values"]],
                    [v.imag for v in res["values"]]))
    return CheckRecord(
        gates=[Gate("gap", abs(res["z"] - ch),
                    max(_HEAT_REL * abs(ch), hh._VANISHING_Z_TOL))],
        values={"z": res["z"], "chern": ch},
        residuals={"fit_residual": res["residual_sup"]},
        curves=[("heat_trace", ["s", "re", "im"], rows)])


_DIXMIER_REL = 0.15  # of |Ch(c)|


def _check_dixmier(ctx):
    ch = hh.chern(ctx.chain, ctx.model).value
    est = hh._pairing_dixmier(ctx.chain, ctx.model, ctx.scheme)
    return CheckRecord(
        gates=[Gate("gap", abs(est.z - ch),
                    _DIXMIER_REL * max(abs(ch), 1e-12))],
        values={"z": est.z, "chern": ch},
        residuals={"oscillation": est.residual_sup},
        details={"grid_used": est.grid_used})


def _check_measure(ctx):
    report = hh.main_theorem_check(ctx.chain, ctx.model)
    fit = report["fit"]
    rec = CheckRecord(gates=report["gates"], details=_fit_details(fit),
                      values={"mode": report["mode"], "chern": report["chern"],
                              "z_spec": fit.z, "intercept_spec": fit.intercept})
    if report["mode"] == "character":
        heat, ideal = report["heat"], report["ideal"]
        rec.values.update(
            z_heat=heat.z, branch=report["branch"],
            quasi_norm=ideal.quasi_norm_pinf, lorentz_norm=ideal.lorentz_norm,
            decay_exponent=ideal.fitted_decay_exponent)
        # criterion_gap's bound is this residual plus the spectral fit's
        # and a floor
        rec.residuals["heat_fit"] = heat.residual_sup
        rec.details["heat_grid"] = heat.grid_used
    return rec


def _check_reduce(ctx):
    report = hh.reduction_partial_sum_check(ctx.chain, ctx.model)
    fit = report["fit"]
    return CheckRecord(gates=report["gates"], details=_fit_details(fit),
                       values={"z": fit.z, "intercept": fit.intercept,
                               "sum_sup": report["sum_sup"]})


_IDENTITY_TOL = 1e-10  # exact identities in double precision


def _check_identity_suite(ctx):
    model, rng = ctx.model, ctx.rng()
    sub = {"bob": hh.bob_identity_check(ctx.chain, model)}
    gens = list(model.generators().values())
    sub["appendix"] = hh.appendix_identity_checks(gens[0], gens[-1], model)
    # b o b = 0 on a random chain of degree 3
    rank = model.word_rank
    def rand_elem(coeff):
        word = tuple(int(5 * rng.random()) - 2 for _ in range(rank))
        return model.monomial(word, coeff=coeff())
    # small nonzero Gaussian-integer coefficients: their products and sums
    # are exact in double precision, so is_zero() stays an exact test
    small = lambda: (-3, -2, -1, 1, 2, 3)[int(6 * rng.random())]
    gauss_int = lambda: complex(small(), small())
    phase = lambda: complex(np.exp(2j * np.pi * rng.random()))
    rand = hh.Chain.from_elements(
        model, [(1.0, [rand_elem(gauss_int) for _ in range(4)])
                for _ in range(3)])
    sub["bb_zero"] = {"terms": len(hh.boundary(hh.boundary(rand)).terms)}
    # Leibniz for [D, .] and [|D|, .] on interior modes, on two random words
    # with random unit-modulus coefficients
    a, b = rand_elem(phase), rand_elem(phase)
    A, Bv = model.realize(a), model.realize(b)
    AB = model.realize(a * b)
    leib_d = model.interior_norm(
        triples.partial_d(a * b, model) - (triples.partial_d(a, model) @ Bv)
        - (A @ triples.partial_d(b, model))
        - (model.D @ (AB - A @ Bv) - (AB - A @ Bv) @ model.D))
    # the AB - A@Bv corrections cancel edge defects of the symbolic product
    leib_delta = model.interior_norm(
        triples.delta(a * b, model) - (triples.delta(a, model) @ Bv)
        - (A @ triples.delta(b, model))
        - (model.absD @ (AB - A @ Bv) - (AB - A @ Bv) @ model.absD))
    sub["leibniz"] = {"partial_d": float(leib_d), "delta": float(leib_delta)}
    # grading relations on even models
    if model.Gamma is not None:
        from .operators import anticommutator, commutator
        g_anti = anticommutator(model.Gamma, model.D).norm_bound()
        g_comm = max(commutator(model.Gamma, model.realize(x)).norm_bound()
                     for x in gens)
        g_sq = (model.Gamma @ model.Gamma
                - Operator(np.ones(model.dim, complex))).norm_bound()
        sub["grading"] = {
            "anticommutator_D": float(g_anti), "commutator_algebra": float(g_comm),
            "gamma_squared": float(g_sq)}
    # each residual within _IDENTITY_TOL; b o b leaves no term at all
    return CheckRecord(
        gates=[Gate(f"{name}.{key}", value,
                    0 if name == "bb_zero" else _IDENTITY_TOL)
               for name, entry in sub.items() for key, value in entry.items()],
        values={"checks": len(sub)})


_DECAY_SLOPE_TOL = 0.3  # of the decay exponent from -1


def _check_summability(ctx):
    diag, generator_norms = triples.summability_report(ctx.model)
    slope = diag.fitted_decay_exponent
    return CheckRecord(
        gates=[Gate("abs(decay_exponent+1)", abs(slope + 1.0),
                    _DECAY_SLOPE_TOL),
               Gate("decay_exponent", slope, ideals._WEAK_L1_SLOPE)],
        values={"quasi_norm": diag.quasi_norm_pinf,
                "lorentz_norm": diag.lorentz_norm,
                "generator_quasi_norms": generator_norms})


def _harmonic(model, N):
    """V = diag(1/(k+1)) of dim N, built once per model and N."""
    return model.derived(("harmonic", N), lambda: Operator(
        1.0 / (np.arange(N) + 1.0), label="diag(1/(k+1))"))


def _alternating(N):
    """A = diag((-1)^k) of dim N, whose V-weighted trace vanishes."""
    return Operator(traces._alternating_signs(N), label="alt signs")


def _harmonic_heat(model):
    """Every alpha = 2 heat sum of V = diag(1/(k+1)) on the default heat
    grid that diag-oracles, scalings and cutoff read (the modulated sums
    with the alternating signs), from one evaluation of each weight vector;
    built once per model."""
    N = model.N
    return model.derived(("harmonic heat",), lambda: traces._heat_pass(
        _harmonic(model, N), 2.0))


_DIAG_Z_TOL = 0.05  # of each trace of V from 1
_ALT_Z_TOL = 0.02  # of each slope of the alternating signs from 0


def _check_diag_oracles(ctx):
    N = ctx.model.N
    V = _harmonic(ctx.model, N)
    # the partial sums of V's singular values, read at the scheme's window
    z_dix = traces.dixmier_logmean(
        ideals.PartialSumSeries(singular_values(V)), ctx.scheme)
    z_xi = traces.heat_xi(V, ctx.scheme)
    sums = _harmonic_heat(ctx.model)
    z_heat = traces.heat_fit(sums["grid"], sums["heat"])
    alt = traces.measurability_criterion_check(
        _alternating(N), V, sums["grid"], sums["modulated"])
    return CheckRecord(
        gates=[Gate("abs(dixmier-1)", abs(z_dix.z - 1), _DIAG_Z_TOL),
               Gate("abs(heat_xi-1)", abs(z_xi.z - 1), _DIAG_Z_TOL),
               Gate("abs(heat-1)", abs(z_heat.z - 1), _DIAG_Z_TOL),
               Gate("abs(alt_z_heat)", abs(alt["z_heat"]), _ALT_Z_TOL),
               Gate("abs(alt_z_spec)", abs(alt["z_spec"]), _ALT_Z_TOL)],
        values={"dixmier": z_dix.z, "heat_xi": z_xi.z, "heat": z_heat.z,
                "alt_z_heat": alt["z_heat"], "alt_z_spec": alt["z_spec"]},
        residuals={"dixmier": z_dix.residual_sup, "heat_xi": z_xi.residual_sup,
                   "heat": z_heat.residual_sup})


def _check_scalings(ctx):
    V = _harmonic(ctx.model, ctx.model.N)
    sums = _harmonic_heat(ctx.model)
    grid = sums["grid"]  # the default heat grid, which both alphas sample
    sub = {1.5: traces.lemma_estimate_scalings(V, 1.5),
           2.0: traces._scalings_verdict(2.0, grid, sums["saturating"],
                                         sums["counting"])}
    return CheckRecord(
        gates=[gate._replace(name=f"alpha={alpha}.{gate.name}")
               for alpha, gates in sub.items() for gate in gates],
        details={"grid": {"n_lo": grid[0], "n_hi": grid[-1],
                          "points": grid.size}})


_SCHEME_DRIFT = 0.02


def _check_scheme_robustness(ctx):
    # the partial sums of V's singular values, read at each ratio's window
    sums = ideals.PartialSumSeries(
        singular_values(_harmonic(ctx.model, ctx.model.N)))
    zs = {r: traces.dixmier_logmean(sums, replace(ctx.scheme, ratio=r)).z
          for r in (1.5, 2.0, 3.0)}
    drift = max(abs(a - b) for a in zs.values() for b in zs.values())
    return CheckRecord(gates=[Gate("drift", drift, _SCHEME_DRIFT)],
                       values={f"z_r{r}": z for r, z in zs.items()})


_CONCORDANCE_FLOOR = 0.02


def _check_concordance(ctx):
    """Partial-sum, heat and Dixmier estimates of one pairing must agree
    pairwise within their summed reported residuals plus a floor."""
    chain, model = ctx.chain, ctx.model
    fit = hh._pairing_verdict(chain, model).fit
    heat = hh._pairing_heat(chain, model)
    dix = hh._pairing_dixmier(chain, model, ctx.scheme)
    ests = {"partial_sum": (fit.z, fit.residual_sup),
            "heat": (heat.z, heat.residual_sup),
            "dixmier": (dix.z, dix.residual_sup)}
    names = list(ests)
    return CheckRecord(
        gates=[Gate(f"abs({a}-{b})", abs(ests[a][0] - ests[b][0]),
                    ests[a][1] + ests[b][1] + _CONCORDANCE_FLOOR)
               for i, a in enumerate(names) for b in names[i + 1:]],
        values={name: z for name, (z, _r) in ests.items()},
        residuals={name: r for name, (_z, r) in ests.items()})


def _check_modulated(ctx):
    N = min(ctx.model.N, 4096)
    V = _harmonic(ctx.model, N)
    rng = ctx.rng()
    phases = np.exp(2j * np.pi * np.array([rng.random() for _ in range(N)]))
    A = Operator(phases, label="random phases")
    return CheckRecord(gates=traces.modulated_comparison(A, V)["gates"])


_CUTOFF_GAP = 0.05


def _check_cutoff(ctx):
    scheme = ctx.scheme
    window = scheme.window(traces.default_heat_grid(
        ctx.model.N, scheme.ratio, scheme.n_min))
    sums = _harmonic_heat(ctx.model)
    grid = sums["grid"]
    # whether the sorted grid holds every window point (np.isin would sort
    # through np.unique, which imports numpy.ma)
    at = np.minimum(np.searchsorted(grid, window), grid.size - 1)
    if np.array_equal(grid[at], window):  # the default scheme's window
        rep = traces._cutoff_verdict(window, sums["heat"][at],
                                     sums["cutoff"][at], scheme)
    else:
        rep = traces.cesaro_cutoff_comparison(
            None, _harmonic(ctx.model, ctx.model.N), alpha=2.0, scheme=scheme)
    return CheckRecord(
        gates=[Gate("gap", rep["gap"], _CUTOFF_GAP)],
        values={"z_heat": rep["z_heat"], "z_cutoff": rep["z_cutoff"]})


class Check(NamedTuple):
    """One row of the check table, which validation, ``run``, the release
    and the CLI verbs read: the check, whose bounds are constants stated
    beside it; the memo keys it requests itself, not through a build
    (``("double",) + key`` on the invertible double); the words it realizes,
    which must fit the buffer: ``"chain"`` (a CLI verb), ``"generators"``
    or None; the buffer its own words need; its grid on the harmonic
    diagonal (see ``_HEAT_GRID``) or None; and the least N of each model
    named in ``least_N`` at which it can hold (see ``_CIRCLE_PAIRING_N``)."""

    check: object
    requests: object
    words: object
    buffer: int
    n_min: object
    least_N: dict = {}


# a check's grid on the harmonic diagonal of dim N: the largest scheme n_min
# it admits, a function of N, and how a larger one overruns it (formatted
# with N); the heat grid reaches max(N // 8, 2 n_min), and the Dixmier grid
# runs from n_min to the last partial sum, N - 1, and holds a point between
# the two at ratio 2 only while 2 n_min < N - 1: past that, the grids at
# ratios 2 and 3 are the same points
_HEAT_GRID = (lambda N: N // 2,
              "puts the heat grid's top 2*n_min past N={N}, the dim")
_DIXMIER_GRID = (lambda N: (N - 2) // 2,
                 "puts 2*n_min, the Dixmier grid's second point at ratio 2, "
                 "at or past its last point N-1, with N={N} the dim")


# the least circle N at which the pairing's estimates hold, measured with
# the winding chain at every N from 8 to 89 (every N from 40 passes): below
# 40 the pairing's heat fit, on a grid from n = 8 to its floor 32
# (hochschild._pairing_heat), reads z = 1.81 at N = 32 for Ch = 2, so
# measure and concordance fail (criterion_gap 0.175 against 0.0764 at
# N = 32, 0.0643 against 0.0570 at N = 39); below 32 the heat check's
# s-window holds fewer than 3 points, and heat_cycle_trace raises
_CIRCLE_PAIRING_N = 40
_CIRCLE_HEAT_N = 32


def _top_double(ctx):
    """W_p(c) and the inverse powers of |D0| on the invertible double."""
    return [("double", "W", ctx.chain_key, frozenset({ctx.model.p})),
            ("double", "inverse_powers")]


def _harmonic_requests(ctx):
    return [("harmonic", ctx.model.N), ("harmonic heat",)]


CHECKS = {
    "cycle": Check(_check_cycle, lambda ctx: [], None, 0, None),
    "chern": Check(_check_chern, lambda ctx: [("chern", ctx.chain_key)],
                   "chain", 0, None),
    "eigen-sums": Check(_check_eigen_sums, lambda ctx: [
        ("pairing", ctx.chain_key), ("pairing verdict", ctx.chain_key)],
        "chain", 0, None),
    "heat": Check(_check_heat, lambda ctx: [
        ("chern", ctx.chain_key)] + _top_double(ctx), "chain", 0, None,
        {"circle": _CIRCLE_HEAT_N}),
    "dixmier": Check(_check_dixmier, lambda ctx: [
        ("chern", ctx.chain_key),
        ("pairing dixmier", ctx.chain_key, ctx.scheme)], "chain", 0, None),
    "measure": Check(_check_measure, lambda ctx: [
        ("chern", ctx.chain_key), ("pairing verdict", ctx.chain_key),
        ("pairing", ctx.chain_key), ("pairing heat", ctx.chain_key),
        ("weight_mu", ctx.chain.degree), ("weight_ideal", ctx.chain.degree)],
        "chain", 0, None, {"circle": _CIRCLE_PAIRING_N}),
    "reduce": Check(_check_reduce, lambda ctx: [
        ("double", "omega", ctx.chain_key)] + _top_double(ctx),
        "chain", 0, None),
    # its words a * b, a and b with exponents in [-2, 2], reach 4 modes out
    "identity-suite": Check(
        _check_identity_suite,
        lambda ctx: [("W", ctx.chain_key, frozenset())], "chain", 4, None),
    "summability": Check(
        _check_summability, lambda ctx: [("weight_ideal", ctx.model.p)],
        "generators", 0, None),
    "diag-oracles": Check(_check_diag_oracles, _harmonic_requests, None, 0,
                          _HEAT_GRID),
    "scalings": Check(_check_scalings, _harmonic_requests, None, 0, None),
    "scheme-robustness": Check(_check_scheme_robustness,
                               lambda ctx: [("harmonic", ctx.model.N)], None,
                               0, _DIXMIER_GRID),
    "concordance": Check(_check_concordance, lambda ctx: [
        ("pairing verdict", ctx.chain_key), ("pairing heat", ctx.chain_key),
        ("pairing dixmier", ctx.chain_key, ctx.scheme)], "chain", 0, None,
        {"circle": _CIRCLE_PAIRING_N}),
    "modulated": Check(_check_modulated,
                       lambda ctx: [("harmonic", min(ctx.model.N, 4096))],
                       None, 0, None),
    "cutoff": Check(_check_cutoff, _harmonic_requests, None, 0, _HEAT_GRID),
}


def _needs(key, N):
    """The memo keys the build of the entry at ``key`` requests; ``N`` is
    the model's.  A chain map, the double and its entries request none."""
    kind, arg = key[0], key[1] if len(key) > 1 else None
    q = arg[0] if kind.startswith("pairing") else arg  # a chain's degree
    return {"pairing": [("omega", arg), ("weight", q)],
            "pairing verdict": [("chern", arg), ("pairing", arg)],
            "pairing heat": [("omega", arg), ("weight", q), ("weight_mu", q)],
            "pairing dixmier": [("pairing", arg)],
            "weight_mu": [("weight", q)],
            "weight_ideal": [("weight_mu", q)],
            "harmonic heat": [("harmonic", N)]}.get(kind, [])


def run(config):
    """Execute the configured checks; returns a Report (writes it if out set).

    After each check, every memo entry of the model and of its invertible
    double that no later check can read is released (see
    :meth:`triples.SpectralTripleModel.release`), so the peak of a run holds
    only what its remaining checks read."""
    config.validate()
    try:
        ctx = _Context(config)
    except ContractViolation as exc:  # the config's chain
        raise ConfigError(str(exc)) from exc
    records = []
    for i, name in enumerate(config.checks):  # none: a passing report
        t0 = time.perf_counter()
        try:
            rec = CHECKS[name].check(ctx)
        except OperatorError as exc:  # e.g. a model too small for the check
            rec = CheckRecord(details={"error": f"{type(exc).__name__}: {exc}"})
        rec.name = name
        nonfinite = _nonfinite_fields(rec)
        if nonfinite:
            rec.details["nonfinite"] = nonfinite
        rec.passed = not rec.failures()
        rec.runtime_s = time.perf_counter() - t0
        rec.inputs_digest = ctx.inputs_digest
        records.append(rec)
        ctx.model.release(
            [key for later in config.checks[i + 1:]
             for key in CHECKS[later].requests(ctx)],
            lambda key: _needs(key, ctx.model.N))
    records.sort(key=lambda r: r.name)
    report = Report(records=records, config=config,
                    environment=_environment_stamp(config))
    if config.out:
        report.write(config.out)
    return report


def _merge(reports, config):
    records = sorted((replace(rec, name=f"{tag}:{rec.name}")
                      for tag, rep in reports for rec in rep.records),
                     key=lambda r: r.name)
    return Report(records=records, config=config,
                  environment=_environment_stamp(config))


def suite(name, out=None, seed=0):
    """Curated runs: 'quick' (N<=512, <60 s) or 'full' (acceptance scale)."""
    if out:
        _check_out(out)
    if name == "quick":
        plan = [
            ("circle256", ExperimentConfig(
                model={"name": "circle", "N": 256},
                checks=["identity-suite", "cycle", "chern", "measure",
                        "reduce", "heat", "summability"], seed=seed)),
            ("torus16", ExperimentConfig(
                model={"name": "nc_torus", "N": 16},
                checks=["identity-suite", "cycle", "chern", "measure"],
                seed=seed)),
            ("diag1e4", ExperimentConfig(
                model={"name": "toy", "N": 10_000},
                checks=["diag-oracles", "scalings", "scheme-robustness",
                        "cutoff"], seed=seed)),
        ]
    elif name == "full":
        plan = [
            ("circle256", ExperimentConfig(
                model={"name": "circle", "N": 256},
                checks=["identity-suite"], seed=seed)),
            ("torus32", ExperimentConfig(
                model={"name": "nc_torus", "N": 32},
                checks=["identity-suite", "cycle"], seed=seed)),
            ("diag1e5", ExperimentConfig(
                model={"name": "toy", "N": 100_000},
                checks=["diag-oracles", "scalings", "scheme-robustness",
                        "cutoff", "modulated"], seed=seed)),
            ("circle2048", ExperimentConfig(
                model={"name": "circle", "N": 2048},
                checks=["cycle", "chern", "measure", "reduce", "heat",
                        "eigen-sums", "dixmier", "concordance"], seed=seed)),
            ("torus64", ExperimentConfig(
                model={"name": "nc_torus", "N": 64},
                checks=["cycle", "chern", "measure", "concordance"],
                seed=seed)),
            ("torus64-parity", ExperimentConfig(
                model={"name": "nc_torus", "N": 64}, chain="parity",
                checks=["cycle", "measure"], seed=seed)),
            ("toy1e5", ExperimentConfig(
                model={"name": "toy", "N": 100_000},
                checks=["summability", "measure"], seed=seed)),
        ]
    else:
        raise ConfigError(f"unknown suite {name!r} (use quick|full)")
    reports = [(tag, run(cfg)) for tag, cfg in plan]
    merged = _merge(reports, ExperimentConfig(model={"name": "circle", "N": 0},
                                              checks=[], seed=seed))
    if out:
        merged.write(out)
    return merged
