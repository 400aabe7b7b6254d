import contextlib
import importlib
import importlib.util
import io
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
import threading
import types
import warnings
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singtrace import harness, ideals, traces
from singtrace import hochschild as hh
from singtrace.cli import main as cli_main
from singtrace.harness import (
    CHECKS,
    Check,
    ConfigError,
    ExperimentConfig,
    builtin_chain,
    run,
    suite,
)
from singtrace.ideals import Gate
from singtrace.triples import build_circle, build_model

import test_golden


class TestConfig:
    def test_from_json_roundtrip(self):
        cfg = ExperimentConfig.from_json(json.dumps({
            "model": {"name": "circle", "N": 64},
            "checks": ["cycle", "chern"],
            "seed": 3,
        }))
        assert cfg.model["N"] == 64
        assert cfg.checks == ["cycle", "chern"]

    def test_unknown_check_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(json.dumps({
                "model": {"name": "circle", "N": 16},
                "checks": ["does-not-exist"],
            }))

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json(json.dumps({"models": {}}))

    def test_bad_json_line_diagnostics(self):
        with pytest.raises(ConfigError, match="line"):
            ExperimentConfig.from_json("{broken")

    def test_unknown_model_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(model={"name": "sphere", "N": 8}).validate()


class TestRun:
    def test_empty_check_list_passes(self):
        report = run(ExperimentConfig(model={"name": "circle", "N": 16},
                                      checks=[]))
        assert report.records == []
        assert report.all_passed

    def test_single_check(self):
        report = run(ExperimentConfig(model={"name": "circle", "N": 32},
                                      checks=["cycle"]))
        assert report.all_passed
        assert report.records[0].name == "cycle"

    def test_report_files_written(self, tmp_path):
        out = tmp_path / "reports"
        run(ExperimentConfig(model={"name": "circle", "N": 32},
                             checks=["chern", "eigen-sums"], out=str(out)))
        assert (out / "report.json").exists()
        assert (out / "report.md").exists()
        assert (out / "chern_convergence.csv").exists()
        assert (out / "chern_convergence.dat").exists()
        assert (out / "eigen-sums_partial_sums.csv").exists()
        payload = json.loads((out / "report.json").read_text())
        assert payload["all_passed"]

    def test_deterministic_outputs(self, tmp_path):
        cfg = lambda out=None: ExperimentConfig(
            model={"name": "circle", "N": 48},
            checks=["identity-suite", "chern", "modulated"], seed=11,
            out=out)
        digests = {run(cfg()).stable_digest()}
        for name in ("first", "second"):
            digests.add(run(cfg(str(tmp_path / name))).stable_digest())
        assert len(digests) == 1

    @pytest.mark.parametrize("scheme", [{"window_fraction": 0.5},
                                        {"n_min": 32}])
    def test_scheme_robustness_runs_on_the_config_scheme(self, scheme):
        # each grid ratio replaces only the ratio of the config's scheme: its
        # n_min and window_fraction hold for every ratio
        def zs(sch):
            (rec,) = run(ExperimentConfig(
                model={"name": "toy", "N": 10_000},
                checks=["scheme-robustness"], scheme=sch)).records
            return rec.values
        custom = zs(scheme)
        sums = ideals.PartialSumSeries(1.0 / (np.arange(10_000) + 1.0))
        assert custom == {
            f"z_r{r}": traces.dixmier_logmean(
                sums, traces.ExtendedLimitScheme(ratio=r, **scheme)).z
            for r in (1.5, 2.0, 3.0)}
        # at some ratio the scheme moves the window off the default one
        assert custom != zs({})

    def test_nonfinite_result_fails_explicitly(self, monkeypatch, tmp_path,
                                               capsys):
        def nonfinite(ctx):
            return harness.CheckRecord(
                gates=[Gate("n", 3, 3)],
                values={"z": complex(1.0, float("nan")), "n": 3},
                residuals={"gaps": np.array([0.5, np.inf])},
                details={"note": "finite", "grid": {"n_hi": float("nan")}})

        def nan_gate(ctx):
            return harness.CheckRecord(
                gates=[Gate("n", 3, 3), Gate("slope", float("nan"), 0.0),
                       Gate("low", -np.inf, 1.0)])

        def strict(constant):
            raise ValueError(f"report holds {constant}")

        monkeypatch.setitem(CHECKS, "nonfinite", Check(
            nonfinite, lambda ctx: [], None, 0, None))
        monkeypatch.setitem(CHECKS, "nan-gate", Check(
            nan_gate, lambda ctx: [], None, 0, None))
        report = run(ExperimentConfig(model={"name": "circle", "N": 16},
                                      checks=["nonfinite", "cycle"],
                                      out=str(tmp_path)))
        cycle, record = report.records
        assert cycle.passed and "nonfinite" not in cycle.details
        assert not record.passed
        assert list(record.details) == ["note", "grid", "nonfinite"]
        assert record.details["nonfinite"] == [
            "values.z.im", "residuals.gaps.1", "details.grid.n_hi"]
        payload = json.loads((tmp_path / "report.json").read_text(),
                             parse_constant=strict)
        record = payload["records"][1]
        assert record["values"]["z"] == {"re": 1.0, "im": "nan"}
        assert record["residuals"]["gaps"] == [0.5, "inf"]
        assert record["details"]["grid"] == {"n_hi": "nan"}
        assert record["gates"] == [["n", 3, 3]]
        # its gate holds, so the FAIL line names the non-finite fields; a
        # non-finite gate value fails its gate, even one below its bound
        cfg = tmp_path / "nonfinite.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": 16},
                                   "checks": ["nonfinite", "nan-gate"]}))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] nan-gate: slope=nan (bound 0), low=-inf (bound 1)",
            "[FAIL] nonfinite: values.z.im not finite, "
            "residuals.gaps.1 not finite, details.grid.n_hi not finite",
            "all passed: False"]

    @pytest.mark.parametrize("seed", [22, 53])
    def test_identity_suite_exact_for_every_seed(self, seed):
        # seeds whose float-coefficient chain left ~1e-16 terms in b(b(c))
        report = run(ExperimentConfig(model={"name": "circle", "N": 256},
                                      checks=["identity-suite"], seed=seed))
        assert report.all_passed, report.to_markdown()

    def test_identity_suite_gates_each_residual(self):
        # each identity's residual is stated once, as the value of its gate
        # at harness._IDENTITY_TOL, and b o b leaves no term
        report = run(ExperimentConfig(model={"name": "circle", "N": 64},
                                      checks=["identity-suite"]))
        (rec,) = report.records
        gates = {gate.name: gate for gate in rec.gates}
        assert list(gates) == [
            "bob.residual_norm", "appendix.delta_square_residual",
            "appendix.f_delta_residual", "bb_zero.terms", "leibniz.partial_d",
            "leibniz.delta"]
        assert gates.pop("bb_zero.terms") == ("bb_zero.terms", 0, 0)
        assert all(isinstance(gate.value, float)
                   and gate.value < gate.bound == harness._IDENTITY_TOL
                   for gate in gates.values())
        assert rec.passed and rec.values == {"checks": 4}
        assert rec.residuals == {} and rec.details == {}

    @pytest.mark.parametrize("N", [32, 256])
    def test_heat_bound_has_a_floor_where_chern_vanishes(self, N):
        # u* (x) u + u (x) u* is a cycle with Ch(c) = 0 exactly, but the
        # truncation leaks a small slope into its heat trace (0.018 at
        # N = 32, 0.0042 at 256): the gate bound is the floor of a
        # vanishing pairing, not 0.15 |Ch(c)| = 0
        chain = {"degree": 1, "terms": [
            {"coeff": [1, 0], "tensor": [[-1], [1]]},
            {"coeff": [1, 0], "tensor": [[1], [-1]]}]}
        (rec,) = run(ExperimentConfig(model={"name": "circle", "N": N},
                                      chain=chain, checks=["heat"])).records
        (gate,) = rec.gates
        assert rec.values["chern"] == 0
        assert 0 < gate.value < gate.bound and "gap" not in rec.residuals
        assert gate.bound == hh._VANISHING_Z_TOL and rec.passed

    def test_seed_changes_randomized_checks(self):
        base = ExperimentConfig(model={"name": "circle", "N": 48},
                                checks=["identity-suite"], seed=1)
        other = ExperimentConfig(model={"name": "circle", "N": 48},
                                 checks=["identity-suite"], seed=2)
        assert run(base).stable_digest() != run(other).stable_digest()

    def test_every_registered_check_runs_on_its_natural_model(self):
        fast_plan = {
            "circle": (["cycle", "chern", "eigen-sums", "heat", "dixmier",
                        "measure", "reduce", "identity-suite", "summability",
                        "concordance"], {"name": "circle", "N": 48}),
            "toy": (["diag-oracles", "scalings", "scheme-robustness",
                     "cutoff", "modulated"], {"name": "toy", "N": 4000}),
        }
        covered = set()
        for checks, model in fast_plan.values():
            report = run(ExperimentConfig(model=model, checks=checks, seed=0))
            assert report.all_passed, report.to_markdown()
            covered.update(checks)
        assert covered == set(CHECKS)


class TestChains:
    def test_builtin_defaults(self):
        m = build_circle(16)
        c = builtin_chain(m)
        assert c.degree == 1

    def test_unknown_builtin(self):
        with pytest.raises(ConfigError):
            builtin_chain(build_circle(16), "moebius")

    @pytest.mark.parametrize("name, N, extra, chains", [
        ("circle", 16, {}, ["default", "winding", "parity"]),
        ("nc_torus", 8, {}, ["default", "volume", "parity"]),
        ("nc_torus", 8, {"theta": 0.3}, ["volume", "parity"]),
        ("nc_torus", 8, {"theta": 0.0}, ["volume", "parity"]),
        ("toy", 32, {}, ["default", "toy-volume", "parity"]),
        ("toy", 32, {"p": 2}, ["toy-volume"]),
        ("toy", 32, {"p": 3}, ["toy-volume"]),
    ], ids=["circle", "torus", "torus-0.3", "torus-0", "toy", "toy-p2",
            "toy-p3"])
    def test_every_builtin_chain_is_a_cycle(self, name, N, extra, chains):
        model = build_model(name, N, **extra)
        for chain in chains:
            assert hh.is_cycle(builtin_chain(model, chain)), chain

    def test_inline_chain(self):
        inline = {"degree": 1, "terms": [
            {"coeff": [1.0, 0.0], "lambda_pow": 0, "tensor": [[-1], [1]]}]}
        report = run(ExperimentConfig(model={"name": "circle", "N": 16},
                                      chain=inline, checks=["cycle"]))
        assert report.all_passed

    @pytest.mark.parametrize("where", ["degree", "exponent", "lambda_pow"])
    def test_numpy_integer_in_inline_chain_is_a_config_error(self, where):
        # the decoded chain is read as given, with no JSON round trip: a
        # numpy integer is not an int of the JSON format
        term = {"coeff": [1.0, 0.0], "lambda_pow": 0, "tensor": [[-1], [1]]}
        inline = {"degree": 1, "terms": [term]}
        if where == "degree":
            inline["degree"] = np.int64(1)
        elif where == "exponent":
            term["tensor"] = [[np.int64(-1)], [1]]
        else:
            term["lambda_pow"] = np.int64(0)
        config = ExperimentConfig(model={"name": "circle", "N": 16},
                                  chain=inline, checks=["cycle"])
        with pytest.raises(ConfigError, match="expected an integer"):
            run(config)


class TestSuites:
    def test_quick_suite_passes(self):
        report = suite("quick")
        assert report.all_passed
        names = {r.name for r in report.records}
        assert "circle256:measure" in names
        assert "torus16:identity-suite" in names

    def test_unknown_suite(self):
        with pytest.raises(ConfigError):
            suite("extended")

    @pytest.mark.parametrize("name", ["quick", "full"])
    def test_each_record_passes_exactly_when_its_gates_hold(self, name):
        for rec in suite(name).as_dict(timing=False)["records"]:
            assert rec["gates"], rec["name"]
            assert rec["passed"] == all(value <= bound
                                        for _name, value, bound in rec["gates"])

    @pytest.mark.parametrize("name", ["quick", "full"])
    def test_no_record_states_a_number_twice(self, name):
        # as report.json writes a record: a gate's value and bound appear
        # in that gate only, and outside the gates no float equals another
        # float and no complex another complex.  Zeros and integers (counts,
        # grid points, and exact results such as the circle's generator
        # quasi-norms, 2.0 each) are exempt, and so is a number two gates
        # share (a tolerance, or two residuals that coincide, as the
        # circle's Leibniz residuals do).  A complex number is one leaf,
        # and a [re, im] pair of floats would read as one: complex numbers
        # are written one way, as {"re", "im"}
        repeats = []

        def leaves(obj, path):
            if isinstance(obj, dict) and set(obj) == {"re", "im"}:
                yield path, complex(obj["re"], obj["im"])
            elif isinstance(obj, list) and [type(x) for x in obj] == [float,
                                                                      float]:
                repeats.append(f"{path}: a [re, im] pair")
                yield path, complex(*obj)
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    yield from leaves(value, f"{path}.{key}")
            elif isinstance(obj, list):
                for i, value in enumerate(obj):
                    yield from leaves(value, f"{path}[{i}]")
            elif type(obj) in (int, float):
                yield path, obj

        for rec in suite(name).as_dict(timing=False)["records"]:
            in_gates = {number: f"gates.{gate_name}"
                        for gate_name, *numbers in rec["gates"]
                        for number in numbers}
            seen = {}  # (is complex, number) -> its first path
            for field in ("values", "residuals", "details"):
                for path, x in leaves(rec[field], field):
                    cplx = type(x) is complex
                    if x == 0 or not cplx and float(x).is_integer():
                        continue
                    first = seen.get((cplx, x)) or (
                        None if cplx else in_gates.get(x))
                    if first:
                        repeats.append(f"{rec['name']}: {path} = {x!r} "
                                       f"repeats {first}")
                    seen.setdefault((cplx, x), path)
        assert not repeats, "\n".join(repeats)


class TestCli:
    def test_model_build_prints_descriptor(self, capsys):
        rc = cli_main(["model", "build", "--model", "circle", "--N", "16"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "circle"

    def test_cycle_check(self, capsys):
        rc = cli_main(["cycle", "check", "--model", "circle", "--N", "16"])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

    def test_chern_verb(self, capsys):
        rc = cli_main(["chern", "--model", "circle", "--N", "32"])
        assert rc == 0

    @pytest.mark.parametrize("verb", [
        name for name, row in CHECKS.items() if row.words == "chain"])
    def test_every_check_verb_runs_its_check(self, verb, capsys):
        # the CLI's default circle N = 64; at N = 32 the circle's heat fit
        # reads 1.81 for Ch = 2, so measure and concordance fail there
        assert cli_main([verb, "--model", "circle", "--N", "64"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith(f"[PASS] {verb}: ")
        assert out[1:] == ["all passed: True"]

    def test_pass_line_without_values_prints_the_gates(self, tmp_path,
                                                        capsys):
        # scalings and modulated state each of their numbers in a gate
        cfg = tmp_path / "modulated.json"
        cfg.write_text(json.dumps({"model": {"name": "toy", "N": 4000},
                                   "checks": ["modulated"]}))
        assert cli_main(["suite", "quick"]) == 0
        assert cli_main(["run", "--config", str(cfg)]) == 0
        shown = dict(line.split(": ", 1)
                     for line in capsys.readouterr().out.splitlines())
        scalings = [f"alpha={alpha}.{name}" for alpha in (1.5, 2.0)
                    for name in ("slope_saturating", "slope_counting",
                                 "xi_over_nlogn_slope")]
        for line, names in [("[PASS] diag1e4:scalings", scalings),
                            ("[PASS] modulated", ["sup_gap"])]:
            pairs = [item.rsplit("=", 1) for item in shown[line].split(", ")]
            assert [name for name, _value in pairs] == names
            assert all(np.isfinite(float(value)) for _name, value in pairs)

    def test_check_listed_twice_is_a_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "twice.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": 32},
                                   "checks": ["chern", "cycle", "chern"],
                                   "out": str(tmp_path / "rep")}))
        assert cli_main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.splitlines() == [
            "config error: checks listed more than once: ['chern']"]
        assert not (tmp_path / "rep").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": 16},
                                   "checks": ["nope"]}))
        rc = cli_main(["run", "--config", str(cfg)])
        assert rc == 2

    @pytest.mark.parametrize("argv, config", [
        (["chern", "--model", "circle", "--N", "4"], None),
        (["model", "build", "--model", "circle", "--N", "4"], None),
        (["run"], {"model": {"name": "circle", "N": 16}, "chain": "volume",
                   "checks": ["cycle"]}),
        (["run"], {"model": {"name": "circle", "N": 16},
                   "scheme": {"ratio": 0.5}, "checks": ["cycle"]}),
    ], ids=["small-N", "model-build-small-N", "chain-for-other-model",
            "scheme-ratio"])
    def test_bad_model_chain_or_scheme_is_a_config_error(
            self, argv, config, tmp_path, capsys):
        if config is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(config))
            argv = argv + ["--config", str(cfg)]
        rc = cli_main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("config error:") and "Traceback" not in err

    @pytest.mark.parametrize("config, fragment", [
        ([], "config must be a JSON object"),
        ({"checks": [["chern"]]}, "config.checks must be a list of check names"),
        ({"checks": "chern"}, "config.checks must be a list of check names"),
        ({"scheme": {"bogus": 1}}, "unknown scheme key 'bogus'"),
        ({"scheme": {"ratio": "abc"}}, "scheme ratio must be a finite number"),
        ({"scheme": {"n_min": "x"}}, "scheme n_min must be a positive integer"),
        ({"seed": "x"}, "seed must be a non-negative integer"),
        # a check's bounds are stated in its code, not set by a config
        ({"tolerances": []}, "unknown config fields: ['tolerances']"),
        ({"tolerances": {"heat_rel": 0.2}, "checks": ["heat"]},
         "unknown config fields: ['tolerances']"),
        ({"out": 5}, "out must be a path string"),
        ({"chain": {"degree": 1}}, "malformed chain"),
        ({"chain": {"degree": 1, "terms": [
            {"coeff": [1, 0], "tensor": [["a"], [1]]}]}},
         "expected an integer, got 'a'"),
        ("{not json", "is not valid JSON"),
        ({"model": {"name": "circle", "n": 128}}, "unknown model keys ['n']"),
        ({"model": {"name": "nc_torus", "N": 8}, "chain": "winding"},
         "needs 2 exponents"),
        ({"scheme": {"ratio": 1.000000001}, "checks": ["dixmier"]},
         "scheme ratio must be at least 1.01"),
        ({"model": {"name": "nc_torus", "N": 8}, "chain": {
            "degree": 2, "terms": [{"coeff": [1, 0], "lambda_pow": 10 ** 400,
                                    "tensor": [[-1, -1], [1, 0], [0, 1]]}]}},
         "lambda_pow must lie in [-2**53, 2**53]"),
        ({"model": {"name": "toy", "N": 64}, "scheme": {"n_min": 33},
          "checks": ["cutoff"]},
         "scheme n_min=33 puts the heat grid's top 2*n_min past the "
         "model's dim 64"),
        ({"model": {"name": "circle", "N": 64}, "scheme": {"n_min": 60},
          "checks": ["cutoff", "diag-oracles"]},
         "scheme n_min=60 puts the heat grid's top 2*n_min past N=64"),
        # its Dixmier grid on the harmonic diagonal ends at N - 1 = 63
        ({"model": {"name": "circle", "N": 64}, "scheme": {"n_min": 70},
          "checks": ["scheme-robustness"]},
         "scheme n_min=70 puts 2*n_min, the Dixmier grid's second point at "
         "ratio 2, at or past its last point N-1, with N=64 the dim of the "
         "harmonic diagonal that ['scheme-robustness'] sample"),
        # the window is the upper window_fraction of the grid: 1e308 took
        # the grid's size times it to an int, and -0.5 and 5.0 were clamped
        ({"model": {"name": "circle", "N": 64}, "checks": ["dixmier"],
          "scheme": {"window_fraction": 1e308}},
         "scheme window_fraction must lie in [0, 1], got 1e+308"),
        ({"model": {"name": "circle", "N": 64}, "checks": ["dixmier"],
          "scheme": {"window_fraction": -0.5}},
         "scheme window_fraction must lie in [0, 1], got -0.5"),
        ({"model": {"name": "circle", "N": 64}, "checks": ["dixmier"],
          "scheme": {"window_fraction": 5.0}},
         "scheme window_fraction must lie in [0, 1], got 5.0"),
    ], ids=["top-level-list", "check-not-a-string", "checks-a-string",
            "scheme-key", "scheme-ratio-type", "scheme-n_min-type",
            "seed-type", "tolerances-list", "tolerances-object", "out-type",
            "chain-no-terms", "chain-tensor-entry", "chain-file-bad-json",
            "model-key", "circle-chain-on-torus", "scheme-ratio-near-1",
            "chain-lambda-pow-huge", "scheme-n_min-past-dim",
            "scheme-n_min-past-harmonic-N", "scheme-n_min-past-dixmier-grid",
            "scheme-window-fraction-huge", "scheme-window-fraction-negative",
            "scheme-window-fraction-above-1"])
    def test_malformed_config_field_is_a_config_error(
            self, config, fragment, tmp_path, capsys):
        if isinstance(config, str):  # a --chain file holding invalid JSON
            chain = tmp_path / "bad.json"
            chain.write_text(config)
            argv = ["chern", "--model", "circle", "--N", "16",
                    "--chain", str(chain)]
        else:
            if isinstance(config, dict):
                config = {"model": {"name": "circle", "N": 16},
                          "checks": ["chern"], **config}
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps(config))
            argv = ["run", "--config", str(cfg)]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert fragment in lines[0]

    @pytest.mark.parametrize("N, n_min, rc", [
        (64, 31, 0), (64, 32, 2), (64, 63, 2), (65, 31, 0), (65, 32, 2)])
    def test_scheme_robustness_needs_distinct_dixmier_grids(
            self, N, n_min, rc, tmp_path, capsys):
        # with 2 n_min >= N - 1 the Dixmier grids at ratios 2 and 3 are the
        # same points [n_min, N - 1], and from 1.5 n_min > N - 1 on the
        # drift is exactly 0: such an n_min is a config error
        cfg = tmp_path / "scheme.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": N},
                                   "checks": ["scheme-robustness"],
                                   "scheme": {"n_min": n_min}}))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == rc
        err = capsys.readouterr().err
        if rc == 2:
            assert err.startswith(f"config error: scheme n_min={n_min} puts "
                                  "2*n_min, the Dixmier grid's second point")
            return
        record, = json.loads((out / "report.json").read_text())["records"]
        zs = [z["re"] for z in record["values"].values()]
        ((name, drift, _bound),) = record["gates"]
        assert len(set(zs)) == 3 and name == "drift" and drift > 0.0

    @pytest.mark.parametrize("argv", [
        ["run", "--config", "{dir}"],
        ["chern", "--model", "circle", "--N", "16", "--chain", "{dir}.json"],
        ["chern", "--model", "circle", "--N", "16", "--out", "{file}"],
        ["chern", "--model", "circle", "--N", "16", "--out", "{file}/sub"],
        ["run", "--config", "{config}", "--out", "{file}"],
        ["suite", "quick", "--out", "{file}"],
    ], ids=["config-is-a-directory", "chain-is-a-directory", "out-is-a-file",
            "out-under-a-file", "run-out-is-a-file", "suite-out-is-a-file"])
    def test_unusable_path_is_a_config_error(self, argv, tmp_path, capsys,
                                             monkeypatch):
        (tmp_path / "d").mkdir()
        (tmp_path / "d.json").mkdir()
        (tmp_path / "f").write_text("")
        (tmp_path / "c.json").write_text(json.dumps(
            {"model": {"name": "circle", "N": 16}, "checks": ["chern"]}))
        paths = {"dir": tmp_path / "d", "file": tmp_path / "f",
                 "config": tmp_path / "c.json"}
        argv = [a.format(**paths) for a in argv]

        def no_context(config):  # an unusable --out is caught before this
            raise AssertionError("a check context was built")

        monkeypatch.setattr(harness, "_Context", no_context)
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: ")
        assert (tmp_path / "f").read_text() == ""

    @pytest.mark.parametrize("argv, model", [
        (["run"], {"name": "circle", "N": "big"}),
        (["run"], {"name": "circle", "N": True}),
        (["run"], {"name": "circle", "N": 16.0}),
        (["run"], {"name": "nc_torus", "N": 16, "theta": float("inf")}),
        (["run"], {"name": "toy", "N": 1000, "p": "2"}),
        (["run"], {"name": "circle", "N": 16, "buffer": float("nan")}),
        (["run"], {"name": "circle", "N": 8, "buffer": -5}),
        (["chern", "--model", "nc_torus", "--N", "16", "--theta", "nan"], None),
        (["model", "build", "--model", "nc_torus", "--N", "16",
          "--theta", "inf"], None),
        (["model", "build", "--model", "toy", "--N", "64", "--p", "0"], None),
        (["run"], {"name": "toy", "N": 1000, "p": -1}),
        (["run"], {"name": "toy", "N": 1000, "p": 2.7}),
        (["run"], {"name": "toy", "N": 1000, "p": 2.0}),
        (["model", "build", "--model", "circle", "--N", "16", "--p", "3"],
         None),
        (["chern", "--model", "circle", "--N", "16", "--theta", "0.3"], None),
        (["run"], {"name": "nc_torus", "N": 16, "p": 2}),
        (["run"], {"name": "toy", "N": 1000, "theta": 0.3}),
        (["run"], {"name": "toy", "N": 1000, "buffer": 4}),
    ], ids=["N-string", "N-bool", "N-float", "theta-inf", "p-string",
            "buffer-nan", "buffer-negative", "chern-theta-nan",
            "model-build-theta-inf", "model-build-toy-p-0", "toy-p-negative",
            "toy-p-fraction", "toy-p-float", "model-build-circle-p",
            "chern-circle-theta", "torus-p", "toy-theta", "toy-buffer"])
    def test_bad_model_parameter_is_a_config_error(
            self, argv, model, tmp_path, capsys):
        if model is not None:
            cfg = tmp_path / "bad.json"
            cfg.write_text(json.dumps({"model": model, "checks": ["chern"]}))
            argv = argv + ["--config", str(cfg)]
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: model ")

    @pytest.mark.parametrize("config, word", [
        ({"model": {"name": "nc_torus", "N": 16, "buffer": 0},
          "checks": ["chern"]}, "U^-1V^-1 exceeds buffer B=0"),
        ({"model": {"name": "circle", "N": 16, "buffer": 1},
          "chain": {"degree": 1, "terms": [
              {"coeff": [1, 0], "tensor": [[-2], [2]]}]},
          "checks": ["chern", "measure"]}, "u^-2 exceeds buffer B=1"),
        ({"model": {"name": "circle", "N": 16, "buffer": 0},
          "checks": ["summability"]}, "u^1 exceeds buffer B=0"),
    ], ids=["torus-chain", "circle-inline-chain", "circle-generator"])
    def test_word_wider_than_the_buffer_is_a_config_error(
            self, config, word, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        rc = cli_main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"config error: word {word}\n"
        # cycle decides bc = 0 on the symbols: it realizes no word
        cfg.write_text(json.dumps(dict(config, checks=["cycle"])))
        assert cli_main(["run", "--config", str(cfg)]) == 0

    @pytest.mark.parametrize("model", [
        {"name": "circle", "N": 16, "buffer": 3},
        {"name": "nc_torus", "N": 16, "buffer": 2},
        {"name": "nc_torus", "N": 16, "buffer": 3.5},
    ], ids=["circle-3", "torus-2", "torus-3.5"])
    def test_identity_suite_below_buffer_4_is_a_config_error(
            self, model, tmp_path, capsys):
        # its words reach exponent 4; below that it would pass or fail by seed
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": model,
                                   "checks": ["cycle", "identity-suite"]}))
        rc = cli_main(["run", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err.startswith(
            "config error: identity-suite needs model buffer >= 4")
        ok = dict(model, buffer=4)
        for seed in range(6):
            assert run(ExperimentConfig(model=ok, checks=["identity-suite"],
                                        seed=seed)).all_passed

    def test_circle_too_small_for_the_pairing_estimates_is_a_config_error(
            self, capsys):
        # below circle N = 40 measure and concordance fail by the pairing's
        # heat fit, and below 32 heat has too few s points: no FAIL line,
        # exit 2; from the bounds up the checks run and pass
        assert cli_main(["measure", "--N", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "config error: measure needs circle N >= 40, got 32\n")
        for verb, N in [("concordance", 39), ("heat", 31)]:
            assert cli_main([verb, "--N", str(N)]) == 2
        capsys.readouterr()
        for verb, N in [("measure", 40), ("concordance", 40), ("heat", 32)]:
            assert cli_main([verb, "--N", str(N)]) == 0

    @pytest.mark.parametrize("argv", [
        ["measure", "--model", "toy", "--N", "0"],
        ["measure", "--model", "toy", "--N", "2"],
        ["measure", "--model", "toy", "--N", "-3"],
        ["chern", "--model", "toy", "--N", "0"],
        ["heat", "--model", "toy", "--N", "31"],
        ["model", "build", "--model", "toy", "--N", "31"],
    ], ids=["measure-0", "measure-2", "measure-negative", "chern-0",
            "heat-31", "model-build-31"])
    def test_degenerate_toy_size_is_a_config_error(self, argv, capsys):
        rc = cli_main(argv)
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        lines = captured.err.splitlines()
        assert lines == ["config error: build_diagonal_toy requires N >= 32"]

    def test_smallest_toy_runs_every_check(self):
        report = run(ExperimentConfig(model={"name": "toy", "N": 32},
                                      checks=list(CHECKS)))
        assert len(report.records) == len(CHECKS)

    def test_config_file_that_is_not_utf8_is_a_config_error(
            self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert cli_main(["run", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("config error: 'utf-8' codec")

    def test_toy_oracle_checks_read_N_from_the_model(self):
        # without "N" the model is built at its default size, and the
        # oracle checks run at that size too
        checks = ["diag-oracles", "scalings", "scheme-robustness", "cutoff",
                  "modulated"]
        records = [
            json.dumps([dict(r.as_dict(timing=False), inputs_digest=None)
                        for r in run(ExperimentConfig(
                            model=model, checks=checks)).records])
            for model in ({"name": "toy"}, {"name": "toy", "N": 64})]
        assert records[0] == records[1]

    @pytest.mark.parametrize("argv, floor", [
        (["heat", "--model", "circle", "--N", "16"], None),
        (["heat", "--model", "nc_torus", "--N", "8"], "0.176"),
        (["heat", "--model", "toy", "--N", "100", "--p", "2"], "0.199"),
    ], ids=["circle-16", "torus-8", "toy-100-p2"])
    def test_check_too_big_for_its_model_fails_cleanly(
            self, argv, floor, capsys):
        # the builder accepts the model, but its heat s-window is empty: the
        # check fails and names why, or, below the least circle N that the
        # check table states for heat, the config is refused before it runs
        rc = cli_main(argv)
        captured = capsys.readouterr()
        if floor is None:
            assert rc == 2 and captured.out == ""
            assert captured.err == (
                "config error: heat needs circle N >= 32, got 16\n")
            return
        assert rc == 1
        assert captured.err == ""
        assert captured.out.splitlines() == [
            f"[FAIL] heat: ContractViolation: heat s-window empty: floor "
            f"{floor} above ceiling 0.125", "all passed: False"]

    def test_fail_line_names_each_failing_gate(self, tmp_path, capsys):
        # torus N = 8 is below the scale of measure, and circle N = 32
        # below that of diag-oracles: the heat and partial-sum slopes of the
        # pairing differ by more than their criterion budget, and two
        # harmonic estimates miss 1 and 0
        assert cli_main(["measure", "--model", "nc_torus", "--N", "8"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "[FAIL] measure: criterion_gap=0.6388 (bound 0.4951)",
            "all passed: False"]
        cfg = tmp_path / "oracles.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": 32},
                                   "checks": ["diag-oracles"],
                                   "out": str(tmp_path / "rep")}))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        why = ("abs(heat_xi-1)=0.1104 (bound 0.05), "
               "abs(alt_z_spec)=0.04874 (bound 0.02)")
        assert capsys.readouterr().out.splitlines() == [
            f"[FAIL] diag-oracles: {why}", "all passed: False"]
        # and report.md's row says the same
        md = (tmp_path / "rep" / "report.md").read_text()
        assert f"| diag-oracles | FAIL: {why.replace(', ', '; ')} |" in md

    def test_estimator_limit_fails_its_gate(self, tmp_path, capsys):
        # the plain window mean of the heat and cutoff slopes misses the
        # Dixmier trace by b / log n, past the cutoff check's bound
        cfg = tmp_path / "mean.json"
        cfg.write_text(json.dumps({"model": {"name": "toy", "N": 100_000},
                                   "checks": ["cutoff"],
                                   "scheme": {"averaging": "mean"}}))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        (rec,) = run(ExperimentConfig.from_json(cfg.read_text())).records
        (gate,) = rec.gates
        assert gate.name == "gap" and gate.value > 0.05 and not rec.residuals
        assert gate.bound == 0.05
        assert capsys.readouterr().out.splitlines() == [
            f"[FAIL] cutoff: gap={gate.value:.4g} (bound 0.05)",
            "all passed: False"]

    @pytest.mark.parametrize("argv", [
        ["model", "build", "--seed", "3"],
        ["model", "build", "--chain", "volume"],
        ["model", "build", "--out", "{dir}"],
        ["heat", "--tol-z", "0.2"],
    ], ids=["build-seed", "build-chain", "build-out", "check-tol-z"])
    def test_each_subcommand_takes_only_the_flags_it_reads(
            self, argv, tmp_path, capsys):
        # a check's bounds are stated in its code; model build writes no
        # report
        argv = [arg.format(dir=tmp_path / "rep") for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + ["--model", "nc_torus", "--N", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "rep").exists()

    def test_run_config(self, tmp_path, capsys):
        cfg = tmp_path / "ok.json"
        cfg.write_text(json.dumps({"model": {"name": "circle", "N": 32},
                                   "checks": ["cycle", "chern"]}))
        rc = cli_main(["run", "--config", str(cfg)])
        assert rc == 0

    def test_missing_config_file(self, capsys):
        rc = cli_main(["run", "--config", "/nonexistent.json"])
        assert rc == 2

    def test_suite_quick_verb(self, capsys, tmp_path):
        rc = cli_main(["suite", "quick", "--out", str(tmp_path / "rep")])
        assert rc == 0
        assert (tmp_path / "rep" / "report.md").exists()


# small models on both sides of each builder's floor (circle and torus 8,
# toy 32)
_FUZZ_SIZES = {"circle": (6, 24), "nc_torus": (6, 10), "toy": (30, 120)}
# values of the wrong type for every config field
_ILL_TYPED = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                       st.floats(), st.lists(st.integers(), max_size=2),
                       st.dictionaries(st.text(max_size=2), st.integers(),
                                       max_size=1))
_INLINE_CHAINS = [
    {"degree": 1, "terms": [{"coeff": [1, 0], "tensor": [[-1], [1]]}]},
    {"degree": 2, "terms": [{"coeff": [1, 0], "lambda_pow": 1,
                             "tensor": [[-1, -1], [1, 0], [0, 1]]}]},
]
_MALFORMED_CHAINS = [
    {"degree": 1},
    {"degree": "x", "terms": []},
    {"degree": 0, "terms": []},
    {"degree": 1, "terms": "x"},
    {"degree": 1, "terms": [{"coeff": [1, 0], "tensor": [["a"], [1]]}]},
    {"degree": 1, "terms": [{"coeff": ["a", 0], "tensor": [[-1], [1]]}]},
    {"degree": 1, "terms": [{"coeff": [float("nan"), 0],
                             "tensor": [[-1], [1]]}]},
]


@st.composite
def _fuzzed_configs(draw):
    """A config and whether one of its fields is malformed (a wrong type or
    an unknown key), which must be a configuration error."""
    name = draw(st.sampled_from(sorted(_FUZZ_SIZES)))
    model = {"name": name, "N": draw(st.integers(*_FUZZ_SIZES[name]))}
    if name == "toy":
        model["p"] = draw(st.sampled_from([1, 2]))
    config = {"model": model}
    bad = draw(st.booleans())
    if bad:
        field = draw(st.sampled_from(
            ["model", "checks", "check", "scheme", "scheme_key", "ratio",
             "n_min", "window_fraction", "seed", "out", "chain", "lambda_pow",
             "tolerances"]))
    else:
        field = None
    checks = draw(st.lists(st.sampled_from(sorted(CHECKS)), max_size=3,
                           unique=True))
    config["checks"] = checks
    config["scheme"] = draw(st.fixed_dictionaries({}, optional={
        "ratio": st.floats(1.2, 3.0), "n_min": st.integers(1, 16),
        "averaging": st.sampled_from(["mean", "cesaro_log", "extrapolate"]),
        "window_fraction": st.floats(0.0, 1.0)}))
    config["seed"] = draw(st.integers(0, 2 ** 32))
    config["chain"] = draw(st.one_of(
        st.none(), st.sampled_from(["winding", "volume", "toy-volume",
                                    "parity", "default"]),
        st.sampled_from(_INLINE_CHAINS)))
    if field == "model":
        model["n"] = model["N"]
    elif field == "checks":
        config["checks"] = draw(_ILL_TYPED.filter(
            lambda v: not isinstance(v, list)))
    elif field == "check":
        config["checks"] = checks + [draw(_ILL_TYPED.filter(
            lambda v: not isinstance(v, str)))]
    elif field == "scheme":
        config["scheme"] = draw(_ILL_TYPED.filter(
            lambda v: not isinstance(v, dict)))
    elif field == "scheme_key":
        # no scheme field takes None, a bool, a list, an object or a string
        # of at most 3 characters (no averaging rule is that short)
        key = draw(st.sampled_from(["ratio", "n_min", "averaging",
                                    "window_fraction", "bogus"]))
        config["scheme"][key] = draw(_ILL_TYPED.filter(
            lambda v: not isinstance(v, float)))
    elif field == "ratio":
        # below the smallest scheme ratio, where the grid loop would not end
        config["scheme"]["ratio"] = draw(st.floats(1.0, 1.001,
                                                   exclude_min=True))
    elif field == "n_min":
        # a heat grid reaching 2 n_min, past every fuzzed model's dim
        config["scheme"]["n_min"] = draw(st.integers(10 ** 4, 10 ** 12))
    elif field == "window_fraction":
        # a finite fraction outside [0, 1]
        config["scheme"]["window_fraction"] = draw(st.one_of(
            st.floats(max_value=0.0, exclude_max=True, allow_infinity=False),
            st.floats(min_value=1.0, exclude_min=True, allow_infinity=False)))
    elif field == "seed":
        config["seed"] = draw(st.one_of(_ILL_TYPED, st.integers(max_value=-1)))
    elif field == "out":
        config["out"] = draw(_ILL_TYPED.filter(
            lambda v: v is not None and not isinstance(v, str)))
    elif field == "chain":
        config["chain"] = draw(st.sampled_from(_MALFORMED_CHAINS))
    elif field == "lambda_pow":
        # a well-formed word of the model's rank with |lambda_pow| > 2**53
        rank = 2 if name == "nc_torus" else 1
        power = draw(st.integers(2 ** 53 + 1, 10 ** 400))
        config["chain"] = {"degree": 1, "terms": [{
            "coeff": [1, 0], "lambda_pow": draw(st.sampled_from([1, -1])) * power,
            "tensor": [[-1] * rank, [1] * rank]}]}
    elif field == "tolerances":
        # not a config field: a check's bounds are stated in its code
        config["tolerances"] = draw(st.one_of(_ILL_TYPED, st.dictionaries(
            st.sampled_from(["heat_rel", "identity"]), st.floats(0.0, 1.0),
            max_size=1)))
    return config, bad


@settings(max_examples=25, deadline=None)
@given(case=_fuzzed_configs())
def test_cli_exit_code_contract(case):
    """Any config exits 0, 1 or 2 without a traceback; a malformed field
    (an ill-typed value, an unknown key or field, a scheme window_fraction
    outside [0, 1], a scheme whose heat grid passes the model's dim) is a
    configuration error."""
    config, bad = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli_main(["run", "--config", str(path)])
    assert rc in (0, 1, 2)
    assert "Traceback" not in out.getvalue() + err.getvalue()
    if bad:
        assert rc == 2


def test_a_new_check_is_one_row(monkeypatch, capsys, tmp_path):
    """A check registered as one row of CHECKS, with no other edit, is
    validated, run, released and offered as a CLI verb from that row, and
    its harmonic grid bounds the scheme's n_min."""
    seen = {}

    def fake(ctx):
        # the release after chern kept the entry this row requests
        seen["kept"] = ("chern", ctx.chain_key) in ctx.model._memo
        seen["memo"] = ctx.model._memo
        z = hh.chern(ctx.chain, ctx.model).value
        return harness.CheckRecord(gates=[Gate("abs(z-2)", abs(z - 2), 1e-9)],
                                   values={"tol": 1e-9})

    grid = (lambda N: N // 4, "puts the fake grid past N/4={N}/4")
    monkeypatch.setitem(CHECKS, "fake", Check(
        fake, lambda ctx: [("chern", ctx.chain_key)], "chain", 0, grid))
    model = {"name": "circle", "N": 32}
    ExperimentConfig(model=model, checks=["fake"]).validate()
    report = run(ExperimentConfig(model=model, checks=["chern", "fake"]))
    assert report.all_passed
    assert [r.name for r in report.records] == ["chern", "fake"]
    assert report.records[1].values == {"tol": 1e-9}
    # and the run released it after the fake check
    assert seen["kept"] and seen["memo"] == {}
    with pytest.raises(ConfigError, match="exceeds buffer"):
        run(ExperimentConfig(model={**model, "buffer": 0}, checks=["fake"]))
    assert cli_main(["fake", "--N", "32"]) == 0
    assert capsys.readouterr().out.startswith("[PASS] fake: tol=1e-09")
    # the default n_min 8 is N // 4 at N = 32; one more overruns the grid
    for n_min, rc in [(8, 0), (9, 2)]:
        cfg = tmp_path / f"n_min{n_min}.json"
        cfg.write_text(json.dumps({"model": model, "checks": ["fake"],
                                   "scheme": {"n_min": n_min}}))
        assert cli_main(["run", "--config", str(cfg)]) == rc
    assert capsys.readouterr().err == (
        "config error: scheme n_min=9 puts the fake grid past N/4=32/4 of "
        "the harmonic diagonal that ['fake'] sample\n")


def test_pairing_estimates_are_built_once(monkeypatch):
    """The checks that report an estimate of one pairing read one memoized
    set of estimates: one eigenproblem of Omega(c)(1+D^2)^{-1/2}, one log
    fit of its partial sums (measure's criterion reads the verdict's), one
    set of heat samples and one Dixmier log-mean."""
    calls = Counter()
    modules = [mod for name, mod in list(sys.modules.items())
               if name.startswith("singtrace")]
    for fn in (ideals.eigenvalue_partial_sums, ideals.log_fit,
               traces.heat_functional, traces.dixmier_logmean):
        def counted(*args, _fn=fn, **kwargs):
            calls[_fn.__name__] += 1
            return _fn(*args, **kwargs)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, counted)
    report = run(ExperimentConfig(
        model={"name": "circle", "N": 256},
        checks=["eigen-sums", "dixmier", "measure", "concordance"]))
    assert report.all_passed
    assert calls == {"eigenvalue_partial_sums": 1, "log_fit": 1,
                     "heat_functional": 1, "dixmier_logmean": 1}


@pytest.mark.parametrize("threads", ["2", "abc"])
def test_run_starts_no_thread(threads, monkeypatch):
    """A config's checks run one after another: a run of several checks
    starts no thread, and SINGTRACE_THREADS, which older releases read as
    the size of a worker pool, is ignored without a warning or an error."""
    started = []
    real_start = threading.Thread.start

    def start(thread):
        started.append(thread.name)
        return real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    monkeypatch.setenv("SINGTRACE_THREADS", threads)
    checks = ["identity-suite", "chern", "measure", "heat"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = run(ExperimentConfig(model={"name": "circle", "N": 64},
                                      checks=checks))
    assert report.all_passed
    assert [rec.name for rec in report.records] == sorted(checks)
    assert started == []


def test_toy_run_evaluates_each_heat_weight_vector_once(monkeypatch):
    """One toy run at N = 10^6 with the benchmark's checks: diag-oracles,
    scalings and cutoff read one alpha = 2 pass over the harmonic spectrum,
    so no weight vector exp(-(s v)^e) of one spectrum is evaluated twice,
    and each only where it is above the cut: 16.32 M weights (the checks
    used to evaluate 48.1 M weights, 27.3 M of them distinct, and 27.31 M
    with the live slices running to exact underflow)."""
    seen = Counter()
    real = traces._heat_weights

    def count(steps):
        for j, start, w in steps:
            seen["weights"] += w.size
            yield j, start, w

    def counted(vs, scales, e):
        spectrum = (vs.size, float(vs[0]), float(vs[-1]))
        for s in scales:
            seen[spectrum, e, float(s)] += 1
        for lo, hi, steps in real(vs, scales, e):
            yield lo, hi, count(steps)

    monkeypatch.setattr(traces, "_heat_weights", counted)
    report = run(ExperimentConfig(
        model={"name": "toy", "N": 1_000_000},
        checks=["diag-oracles", "scalings", "scheme-robustness", "cutoff",
                "modulated", "summability", "measure"]))
    assert report.all_passed
    weights = seen.pop("weights")
    assert max(seen.values()) == 1
    harmonic = (1_000_000, 1.0 / 1_000_000, 1.0)  # V = diag(1/(k+1))
    assert {s for spectrum, e, s in seen
            if spectrum == harmonic and e == -2.0} == set(
                map(float, traces.default_heat_grid(1_000_000)))
    assert weights <= 16.4e6


def test_toy_oracles_and_measure_hold_at_most_eight_vectors():
    """diag-oracles and measure on the toy at N = 2 * 10^5: the
    traced peak stays below 8 vectors of N float64 (8N bytes each).

    Measured: 5.34 units, set in the measurability criterion (the toy's D,
    which is also its |D|, the harmonic V, A, AV and its partial sums, and
    the heat engine's scratch of a few windows, which weighs more against
    this N than against the 2^20 of the test below).  It was 7.03 units
    when the alpha = 2 heat pass held its coefficients, V^2, V^-2 and the
    weights at full length."""
    import tracemalloc

    N = 200_000
    config = ExperimentConfig(model={"name": "toy", "N": N},
                              checks=["diag-oracles", "measure"])
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak <= 8 * (8 * N), f"peak {peak / (8 * N):.2f} x 8N bytes"


def test_toy_large_checks_hold_at_most_five_vectors():
    """The seven checks of the toy-large benchmark workload on the toy at
    N = 2^20: the traced peak, model build included, stays below 5 vectors
    of N float64 (8N bytes each).

    Measured: 4.17 units, set in the measurability criterion of
    diag-oracles, which holds the toy's D, the harmonic V, A and AV; the
    partial sums hold no full-length array, and the heat engine and the
    tie boundaries add less than a fifth of a unit.  It was 5.13 units
    when each partial-sum series held its full cumulative sum, 7.01 when
    the alpha = 2 heat pass held its (2, N) coefficient rows, V^2, V^-2 and
    a weight buffer at full length, and 6.16 in the criterion when the
    spectrum kept its moduli next to the partial sums (the heat pass's own
    scratch is bounded in tests/test_traces.py)."""
    import tracemalloc

    N = 2 ** 20
    config = ExperimentConfig(model={"name": "toy", "N": N},
                              checks=_TOY_CHECKS)
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak <= 5 * (8 * N), f"peak {peak / (8 * N):.2f} x 8N bytes"


def test_harmonic_partial_sums_are_formed_once_per_check(monkeypatch):
    """diag-oracles forms the partial sums of the harmonic V once and
    scheme-robustness once for its three grid ratios, and neither forms a
    cumulative sum of V's N entries: each reads its series at the scheme's
    window.  At N = 10^5 the blocks of the Lorentz norm are shorter than N,
    so any cumulative sum of N entries is one over a whole spectrum."""
    N = 100_000
    harmonic = 1.0 / (np.arange(N) + 1.0)
    real_cumsum, real_series = np.cumsum, ideals.PartialSumSeries
    full, formed = [], []

    def cumsum(a, *args, **kwargs):
        full.append(np.size(a) >= N)
        return real_cumsum(a, *args, **kwargs)

    def series(values, *args, **kwargs):
        formed.append(np.array_equal(values, harmonic))
        return real_series(values, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", cumsum)
    monkeypatch.setattr(ideals, "PartialSumSeries", series)
    report = run(ExperimentConfig(model={"name": "toy", "N": N},
                                  checks=["diag-oracles", "scheme-robustness"]))
    assert report.all_passed
    assert full and not any(full)
    assert sum(formed) == 2


def test_platform_stamp_equals_platform_platform():
    """The report's platform string is ``platform.platform()`` without its
    processor lookup (``uname -p`` in a subprocess on Linux), which drops
    an empty processor or one equal to the machine anyway."""
    uname = platform.uname()
    if uname.processor in ("", uname.machine):
        assert harness._platform() == platform.platform()
    else:  # a processor name that platform.platform() would carry
        assert harness._platform() == platform.platform().replace(
            f"-{uname.processor}", "", 1)


def test_run_imports_no_subprocess(tmp_path):
    """A ``singtrace run`` in a fresh interpreter leaves ``subprocess``
    unimported: nothing in a run starts a process, the environment stamp
    included.  Nor does it load ``numpy.random``, unless ``import numpy``
    did (as older numpy versions do): ``modulated`` draws its phases from
    the standard library's generator."""
    cfg = tmp_path / "toy.json"
    cfg.write_text(json.dumps({"model": {"name": "toy", "N": 2000},
                               "checks": _TOY_CHECKS}))
    code = ("import sys\n"
            "from singtrace.cli import main\n"
            "rnd = 'numpy.random' in sys.modules\n"
            f"rc = main(['run', '--config', {str(cfg)!r}, "
            f"'--out', {str(tmp_path / 'out')!r}])\n"
            "print(rc, 'subprocess' in sys.modules,\n"
            "      'numpy.random' in sys.modules and not rnd)\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.splitlines()[-1] == "0 False False"


def test_checks_draw_only_through_random(monkeypatch):
    """The checks that draw take every number from ``random()``, the one
    method whose sequence Python keeps for a given seed: a generator that
    offers nothing else gives the same records, bit for bit."""
    configs = [ExperimentConfig(model=model, checks=[check], seed=3)
               for model, check in (({"name": "circle", "N": 64}, "identity-suite"),
                                    ({"name": "nc_torus", "N": 16}, "identity-suite"),
                                    ({"name": "toy", "N": 2000}, "modulated"))]
    want = [run(cfg).stable_digest() for cfg in configs]

    class OnlyRandom:
        def __init__(self, seed):
            self.random = random.Random(seed).random

    monkeypatch.setattr(harness, "random",
                        types.SimpleNamespace(Random=OnlyRandom))
    reports = [run(cfg) for cfg in configs]
    assert all(rep.all_passed for rep in reports)
    assert [rep.stable_digest() for rep in reports] == want


def test_benchmark_layer_names_resolve():
    """Every function the benchmark traces exists in its singtrace module."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    spec = importlib.util.spec_from_file_location("perfbench_child", path)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    missing = [f"{mod}.{name}" for mod, names in child.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"singtrace.{mod}"), name, None))]
    assert not missing


@pytest.mark.parametrize("model, checks", [
    ({"name": "toy", "N": 4096},
     ["diag-oracles", "scalings", "scheme-robustness", "cutoff", "modulated",
      "summability", "measure"]),
    ({"name": "circle", "N": 128},
     ["chern", "heat", "measure", "reduce", "summability"]),
], ids=["toy", "circle"])
def test_real_diagonals_stay_float64_after_a_run(monkeypatch, model, checks):
    """D, |D|, F, the harmonic V (on the toy) and the memoized weight of a
    model are float64 diagonals after a run: complex storage of a real
    diagonal would double their memory.  The weight and V are the objects
    the run built, which it released after their last reader."""
    from singtrace import triples

    built, real_build = [], triples.build_model
    memo, real_derived = {}, triples.SpectralTripleModel.derived

    def keep(*args, **kwargs):
        built.append(real_build(*args, **kwargs))
        return built[-1]

    def derived(self, key, build):
        memo[key] = real_derived(self, key, build)
        return memo[key]

    monkeypatch.setattr(triples, "build_model", keep)
    monkeypatch.setattr(triples.SpectralTripleModel, "derived", derived)
    assert run(ExperimentConfig(model=model, checks=checks)).all_passed
    (m,) = built
    ops = {"D": m.D, "|D|": m.absD, "F": m.F, "weight": memo["weight", m.p]}
    if m.name == "toy":
        V = memo["harmonic", m.N]
        ops["V"] = V
        assert harness.singular_values(V) is V.diag()  # V is its own mu
    for name, op in ops.items():
        assert op.kind == "diag" and op.diag().dtype == np.float64, name
    assert harness._alternating(8).diag().dtype == np.float64


# the nine checks of the circle-large benchmark workload and the seven of
# toy-large, in their order
_CIRCLE_CHECKS = ["cycle", "chern", "eigen-sums", "heat", "dixmier", "measure",
                  "reduce", "concordance", "summability"]
_TOY_CHECKS = ["diag-oracles", "scalings", "scheme-robustness", "cutoff",
               "modulated", "summability", "measure"]
_NATURAL = {name: {"name": "toy", "N": 4000} for name in
            ("diag-oracles", "scalings", "scheme-robustness", "cutoff",
             "modulated")}


def _memo_recorder(monkeypatch):
    """Patch the memo and the check registry to record every build, keyed by
    the model object and memo key, and every request that the release
    statement (the rows' ``requests`` and ``harness._needs``) leaves out."""
    from singtrace import triples

    builds, missed, models = Counter(), [], []
    state = {"check": None, "stack": []}
    real_derived = triples.SpectralTripleModel.derived

    def derived(self, key, build):
        flat = self._prefix + key  # the key in the model's memo
        stack = state["stack"]
        if stack:
            if flat not in harness._needs(stack[-1], self.N):
                missed.append((stack[-1], flat))
        else:
            name, ctx = state["check"]
            reads = CHECKS[name].requests(ctx)
            # a request of an entry of the double reads the double too
            if flat not in reads and not (flat == ("double",) and any(
                    read[0] == "double" for read in reads)):
                missed.append((name, flat))

        def counted():
            models.append(self)  # alive, so that no id is reused
            builds[(id(self), key)] += 1
            stack.append(flat)
            try:
                return build()
            finally:
                stack.pop()
        return real_derived(self, key, counted)

    def recording(name, check):
        def wrapped(ctx):
            state["check"] = (name, ctx)
            return check(ctx)
        return wrapped

    monkeypatch.setattr(triples.SpectralTripleModel, "derived", derived)
    for name, row in list(CHECKS.items()):
        monkeypatch.setitem(CHECKS, name,
                            row._replace(check=recording(name, row.check)))
    return builds, missed


@pytest.mark.parametrize("plan", [
    "suite quick", "suite full", "circle-large", "toy-large",
    "circle-large reversed", "each check alone"])
def test_no_memo_entry_is_built_twice_in_a_run(plan, monkeypatch):
    """A run releases each memo entry after its last reader and never builds
    one twice: the statement of what each check and each build requests
    covers every request, and both suites reproduce their golden records
    (at the bound of tests/test_golden.py, since the last bits of a complex
    product may depend on the CPU's multiply kernel)."""
    builds, missed = _memo_recorder(monkeypatch)
    if plan.startswith("suite"):
        name = plan.split()[1]
        report = suite(name)
        golden = json.loads(test_golden._path(name).read_text())
        assert test_golden.moved(golden, test_golden.snapshot(report)) == []
        reports = [report]
    elif plan == "each check alone":
        reports = [run(ExperimentConfig(
            model=_NATURAL.get(name, {"name": "circle", "N": 48}),
            checks=[name])) for name in CHECKS]
    else:
        checks = _TOY_CHECKS if plan == "toy-large" else _CIRCLE_CHECKS
        model = ({"name": "toy", "N": 4096} if plan == "toy-large"
                 else {"name": "circle", "N": 256})
        if plan.endswith("reversed"):
            checks = checks[::-1]
        reports = [run(ExperimentConfig(model=model, checks=checks, seed=1))]
    assert all(report.all_passed for report in reports)
    assert builds and set(builds.values()) == {1}
    assert missed == []
    # commutators and realized words are formed inside their chain map
    assert not {key[0] for _id, key in builds} & {"F", "D", "delta", "id"}


@pytest.mark.parametrize("model, checks", [
    ({"name": "circle", "N": 64}, _CIRCLE_CHECKS + ["identity-suite"]),
    ({"name": "toy", "N": 4096}, _TOY_CHECKS),
], ids=["circle", "toy"])
def test_memo_requested_after_a_run_rebuilds_equal_values(
        model, checks, monkeypatch):
    """A run leaves its model's memo empty, and a request after the run
    builds each entry again, equal bit for bit to the one the run built."""
    import dataclasses

    from singtrace import operators, triples

    first, made = {}, []
    real_derived = triples.SpectralTripleModel.derived
    real_build = triples.build_model

    def derived(self, key, build):
        def recorded():
            value = build()
            first.setdefault(self._prefix + key, (value, build))
            return value
        return real_derived(self, key, recorded)

    def keep(*args, **kwargs):
        made.append(real_build(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(triples.SpectralTripleModel, "derived", derived)
    monkeypatch.setattr(triples, "build_model", keep)
    assert run(ExperimentConfig(model=model, checks=checks)).all_passed
    (m,) = made
    assert m._memo == {}
    monkeypatch.setattr(triples.SpectralTripleModel, "derived", real_derived)

    c = builtin_chain(m)
    on_double = {"omega": lambda d, key: hh.omega(c, d),
                 "W": lambda d, key: hh.w_subset(c, d, key[2]),
                 "inverse_powers":
                     lambda d, key: hh._interior_inverse_powers(d)}

    def again(key, build):
        if key[:1] != ("double",) or len(key) == 1:
            # the build reads the model only through its memo
            return m.derived(key, build)
        return on_double[key[1]](triples.invertible_double(m), key[1:])

    def same(a, b):
        if isinstance(a, np.ndarray):
            return a.dtype == b.dtype and a.tobytes() == b.tobytes()
        if isinstance(a, operators.Operator):
            return a.kind == b.kind and a.dim == b.dim and same(a._data, b._data)
        if isinstance(a, triples.SpectralTripleModel):
            return same(a.D, b.D) and same(a.absD, b.absD)
        if dataclasses.is_dataclass(a):
            return type(a) is type(b) and all(
                same(getattr(a, f.name), getattr(b, f.name))
                for f in dataclasses.fields(a))
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
        if isinstance(a, (list, tuple)):
            return len(a) == len(b) and all(map(same, a, b))
        if isinstance(a, (float, complex)):
            return repr(a) == repr(b)
        return a == b

    kinds = {key[1] if key[0] == "double" and len(key) > 1 else key[0]
             for key in first}
    assert kinds >= (
        {"harmonic", "harmonic heat", "weight_ideal"} if m.name == "toy" else
        {"chern", "omega", "W", "pairing", "double", "inverse_powers",
         "weight", "weight_mu"})
    for key, (value, build) in first.items():
        assert same(again(key, build), value), key


def test_circle_run_releases_what_no_later_check_reads():
    """The nine circle-large checks on circle N = 32768: the traced peak
    stays below 14.9 units of 16 dim bytes (one complex vector of the working
    dim).

    Measured: 11.88 units, with each word one run of shared ones, a unit
    coefficient sharing its operand's arrays, the interior of a diagonal a
    view and a difference of diagonals one array (see
    test_circle_large_checks_hold_at_most_eleven_vectors below); 13.94
    when each word was split from column and value arrays, with each word
    and commutator stored as one diagonal run ([F, u] as one value) and
    each commutator held only while its chain map is formed; 14.94 (set in
    heat) when the memo kept the commutators until their last reader.
    Column and value arrays of length dim + 1 per shift gave 17.44 (set in
    heat too), 18.8 when the double also kept its interior |D0| and, at
    p = 1, |D0|^-p apart from |D0|^-1, and 26.3 when the memo kept every
    entry to the end of the run (commutators, Omega(c) and the whole
    invertible double)."""
    import tracemalloc

    N = 32_768
    dim = build_circle(N).dim
    config = ExperimentConfig(model={"name": "circle", "N": N},
                              checks=_CIRCLE_CHECKS, seed=1)
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak <= 14.9 * (16 * dim), f"peak {peak / (16 * dim):.2f} x 16 dim"


def test_circle_large_checks_hold_at_most_eleven_vectors():
    """The nine checks of the circle-large benchmark workload on circle
    N = 131072: the traced peak, model build included, stays below 11 units
    of 16 dim bytes (one complex vector of the working dim).

    Measured: 10.57 units, set in heat, with each word one run whose ones
    are a read-only zero-stride view, a unit coefficient sharing its
    operand's arrays, the interior of a diagonal a view and a difference of
    two diagonals one array.  It was 13.01 units (set in reduce) when each
    word was built from per-row column and value arrays and those
    operations copied."""
    import tracemalloc

    N = 131_072
    dim = build_circle(N).dim
    config = ExperimentConfig(model={"name": "circle", "N": N},
                              checks=_CIRCLE_CHECKS, seed=1)
    tracemalloc.start()
    try:
        report = run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.all_passed
    assert peak <= 11 * (16 * dim), f"peak {peak / (16 * dim):.2f} x 16 dim"
