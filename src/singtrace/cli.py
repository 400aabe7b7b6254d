"""Command line interface.

Verbs, each taking only the flags it reads:

    singtrace model build --model circle --N 256 [--theta T] [--p P]
    singtrace cycle check --model nc_torus --N 32 --chain volume
    singtrace chern | eigen-sums | heat | dixmier | measure | reduce
    singtrace identity-suite | concordance --model circle --N 256
    singtrace suite quick|full [--out DIR] [--seed S]
    singtrace run --config experiment.json [--out DIR]

``cycle check`` and the check verbs add ``--chain``, ``--out`` and
``--seed`` to the model flags; tolerances are set through a config.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
A FAIL line names the error, or each failing gate and non-finite field.
"""

from __future__ import annotations

import argparse
import json
import sys

from .harness import CHECKS, ConfigError, ExperimentConfig, run, suite


def _add_model_flags(parser):
    parser.add_argument("--model", default="circle",
                        choices=("circle", "nc_torus", "toy"))
    parser.add_argument("--N", type=int, default=64)
    parser.add_argument("--theta", type=float, default=None)
    parser.add_argument("--p", type=int, default=None)


def _add_check_flags(parser):
    _add_model_flags(parser)
    parser.add_argument("--chain", default=None,
                        help="builtin chain name or path to a chain JSON file")
    parser.add_argument("--out", default=None, help="report output directory")
    parser.add_argument("--seed", type=int, default=0)


def _model_from_args(args):
    return {"name": args.model, "N": args.N, "theta": args.theta, "p": args.p}


def _config_from_args(args):
    chain = args.chain
    if chain and chain.endswith(".json"):
        with open(chain) as fh:
            try:
                chain = json.load(fh)
            except ValueError as exc:
                raise ConfigError(f"chain file {args.chain} is not valid JSON: "
                                  f"{exc}") from exc
    return ExperimentConfig(model=_model_from_args(args), chain=chain,
                            checks=[args.verb], out=args.out, seed=args.seed)


def _print_report(report):
    for rec in report.records:
        status = "PASS" if rec.passed else "FAIL"
        vals = ", ".join(rec.failures()) or ", ".join(
            f"{k}={v}" for k, v in rec.values.items())
        print(f"[{status}] {rec.name}: {vals}")
    print(f"all passed: {report.all_passed}")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="singtrace", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    p_model = sub.add_parser("model", help="model utilities")
    model_sub = p_model.add_subparsers(dest="action", required=True)
    p_build = model_sub.add_parser("build", help="build and describe a model")
    _add_model_flags(p_build)

    p_cycle = sub.add_parser("cycle", help="chain utilities")
    cycle_sub = p_cycle.add_subparsers(dest="action", required=True)
    p_check = cycle_sub.add_parser("check", help="exact cycle verification")
    _add_check_flags(p_check)

    # a verb for each check that realizes the chain's words
    for verb in [name for name, row in CHECKS.items() if row.words == "chain"]:
        _add_check_flags(sub.add_parser(verb))

    p_suite = sub.add_parser("suite", help="curated acceptance runs")
    p_suite.add_argument("which", choices=("quick", "full"))
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--seed", type=int, default=0)

    p_run = sub.add_parser("run", help="run an experiment config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    try:
        if args.verb == "model":
            model = ExperimentConfig(
                model=_model_from_args(args)).validate().build_model()
            print(model.descriptor_json())
            return 0
        if args.verb == "suite":
            report = suite(args.which, out=args.out, seed=args.seed)
        elif args.verb == "run":
            with open(args.config) as fh:
                config = ExperimentConfig.from_json(fh.read())
            if args.out:
                config.out = args.out
            report = run(config)
        else:  # cycle check, or a verb that runs the check of its name
            report = run(_config_from_args(args))
    except (ConfigError, FileNotFoundError, IsADirectoryError,
            UnicodeDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
