"""End-to-end benchmark of the singtrace verification battery.

    python3 perfbench/run.py --workload suite-full --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each repetition is a fresh interpreter
(``child.py``) that imports ``singtrace`` from ``src/`` and calls
``singtrace.cli.main`` once.  Repetitions run one after another (a closed
loop with one client) as long as the slowest repetition so far would
still end within ``--seconds``; there is always at least one.  After each
repetition its report is checked against analytic constants
(``checks.py``) and its records against the other repetitions'.

The last stdout line is one JSON object: ``correct``, ``attempted`` and
``failed`` (the program's check records over all repetitions) and
``metrics``.  With ``--trace 0`` the metrics are ``wall_s`` and
``setup_s``, means over the repetitions, and ``peak_rss_mb``, their
median.  With ``--trace 1`` untraced and traced repetitions alternate and
the metrics are the per-layer counts and self times of ``child.LAYERS``.

Every result, with the environment it ran in, is also written to
``.perfbench_runs/``; traced runs write their spans there too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no cache files in perfbench/

import checks  # noqa: E402
from child import LAYERS  # noqa: E402

RUNS_DIR = ".perfbench_runs"
CHILD_TIMEOUT_S = 150

CIRCLE_CHECKS = ["cycle", "chern", "eigen-sums", "heat", "dixmier", "measure",
                 "reduce", "concordance", "summability"]
TOY_CHECKS = ["diag-oracles", "scalings", "scheme-robustness", "cutoff",
              "modulated", "summability", "measure"]

# name -> (SINGTRACE_THREADS, config for `singtrace run` or None for
# `singtrace suite full`, independent checks)
WORKLOADS = {
    "suite-full": ("2", None, checks.suite_full),
    "circle-large": ("1", {"model": {"name": "circle", "N": checks.CIRCLE_N},
                           "checks": CIRCLE_CHECKS},
                     lambda recs, _models: checks.circle(recs)),
    "toy-large": ("1", {"model": {"name": "toy", "N": checks.TOY_N},
                        "checks": TOY_CHECKS},
                  lambda recs, _models: checks.toy(recs)),
}

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_names():
    names = {}
    for mod, fns in LAYERS.items():
        for fn in fns:
            names[f"{mod}.{fn}.calls"] = "count"
            names[f"{mod}.{fn}.self_s"] = "s"
    names.update({"operators.spectral_dim": "count",
                  "triples.model_dim": "count",
                  "harness.checks_busy_s": "s",
                  "trace.overhead_s": "s"})
    return names


def bench_env(threads):
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", SINGTRACE_THREADS=threads,
               PYTHONHASHSEED="0")
    return env


def environment(env):
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "env": {k: env[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                    "MKL_NUM_THREADS", "SINGTRACE_THREADS",
                                    "PYTHONHASHSEED")},
    }


def records_digest(report):
    """Digest of the report's records with timing removed.

    ``environment`` is left out on purpose: it carries the thread count
    and library versions, which must not make equal records look unequal.
    """
    recs = [{k: v for k, v in r.items() if k != "runtime_s"}
            for r in report["records"]]
    text = json.dumps(recs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def run_child(work, tag, argv, env, traced):
    # one path for every repetition: the report's inputs_digest hashes it
    out_dir = os.path.join(work, "report")
    result = os.path.join(work, f"{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--src", "src",
           "--result", result]
    if traced:
        cmd += ["--spans", os.path.join(work, f"{tag}.spans.json")]
    cmd += ["--"] + argv + ["--out", out_dir]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"repetition {tag} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    with open(result) as fh:
        res = json.load(fh)
    with open(os.path.join(out_dir, "report.json")) as fh:
        res["report"] = json.load(fh)
    shutil.rmtree(out_dir)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "singtrace", "cli.py")):
        sys.exit("run from the root of a singtrace checkout: "
                 "src/singtrace/cli.py not found")

    threads, config, independent = WORKLOADS[args.workload]
    env = bench_env(threads)
    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    os.makedirs(RUNS_DIR, exist_ok=True)
    work = os.path.join(RUNS_DIR, f"work-{stamp}")
    os.makedirs(work)
    env_record = environment(env)
    try:
        if config is None:
            # the default seed: see README, "Seeds"
            argv = ["suite", "full"]
        else:
            path = os.path.join(work, "config.json")
            with open(path, "w") as fh:
                json.dump(dict(config, seed=args.seed % 2 ** 32), fh)
            argv = ["run", "--config", path]
        # compile src/ to bytecode outside the measurement
        subprocess.run([sys.executable, "-c",
                        "import sys; sys.path.insert(0, 'src'); "
                        "import singtrace.cli"], env=env, check=True,
                       timeout=CHILD_TIMEOUT_S)

        plain, traced, took = [], [], []
        t_start = time.perf_counter()
        while True:
            is_traced = args.trace == 1 and len(took) % 2 == 1
            t0 = time.perf_counter()
            res = run_child(work, f"rep{len(took)}", argv, env, is_traced)
            took.append(time.perf_counter() - t0)
            (traced if is_traced else plain).append(res)
            if is_traced != (args.trace == 1):
                continue  # a traced run goes by (plain, traced) pairs
            # stop when the slowest step so far would overrun --seconds
            step = max(took) if args.trace == 0 else \
                max(took[0::2]) + max(took[1::2])
            if time.perf_counter() - t_start + step > args.seconds:
                break
        elapsed = time.perf_counter() - t_start
    finally:
        for name in os.listdir(work):
            if name.endswith(".spans.json"):
                os.replace(os.path.join(work, name),
                           os.path.join(RUNS_DIR, f"{stamp}-{name}"))
        shutil.rmtree(work, ignore_errors=True)

    reps = plain + traced
    attempted = sum(len(r["report"]["records"]) for r in reps)
    failed = sum(not rec["passed"]
                 for r in reps for rec in r["report"]["records"])
    results = []
    for r in reps:
        recs = {rec["name"]: rec for rec in r["report"]["records"]}
        all_passed = all(rec["passed"] for rec in recs.values())
        results.append(("exit code matches records",
                        r["rc"] == (0 if all_passed else 1), f"rc={r['rc']}"))
        if args.workload == "suite-full":
            # the acceptance battery must pass as a whole
            results.append(("suite exit code 0", r["rc"] == 0,
                            f"rc={r['rc']}"))
        results += independent(recs, r["model_checks"])
    digests = {records_digest(r["report"]) for r in reps}
    results.append(("records equal across repetitions", len(digests) == 1,
                    f"{len(digests)} distinct of {len(reps)}"))
    bad = [(name, detail) for name, ok, detail in results if not ok]
    correct = not bad

    # Timings are means over the run's repetitions, that is measured time
    # over passes.  The host's slow phases last 10-30 s, so the passes of a
    # run fall into two modes; their median jumps between the modes from one
    # run to the next, while the mean moves with the share of time spent in
    # each (README, "Steadiness").
    mean = statistics.fmean
    if args.trace == 0:
        metrics = {
            "wall_s": mean([r["wall_s"] for r in plain]),
            "setup_s": mean([r["import_s"] + r["build_s"] for r in plain]),
            "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in plain]),
        }
        units = END_TO_END
    else:
        units = per_layer_names()
        metrics = dict.fromkeys(units, 0)
        first = traced[0]
        for name, count in first["calls"].items():
            if f"{name}.calls" in metrics:
                metrics[f"{name}.calls"] = count
                metrics[f"{name}.self_s"] = mean(
                    [r["self_s"][name] for r in traced])
        metrics.update(first["counters"])
        metrics["harness.checks_busy_s"] = mean(
            [sum(rec["runtime_s"] for rec in r["report"]["records"])
             for r in traced])
        metrics["trace.overhead_s"] = (mean([r["wall_s"] for r in traced])
                                       - mean([r["wall_s"] for r in plain]))

    env_record["loadavg_end"] = os.getloadavg()
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "repetitions": {"plain": len(plain), "traced": len(traced)},
        "elapsed_s": elapsed,
        "per_repetition": [{k: r[k] for k in ("wall_s", "import_s", "build_s",
                                               "peak_rss_mb")} for r in reps],
        "independent_checks": {"attempted": len(results), "failed": len(bad),
                               "failures": bad},
        "environment": env_record,
    }
    line = {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()}}
    with open(os.path.join(RUNS_DIR, f"{stamp}.json"), "w") as fh:
        json.dump(dict(summary, result=line), fh, indent=1)

    print(f"workload {args.workload}: {len(plain)} plain + {len(traced)} traced "
          f"repetitions in {elapsed:.1f} s, seed {args.seed}")
    print(f"program checks: {attempted} attempted, {failed} failed")
    print(f"independent checks: {len(results)} attempted, {len(bad)} failed")
    for name, detail in bad:
        print(f"  FAIL {name}: {detail}")
    # Counts are not outputs, so unequal ones are reported but do not make
    # the run incorrect: under the 2-worker pool the program's commutator
    # cache can race.
    counts = {json.dumps([r["calls"], r["counters"]], sort_keys=True)
              for r in traced}
    if len(counts) > 1:
        print(f"note: traced counts differ between the {len(traced)} traced "
              "repetitions; the metrics give the first one's")
    print("environment: " + json.dumps(env_record, sort_keys=True))
    for k, v in line["metrics"].items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps(line))


if __name__ == "__main__":
    main()
