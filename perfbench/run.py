"""genhjb benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload pendulum --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The full
record (environment stamp, parameters, oracle checks, and for traced runs
the spans with self times) goes to perfbench/results/.  See README.md.
"""
import time

_T0 = time.perf_counter()  # set-up time starts before the heavy imports

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

WORKLOAD_NAMES = ("pendulum", "cartpole-4000", "linear-cli")
SETUP_SAMPLES = 3  # this process plus two fresh child processes

END_TO_END = {
    "setup_s": "s",
    "train_s": "s",
    "eval_s": "s",
    "total_s": "s",
    "policy_p50_us": "us",
    "policy_p99_us": "us",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "kernels.gram_s": "s",
    "kernels.target_s": "s",
    "kernels.cross_vector_us": "us",
    "generator.fit_s": "s",
    "generator.ridge_solve_s": "s",
    "generator.load_model_s": "s",
    "generator.fit_gflop": "GFLOP",
    "generator.fit_bytes_mb": "MB",
    "generator.fit_flop_per_byte": "flop/B",
    "hjb.setup_s": "s",
    "hjb.step_ms": "ms",
    "hjb.step_bytes_mb": "MB",
    "hjb.step_mflop": "MFLOP",
    "hjb.step_flop_per_byte": "flop/B",
    "hjb.step_gbps": "GB/s",
    "hjb.policy_batch_us": "us",
    "penalty.saturated_frac": "ratio",
    "dynamics.gen_s": "s",
    "dynamics.sim_step_us": "us",
    "dynamics.sim_steps": "count",
    "evaluation.rollout_s": "s",
    "evaluation.baseline_s": "s",
    "evaluation.policy_calls": "count",
    "evaluation.policy_share": "ratio",
    "evaluation.stage_cost_share": "ratio",
    "npzio.save_s": "s",
    "npzio.load_s": "s",
    "npzio.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="nominal run length; each workload is a fixed amount of "
                        "work sized to it and the value is recorded")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full",
                   help="smoke: every workload at a size that runs in seconds")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print {\"setup_s\": ...}")
    return p.parse_args(argv)


def warm_blas():
    """First BLAS-3 and LAPACK calls of the process, on small matrices."""
    import numpy as np
    import scipy.linalg
    a = np.random.default_rng(0).standard_normal((256, 256))
    a = a @ a.T + 256 * np.eye(256)
    scipy.linalg.cho_factor(a)
    scipy.linalg.lu_factor(a)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_samples(args, own: float) -> list:
    """Set-up times of this process and of fresh child processes."""
    samples = [own]
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--setup-only"]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             cwd=ROOT, check=True)
        samples.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def untraced_walls(workload: str, size: str) -> list:
    """wall_s of the untraced records of this workload kept in results/."""
    out = []
    for name in sorted(os.listdir(RESULTS)):
        if name.startswith(f"{workload}-{size}-") and name.endswith("-trace0.json"):
            with open(os.path.join(RESULTS, name)) as fh:
                wall = json.load(fh).get("wall_s")
            if wall is not None:
                out.append(wall)
    return out


def result_line(correct, attempted, failed, values, units) -> str:
    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": metrics})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "genhjb", "__init__.py")):
        print(f"genhjb sources not found under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import genhjb
    if not os.path.abspath(genhjb.__file__).startswith(SRC + os.sep):
        print(f"imported genhjb from {genhjb.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import envstamp
    import workloads

    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return _run(args, workloads, envstamp, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workloads, envstamp, workdir) -> int:
    wl = workloads.WORKLOADS[args.workload]
    cfg = wl.sizes[args.size]
    run = workloads.Run(args.seed, args.size, bool(args.trace), workdir)
    import_s = time.perf_counter() - _T0
    try:
        with run.tracer.span("workload"):
            with run.tracer.span("workload.setup"):
                warm_blas()
                state = wl.setup(run, cfg)
            setup_own = time.perf_counter() - _T0
            if args.setup_only:
                print(json.dumps({"setup_s": setup_own}))
                return 0
            wl.main(run, cfg, state)
    except Exception:  # report any failure as a failed run, with its traceback
        traceback.print_exc()
        print(result_line(False, max(run.attempted, 1), run.failed + 1, {}, {}))
        return 1

    rss = peak_rss_mb()
    samples = setup_samples(args, setup_own)
    e2e = {k: run.stages[k] for k in END_TO_END if k in run.stages}
    e2e["setup_s"] = statistics.median(samples)
    # the stage figures add up to the workload's (rollouts and policy
    # queries at reference speed, the rest wall time); this run's wall time
    # is kept in the record beside it
    e2e["total_s"] = e2e["setup_s"] + sum(run.stages[k] for k in
                                          ("train_s", "eval_s", "query_s"))
    e2e["peak_rss_mb"] = rss
    tr = run.tracer
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds_nominal": args.seconds,
        "stamp": dict(envstamp.stamp(ROOT, os.path.join(SRC, "genhjb")),
                      workload_seed=args.seed),
        "params": run.params,
        "end_to_end": e2e,
        "query_s": run.stages["query_s"],
        "wall_s": run.end_time - _T0,
        "setup_samples_s": samples,
        "import_s": import_s,
        "accuracy": run.accuracy,
        "checks": run.checks,
        "operations": run.op_tally,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / max(run.attempted, 1),
    }
    if tr.enabled:
        run.layers["trace.overhead_s"] = tr.overhead_estimate()
        record["per_layer"] = run.layers
        record["peak_rss_mb_with_probes"] = peak_rss_mb()
        record["self_times_s"] = tr.self_times()
        record["layer_self_times_s"] = tr.layer_self_times()
        record["timed_calls"] = {k: {"count": c, "seconds": s}
                                 for k, (c, s) in tr.calls.items()}
        untraced = untraced_walls(args.workload, args.size)
        if untraced:
            record["overhead_vs_untraced_s"] = record["wall_s"] - statistics.median(untraced)
        record["spans"] = tr.dump()
    name = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(record, fh, indent=1, default=float)
        fh.write("\n")

    correct = run.failed == 0
    for c in run.checks:
        if c["gated"] and not c["ok"]:
            print(f"check failed: {c['name']}: {c['detail']}", file=sys.stderr)
    if tr.enabled:
        print(result_line(correct, run.attempted, run.failed, run.layers, PER_LAYER))
    else:
        print(result_line(correct, run.attempted, run.failed, e2e, END_TO_END))
    return 0


if __name__ == "__main__":
    sys.exit(main())
