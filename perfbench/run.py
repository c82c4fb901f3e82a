"""d2dcoop benchmark: figure sweeps end to end, plus a traced per-layer run.

Usage (from the repository root):
    python3 perfbench/run.py --workload snr-sweep --seed 1 --seconds 15 --trace 0

Closed loop with one client: each sweep runs in a fresh child process
(``child.py``) that imports the package from ``src/`` (the tier-1
``PYTHONPATH=src`` setting, no install), builds the preset config and
calls ``d2dcoop.cli.main(["preset", ...])`` with ``--threads 1`` and one
BLAS thread. Sweeps repeat until ``--seconds`` have passed; the reported
numbers are medians over them. Every sweep's CSVs are checked (see
``checks.py``) and failed records count against ``attempted``.

``ms_per_trial_point`` and ``setup_s`` are scaled to a reference host
speed: each child also times a fixed kernel that does not use d2dcoop,
and a time t is reported as t * KERNEL_REF_S / kernel time. The
unscaled wall times are in the results file under ``wall``.

With ``--trace 1`` the last two sweeps of the run have every layer
function wrapped (``spans.py``) and the per-layer numbers are printed
instead, next to the untraced median that shows the tracing overhead.
The last stdout line is the JSON result; the full record, with the
environment, per-sweep rows and output digests, goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

BLAS_THREADS = 1
os.environ.update(dict.fromkeys(
    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), str(BLAS_THREADS)
))

# workload -> (preset, trials per sweep); trial counts keep one sweep
# near 2 s (5 s for bits-sweep) so that a run holds several sweeps to
# take the median of
WORKLOADS = {
    "snr-sweep": ("fig-capacity-vs-snr", 20),
    "bits-sweep": ("fig-capacity-vs-bits", 4),
    "quantized-link": ("fig-capacity-vs-bandwidth-snr", 8),
}
# times are reported at the host speed where the fixed kernel in
# child.py takes this long (see scaled_ms_per_trial_point)
KERNEL_REF_S = 0.1
MIN_SWEEPS = 3
TRACED_SWEEPS = 2
REFERENCE_SAMPLES = 3
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        ap.error("--seed must be an unsigned 64-bit integer")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(work, tag, preset, seed, trials, trace=False) -> dict:
    """Run one sweep (or only set-up, when ``trials`` is 0) in a new process."""
    out_dir = os.path.join(work, tag)
    result_path = os.path.join(work, f"{tag}.json")
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), result_path, preset,
         str(seed), str(trials), out_dir, repr(spawned), "1" if trace else "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        timeout=CHILD_TIMEOUT_S, text=True,
    )
    if proc.returncode != 0 or not os.path.exists(result_path):
        return {"returncode": None, "error": proc.stderr[-4000:], "out_dir": out_dir}
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    os.remove(result_path)
    result["out_dir"] = out_dir
    return result


def git_commit():
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(args, trials) -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trials_per_sweep": trials,
    }


class SweepChecker:
    """Checks each sweep's CSVs and keeps the tally of failed records."""

    def __init__(self, config, points, trials):
        self.config, self.points, self.trials = config, points, trials
        self.records = len(points) * trials
        self.attempted = 0
        self.failed = 0
        self.messages = []
        self.digests = None
        self.reference_rows = None

    def check(self, result) -> None:
        self.attempted += self.records
        failed, messages = set(range(self.records)), []
        if result.get("returncode") != 0:
            messages.append(f"sweep failed: {result.get('error') or result.get('returncode')}")
        else:
            out = result["out_dir"]
            trial_rows = checks.read_rows(os.path.join(out, "trials.csv"))
            aggregate_rows = checks.read_rows(os.path.join(out, "aggregate.csv"))
            failed, messages = checks.check_sweep(
                trial_rows, aggregate_rows, self.points, self.trials
            )
            if self.digests is None:
                self.digests = result["digests"]
                self.reference_rows = trial_rows
            elif result["digests"] != self.digests:
                failed = set(range(self.records))
                messages.append("output digests differ from the first sweep at this seed")
        shutil.rmtree(result["out_dir"], ignore_errors=True)
        self.failed += len(failed)
        self.messages.extend(messages[:20])

    def check_reference(self, seed) -> None:
        """Recompute a few sampled records through ``harness.run_trial``."""
        from d2dcoop import harness

        if self.reference_rows is None:
            return
        picks = random.Random(seed).sample(range(self.records), REFERENCE_SAMPLES)
        messages = checks.check_reference(
            self.reference_rows, self.points, self.trials, self.config,
            harness.run_trial, picks,
        )
        self.failed += len(messages)
        self.messages.extend(messages)


def traced_metrics(traced, checker) -> dict:
    """Median of each layer metric over the traced sweeps.

    Call counts and computed counts must repeat exactly between sweeps.
    """
    import spans

    runs = [
        spans.layer_metrics(
            r["trace"]["spans"], r["trace"]["counters"],
            r["trace"]["main_start"], r["trace"]["main_end"],
        )
        for r in traced
    ]
    metrics = {}
    for name, (_, unit) in runs[0].items():
        values = [run[name][0] for run in runs]
        if isinstance(values[0], int):
            if len(set(values)) != 1:
                checker.messages.append(f"{name} differs between traced sweeps: {values}")
            metrics[name] = (values[0], unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    return metrics


def ms_per_trial_point(result, trials) -> float:
    return result["wall_s"] * 1000.0 / (result["points"] * trials)


def scaled_ms_per_trial_point(result, trials) -> float:
    """Wall ms per trial x point at the reference host speed.

    The host's speed drifts by up to 1.5x over minutes (other tenants),
    and the same fixed kernel, timed just before and after the sweep in
    the same process, drifts with it; scaling by it removes most of the
    drift from run-to-run comparisons.
    """
    kernel = statistics.mean(result["kernel_s"])
    return ms_per_trial_point(result, trials) * KERNEL_REF_S / kernel


def scaled_setup_s(result) -> float:
    """Set-up time at the reference host speed (kernel timed right after it)."""
    return result["setup_s"] * KERNEL_REF_S / result["kernel_s"][0]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "d2dcoop", "__init__.py")):
        print(f"error: no d2dcoop package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from d2dcoop import harness
    from d2dcoop.config import preset_config

    import spans

    preset, trials = WORKLOADS[args.workload]
    config = preset_config(preset, trials, args.seed)
    points = list(harness.grid_points(config))
    checker = SweepChecker(config, points, trials)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        # warm the interpreter's bytecode and the page cache; not measured
        run_child(work, "warmup", preset, args.seed, 0)
        sweeps = []
        started = time.monotonic()
        deadline = started + args.seconds
        while len(sweeps) < MIN_SWEEPS or time.monotonic() < deadline:
            result = run_child(work, f"sweep{len(sweeps)}", preset, args.seed, trials)
            checker.check(result)
            sweeps.append(result)
            # with --trace 1 the traced sweeps take their share of the run
            per_sweep = (time.monotonic() - started) / len(sweeps)
            if args.trace and time.monotonic() + TRACED_SWEEPS * per_sweep >= deadline:
                break
        traced = []
        if args.trace:
            for i in range(TRACED_SWEEPS):
                result = run_child(work, f"traced{i}", preset, args.seed, trials, trace=True)
                checker.check(result)
                traced.append(result)
        checker.check_reference(args.seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in sweeps if r.get("returncode") == 0]
    ok_traced = [r for r in traced if r.get("returncode") == 0]
    if not ok or (args.trace and len(ok_traced) != TRACED_SWEEPS):
        print("error: sweeps failed:\n" + "\n".join(checker.messages), file=sys.stderr)
        return 1
    untraced_ms = statistics.median(ms_per_trial_point(r, trials) for r in ok)
    fail_share = checker.failed / checker.attempted
    end_to_end = {
        "ms_per_trial_point": (
            statistics.median(scaled_ms_per_trial_point(r, trials) for r in ok), "ms"
        ),
        "setup_s": (statistics.median(scaled_setup_s(r) for r in ok), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in ok), "MB"),
        "ok_share": (1.0 - fail_share, "share"),
    }
    wall = {
        "ms_per_trial_point": untraced_ms,
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "kernel_s": statistics.median(statistics.mean(r["kernel_s"]) for r in ok),
    }
    per_layer = {}
    if args.trace:
        # per-layer times are unscaled wall times, like the spans
        per_layer = traced_metrics(ok_traced, checker)
        per_layer["trace.traced_ms_per_trial_point"] = (
            statistics.median(ms_per_trial_point(r, trials) for r in ok_traced), "ms"
        )
        per_layer["trace.untraced_ms_per_trial_point"] = (untraced_ms, "ms")
        per_layer["host.kernel_s"] = (
            statistics.median(statistics.mean(r["kernel_s"]) for r in ok_traced), "s"
        )
    correct = checker.failed == 0 and not checker.messages

    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "environment": environment(args, trials),
        "points": len(points),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "fail_share": fail_share,
        "correct": correct,
        "messages": checker.messages,
        "digests": checker.digests,
        "end_to_end": end_to_end,
        "wall": wall,
        "per_layer": per_layer,
        "computed_counts": list(spans.COMPUTED) if args.trace else [],
        "sweeps": [
            {k: v for k, v in r.items() if k not in ("out_dir", "trace")}
            for r in sweeps + traced
        ],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if ok_traced:
        with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
            json.dump(ok_traced[0]["trace"], fh)

    metrics = per_layer if args.trace else end_to_end
    print(json.dumps({
        "correct": correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
