"""One benchmark sweep in a fresh process, started by ``run.py``.

Usage:
    python3 perfbench/child.py RESULT_JSON PRESET SEED TRIALS OUT_DIR SPAWNED TRACE

``SPAWNED`` is the parent's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is shared by all processes on Linux), so
``setup_s`` includes interpreter start-up. ``TRIALS`` of 0 stops after
set-up, which warms the import caches. Just before and after the sweep
the child times a fixed kernel, which ``run.py`` uses to scale times to
a reference host speed. With ``TRACE`` of 1 the layer
functions are wrapped by ``spans.Recorder`` and the spans go into the
result file. The package must be importable, e.g. with PYTHONPATH=src.
"""

import hashlib
import json
import os
import resource
import sys
import time
import traceback


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def kernel_seconds() -> float:
    """Wall time of a fixed kernel that d2dcoop does not touch.

    The mix follows the sweeps: a 64x64 Hermitian eigensolve, batched
    5x5 complex products with reductions, and plain Python arithmetic.
    """
    import numpy as np

    rng = np.random.default_rng(20160902)
    a = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    h = a @ a.conj().T
    b = rng.standard_normal((1024, 5, 5)) + 1j * rng.standard_normal((1024, 5, 5))
    started = time.perf_counter()
    for _ in range(40):
        np.linalg.eigh(h)
        (b.conj() * (h[:5, :5] @ b)).sum(axis=1).real.argmax()
        sum(i * i for i in range(2000))
    return time.perf_counter() - started


def main(argv) -> int:
    result_path, preset, seed, trials, out_dir, spawned, trace = argv
    seed, trials, spawned, trace = int(seed), int(trials), float(spawned), trace == "1"

    from d2dcoop import cli, harness

    recorder = None
    if trace:
        import spans

        recorder = spans.Recorder()
        recorder.install(harness, cli)
    config = cli.preset_config(preset, trials or None, seed)
    result = {"setup_s": time.monotonic() - spawned}
    if trials:
        result["points"] = sum(1 for _ in harness.grid_points(config))
        kernel = [kernel_seconds()]
        started = time.perf_counter()
        try:
            result["returncode"] = cli.main([
                "preset", preset, "--seed", str(seed), "--trials", str(trials),
                "--threads", "1", "--out", out_dir,
            ])
        except Exception:
            result["returncode"] = None
            result["error"] = traceback.format_exc()
        finished = time.perf_counter()
        result["wall_s"] = finished - started
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel.append(kernel_seconds())
        result["kernel_s"] = kernel
        if result["returncode"] == 0:
            result["digests"] = {
                name: sha256(os.path.join(out_dir, name))
                for name in ("trials.csv", "aggregate.csv")
            }
        if recorder is not None:
            result["trace"] = dict(recorder.dump(), main_start=started, main_end=finished)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
