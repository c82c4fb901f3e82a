"""Paired perfbench runs of two source trees, for a before/after comparison.

Usage:
    python3 scripts/paired_perfbench.py PARENT_TREE CHANGE_TREE \\
        --workload snr-sweep --pairs 10 --seconds 15 --seed 301

Pair i runs each tree's own ``perfbench/run.py`` once, with seed K + i and
the given run length, as a separate process from the tree's root. The
parent runs first in even pairs and the change first in odd ones, so that
drift of a shared host falls on both sides alike. The last stdout line of
each run is its JSON result; each run's full record goes to its own tree's
``perfbench/out/``.

For every end-to-end metric named in the parent tree's ``BENCHMARK.json``,
and for the unscaled ``wall.ms_per_trial_point`` of each run's record, the
script prints each side's median and quartiles (inclusive method), the
median of the paired change/parent ratios and the pairs the change won,
ties counting for neither. A gain may be claimed when the change wins at
least nine pairs in ten and the medians differ by more than the parent's
quartile spread; the "gain rule met" column says whether both hold. The
regression column reads ``worse`` when the change's median is worse than the
parent's by more than the metric's ``BENCHMARK.json`` bound, taken as a
fraction of the parent's median; ``unresolved`` when the parent's quartile
spread exceeds that margin, unless every change run beats every parent run;
``no`` otherwise, and ``n/a`` for a metric without a bound. Every run is
printed as it finishes. Under the table it counts, per side, the runs
whose output failed perfbench's own check; the script exits 1 when there
is any, since their numbers are in the medians. It then counts the pairs
whose two runs wrote the same outputs: the record's ``digests``, the
SHA-256 of ``trials.csv`` and ``aggregate.csv`` at the pair's seed, equal
on both sides. That count is informational and leaves the exit code as
it is. Uses the standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# perfbench scales its reported times by a kernel timed after each sweep; the
# record also keeps the unscaled median
WALL = "wall.ms_per_trial_point"
# the record's output digests, kept beside the metrics of a run
DIGESTS = "digests"


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="source tree of the parent commit")
    ap.add_argument("change", help="source tree of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be positive")
    for tree in (args.parent, args.change):
        if not os.path.isfile(os.path.join(tree, "perfbench", "run.py")):
            ap.error(f"{tree} has no perfbench/run.py")
    return args


def run_once(tree, workload, seed, seconds) -> tuple:
    """One perfbench run in ``tree``: ``({metric: value}, correct)`` from its last
    JSON line, with the unscaled :data:`WALL` and the output :data:`DIGESTS` from its
    record in ``perfbench/out/``."""
    command = [
        sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: perfbench exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    values = {name: entry["value"] for name, entry in result["metrics"].items()}
    path = os.path.join(tree, "perfbench", "out", f"{workload}-seed{seed}-trace0.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    values[WALL], values[DIGESTS] = record["wall"]["ms_per_trial_point"], record["digests"]
    return values, result["correct"]


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def summary(name, better, parent, change, bound=None) -> str:
    """One table row: each side's median (quartiles), the paired ratio, the wins,
    the gain rule and the regression verdict against ``bound``."""
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    ratios = [c / p for p, c in zip(parent, change) if p]
    ratio = f"{statistics.median(ratios):.4f}" if ratios else "n/a"
    claim = wins >= 0.9 * len(parent) and sign * (c_med - p_med) > p_q3 - p_q1
    verdict = "n/a"
    if bound is not None:
        margin = bound * abs(p_med)
        beats_all = all(sign * (c - p) > 0 for c in change for p in parent)
        verdict = "no"
        if sign * (p_med - c_med) > margin:
            verdict = "worse"
        elif p_q3 - p_q1 > margin and not beats_all:
            verdict = "unresolved"
    return (
        f"| {name} | {p_med:.6g} ({p_q1:.6g}–{p_q3:.6g}) | {c_med:.6g} ({c_q1:.6g}–{c_q3:.6g})"
        f" | {ratio} | {wins} of {len(parent)} | {'yes' if claim else 'no'} | {verdict} |"
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = [(m["name"], m["better"], m.get("bound")) for m in json.load(fh)["end_to_end"]]
    metrics.append((WALL, "lower", None))
    runs = {"parent": [], "change": []}
    incorrect = dict.fromkeys(runs, 0)
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            values, correct = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(values)
            incorrect[side] += not correct
            shown = " ".join(f"{name}={values.get(name)}" for name, _, _ in metrics)
            flag = "" if correct else " INCORRECT OUTPUT"
            print(f"pair {i + 1} seed {seed} {side}: {shown}{flag}", flush=True)
    print(f"\n{args.workload}: {args.pairs} pairs, --seconds {args.seconds}, seeds "
          f"{args.seed}–{args.seed + args.pairs - 1}")
    print("| metric | parent median (quartiles) | change median (quartiles) "
          "| paired ratio median | change won | gain rule met | regression |")
    print("|---|---|---|---|---|---|---|")
    for name, better, bound in metrics:
        parent = [run[name] for run in runs["parent"]]
        change = [run[name] for run in runs["change"]]
        print(summary(name, better, parent, change, bound))
    print(f"\nincorrect runs: parent {incorrect['parent']} of {args.pairs}, "
          f"change {incorrect['change']} of {args.pairs}")
    same = sum(p.get(DIGESTS) is not None and p.get(DIGESTS) == c.get(DIGESTS)
               for p, c in zip(runs["parent"], runs["change"]))
    print(f"equal output digests (trials.csv, aggregate.csv): {same} of {args.pairs} pairs")
    return 1 if any(incorrect.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
