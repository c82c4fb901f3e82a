"""Output checks for one sweep's ``trials.csv`` and ``aggregate.csv``.

Each check names the records it fails; ``run.py`` folds the failed
records into ``fail_share``. A ``cond_fail=1`` record is a valid
simulator outcome and is not a failure.
"""

import csv
import math

# the reference path may reorder arithmetic in a later refactor
REFERENCE_RTOL = 1e-9
REFERENCE_ATOL = 1e-12
REFERENCE_FIELDS = (
    "capacity_coop", "capacity_zf", "capacity_ideal", "capacity_bound",
    "cond_fail", "overload_rate",
)


def read_rows(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _optional(text):
    return None if text == "" else float(text)


def _point_key(point) -> tuple:
    return (point.users, point.bits, point.snr_db, point.gamma_db, point.bandwidth_ratio)


def _row_key(row) -> tuple:
    return (
        int(row["P"]), int(row["b"]), float(row["snr_db"]),
        _optional(row["gamma_db"]), _optional(row["bw_ratio"]),
    )


def _value_problem(row):
    """Why an unflagged trial row is out of range, or None."""
    if row["cond_fail"] == "1":
        return None
    if row["cond_fail"] != "0":
        return f"cond_fail is {row['cond_fail']!r}"
    coop, zf, ideal = (
        float(row[name]) for name in ("capacity_coop", "capacity_zf", "capacity_ideal")
    )
    for name, value in (("coop", coop), ("zf", zf), ("ideal", ideal)):
        if not math.isfinite(value) or value < 0:
            return f"capacity_{name} is {value!r}"
    if coop > ideal:
        return f"capacity_coop {coop!r} exceeds capacity_ideal {ideal!r}"
    if zf > ideal:
        return f"capacity_zf {zf!r} exceeds capacity_ideal {ideal!r}"
    overload = float(row["overload_rate"])
    if not 0.0 <= overload <= 1.0:
        return f"overload_rate {overload!r} is outside [0, 1]"
    return None


def check_sweep(trial_rows, aggregate_rows, points, trials):
    """Return (indices of failed records, messages) for one sweep.

    Records are expected in sweep order, ``trials`` per grid point, with
    one aggregate row per point. A missing or out-of-order record fails;
    a missing or misplaced aggregate row fails every record of its point.
    """
    failed = set()
    messages = []
    expected = len(points) * trials
    if len(trial_rows) != expected:
        messages.append(f"trials.csv has {len(trial_rows)} records, expected {expected}")
    if len(aggregate_rows) != len(points):
        messages.append(
            f"aggregate.csv has {len(aggregate_rows)} rows, expected {len(points)}"
        )
    for index in range(expected):
        point, trial = points[index // trials], index % trials
        if index >= len(trial_rows):
            failed.add(index)
            continue
        row = trial_rows[index]
        try:
            if _row_key(row) != _point_key(point) or int(row["trial"]) != trial:
                problem = f"out of sweep order: {row}"
            else:
                problem = _value_problem(row)
        except (KeyError, ValueError) as exc:
            problem = f"unreadable: {exc}"
        if problem is not None:
            failed.add(index)
            if len(messages) < 20:
                messages.append(f"record {index}: {problem}")
    for position, point in enumerate(points):
        try:
            ok = _row_key(aggregate_rows[position]) == _point_key(point)
        except (IndexError, KeyError, ValueError):
            ok = False
        if not ok:
            failed.update(range(position * trials, (position + 1) * trials))
            if len(messages) < 20:
                messages.append(f"aggregate row {position} missing or out of order")
    return failed, messages


def _same(csv_text, value) -> bool:
    if value is None or csv_text == "":
        return value is None and csv_text == ""
    return math.isclose(
        float(csv_text), float(value), rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL
    )


def check_reference(trial_rows, points, trials, config, run_trial, indices):
    """Compare sampled records with a fresh ``run_trial`` call each.

    Returns the messages of the records that disagree.
    """
    messages = []
    for index in indices:
        record = run_trial(config, points[index // trials], index % trials)
        row = trial_rows[index]
        bad = [f for f in REFERENCE_FIELDS if not _same(row[f], getattr(record, f))]
        if bad:
            messages.append(f"record {index} differs from run_trial in {bad}")
    return messages
