"""Monte Carlo orchestration: trials, sweeps, aggregation, CSV output.

Determinism contract: every trial owns a private generator seeded from
``(master_seed, stream, trial_index)``, so records are bitwise
reproducible. Each channel is drawn and factorised once per
(users, trial) and shared by every grid point of that user count, which
makes curves paired comparisons. The decoding codebook is seeded from
``(master_seed, stream, user_count)`` only, never from the bit count, so
smaller codebooks are exact prefixes of bigger ones. That nesting, and a
selection score that does not depend on the SNR, let one scoring pass
per (users, trial) choose the codeword for every b and SNR. After the
channel draw a trial is its Gram factorisation alone: every grid point,
the overload audit included, is a closed form of it. The grid axes
(b, SNR, gamma, bandwidth ratio) are array axes: the closed forms are
broadcast over a column of noise powers, so one overload audit per
(trial, b) covers every SNR and serves every link that carries bits.
Every channel the package draws comes from :func:`draw_trial`, those of
the cell-distortion audit included.
"""

import contextlib
import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInvalidError, aligned_cell_distortion, snr_lower_bound_terms
from .channel import analytic_covariance  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import draw_environment, inner_precoder, sample_channel
from .codebook import (
    DecodingCodebook,
    generate_codebook,
    select_codeword,  # noqa: F401  harness global that perfbench/spans.py wraps by name
    select_prefix_codewords,
)
from .config import ExperimentConfig
from .linklevel import empirical_snr  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import (
    EigenSpectrum,
    IllConditionedChannelError,
    effective_channel,
    eigen_spectrum,
    gram_inverse,
    noncooperative_baseline_snr,
    snr_denominators,
)
from .quantization import CooperationLink, bits_from_bandwidth, expected_overload, quantized_snr

# seed-sequence stream tags keeping trial and codebook draws independent
TRIAL_STREAM = 1
CODEBOOK_STREAM = 2

TRIAL_CSV_HEADER = (
    "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,trial,"
    "capacity_coop,capacity_zf,capacity_ideal,capacity_bound,cond_fail,overload_rate"
)
AGGREGATE_CSV_HEADER = (
    "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,"
    "mean_coop,sem_coop,mean_zf,sem_zf,mean_ideal,norm_capacity"
)


@dataclass(frozen=True)
class GridPoint:
    """One swept parameter combination."""

    users: int
    bits: int
    snr_db: float
    gamma_db: float | None
    bandwidth_ratio: float | None


@dataclass(frozen=True)
class TrialRecord:
    """Capacities of one Monte Carlo trial at one grid point."""

    users: int
    bits: int
    snr_db: float
    gamma_db: float | None
    bandwidth_ratio: float | None
    trial: int
    capacity_coop: float | None
    capacity_zf: float | None
    capacity_ideal: float | None
    capacity_bound: float | None
    cond_fail: int
    overload_rate: float | None


@dataclass(frozen=True)
class PointSummary:
    """Aggregate over the non-failed trials of one grid point."""

    users: int
    bits: int
    snr_db: float
    gamma_db: float | None
    bandwidth_ratio: float | None
    mean_coop: float | None
    sem_coop: float | None
    mean_zf: float | None
    sem_zf: float | None
    mean_ideal: float | None
    norm_capacity: float | None
    num_ok: int
    num_failed: int


def capacity(snrs):
    """Sum rate of decoupled streams: sum of log2(1 + SNR_p) in bit/s/Hz.

    Sums over the last axis: a float for one SNR vector, a rate per row of a stack.
    """
    values = np.atleast_1d(np.asarray(snrs, dtype=float))
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("SNRs must be finite and nonnegative")
    rates = np.log2(1.0 + values).sum(axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def _link_axes(config: ExperimentConfig):
    """The gamma and bandwidth-ratio axes; one None each in ideal mode."""
    if config.mode == "quantized-rsi":
        return config.gamma_db_grid, config.bandwidth_ratio_grid
    return [None], [None]


def grid_points(config: ExperimentConfig):
    """The deterministic sweep order used for records and CSV rows."""
    axes = (config.user_counts(), config.b_grid, config.snr_db_grid, *_link_axes(config))
    return (GridPoint(*key) for key in itertools.product(*axes))


def codebook_for(config: ExperimentConfig, users: int, bits: int) -> DecodingCodebook:
    """The pre-stored codebook shared by all trials of a sweep."""
    rng = np.random.default_rng([config.master_seed, CODEBOOK_STREAM, users])
    return generate_codebook(users, bits, rng)


@dataclass(frozen=True)
class TrialState:
    """What one trial draws before any grid point is evaluated.

    Everything here depends only on (users, trial), so every grid point
    of that user count reuses it, and nothing else of the draw is kept:
    every grid point is a function of these P x P quantities alone.
    ``spectrum`` is the one factorisation of the effective Gram;
    ``a_inv`` is its inverse, None when the channel is ill-conditioned.
    """

    trial: int
    spectrum: EigenSpectrum
    a_inv: np.ndarray | None


def draw_trial(config: ExperimentConfig, users: int, trial: int) -> TrialState:
    """Draw the channel of one trial and factorise its effective channel."""
    rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
    env = draw_environment(
        config.M,
        config.L,
        rng,
        sector_center=config.sector_center,
        sector_spread=config.sector_spread,
    )
    h = sample_channel(env, users, rng)
    w = inner_precoder(env, config.D)
    spectrum = eigen_spectrum(effective_channel(w, h))
    try:
        a_inv = gram_inverse(spectrum)
    except IllConditionedChannelError:
        a_inv = None
    return TrialState(trial, spectrum, a_inv)


def evaluate_trial(
    config: ExperimentConfig, users: int, state: TrialState, codebook: DecodingCodebook
) -> list:
    """Records of one drawn trial at every grid point of ``users``, in sweep order.

    ``codebook`` holds at least ``2**max(b_grid)`` codewords. Per point:
    the cooperative capacity under the configured sharing mode, the plain
    zero-forcing baseline, the perfect-cooperation capacity and (for two
    or more users) the analytic lower-bound capacity; ill-conditioned
    channels yield flagged records with empty capacities. The grid axes
    (b, SNR, link) are array axes: one scoring pass picks every b's
    codeword, and each closed form runs once per b (per b and link for
    the quantized SNR) on one (S, 1) column of noise powers.
    """
    quantized = config.mode == "quantized-rsi"
    gammas, ratios = _link_axes(config)
    keys = itertools.product(config.b_grid, config.snr_db_grid, gammas, ratios)
    if state.a_inv is None:
        return [
            TrialRecord(users, *key, state.trial, None, None, None, None, 1, None) for key in keys
        ]
    a_inv, spectrum = state.a_inv, state.spectrum
    noise = np.array([[10.0 ** (-snr_db / 10.0)] for snr_db in config.snr_db_grid])
    links = [
        CooperationLink(r, 10.0 ** (g / 10.0)) for g in gammas for r in ratios
    ] if quantized else []
    carries = np.array([bits_from_bandwidth(link) > 0 for link in links], dtype=bool)
    shape = (len(config.b_grid), len(noise), len(gammas) * len(ratios))
    coop, overload = np.empty(shape), np.zeros(shape)
    bound = np.full(shape[:2], None, dtype=object)
    choice = select_prefix_codewords(codebook, a_inv, config.b_grid)
    for i, bits in enumerate(config.b_grid):
        decoding = codebook[choice[bits]]
        if quantized:
            for j, link in enumerate(links):
                coop[i, :, j] = capacity(quantized_snr(decoding, a_inv, noise, link, config.tau))
            if carries.any():
                audit = expected_overload(decoding, a_inv, noise, config.tau)
                overload[i] = np.where(carries, audit, 0.0)
        else:
            coop[i, :, 0] = capacity(1.0 / (noise * snr_denominators(decoding, a_inv)))
        if users >= 2:
            with contextlib.suppress(BoundInvalidError):
                bound[i] = capacity(snr_lower_bound_terms(spectrum, bits, noise)).tolist()
    zf = capacity(noncooperative_baseline_snr(a_inv, noise))[:, None]
    ideal = capacity(spectrum.eigenvalues / noise)[:, None]
    # every column broadcast to (b, SNR, link) and flattened in sweep order
    columns = [
        np.broadcast_to(column, shape).ravel().tolist()
        for column in (coop, zf, ideal, bound[:, :, None], overload)
    ]
    return [
        TrialRecord(users, *key, state.trial, *capacities, 0, overload_rate)
        for key, *capacities, overload_rate in zip(keys, *columns)
    ]


def run_trial(config: ExperimentConfig, point: GridPoint, trial: int) -> TrialRecord:
    """One trial at one grid point: the per-point reference path of the sweep.

    It evaluates a one-point grid, on its own ``2**b`` codebook, through
    the same :func:`evaluate_trial`.
    """
    codebook = codebook_for(config, point.users, point.bits)
    one_point = dataclasses.replace(
        config, b_grid=[point.bits], snr_db_grid=[point.snr_db],
        gamma_db_grid=[point.gamma_db], bandwidth_ratio_grid=[point.bandwidth_ratio],
    )
    state = draw_trial(one_point, point.users, trial)
    return evaluate_trial(one_point, point.users, state, codebook)[0]


def run_experiment(config: ExperimentConfig):
    """Run the full Cartesian sweep; returns (records, summaries).

    Records come in (grid point, trial index) order. Each user count's
    trials are drawn once and evaluated at all of its grid points.
    """
    config.validate()
    records: list[TrialRecord] = []
    for users in config.user_counts():
        # drop the previous user count's codebook before the next one is drawn
        book = None
        book = codebook_for(config, users, max(config.b_grid))
        by_trial = [
            evaluate_trial(config, users, draw_trial(config, users, trial), book)
            for trial in range(config.num_trials)
        ]
        records.extend(record for by_point in zip(*by_trial) for record in by_point)
    summaries = [
        summarize_point(point, records[i * config.num_trials : (i + 1) * config.num_trials])
        for i, point in enumerate(grid_points(config))
    ]
    return records, summaries


def cell_distortion_audit(config: ExperimentConfig, users: int) -> dict:
    """Measured quantization-cell distortion of the sweep's codebook, per b.

    Walks the sweep's own trials and codebook. For each usable trial one
    overlap of the eigenvectors with the ``2**max(b_grid)`` codebook and
    one scoring pass serve every b. Returns ``{b: (cell, selected)}``:
    ``cell`` is the mean squared sine between eigenvector p and the
    nearest p-th codeword column of the ``2**b`` prefix, the quantity
    that :func:`~d2dcoop.bounds.expected_cell_distortion` approximates;
    ``selected`` is the mean :func:`~d2dcoop.bounds.aligned_cell_distortion`
    of the codeword the average-SNR selector picks. Selection is not a
    minimum-distortion quantizer, so the gap between the two audits the
    cell approximation behind the bound. Ill-conditioned trials are
    skipped. Raises ValueError when no trial is usable or when ``users``
    is not one of the config's user counts.
    """
    config.validate()
    if users not in config.user_counts():
        raise ValueError(f"{users} users is not a user count of the sweep")
    codebook = codebook_for(config, users, max(config.b_grid))
    cell = dict.fromkeys(config.b_grid, 0.0)
    selected = dict.fromkeys(config.b_grid, 0.0)
    usable = 0
    for trial in range(config.num_trials):
        state = draw_trial(config, users, trial)
        if state.a_inv is None:
            continue
        usable += 1
        u = state.spectrum.eigenmatrix
        # [k, p] = |u_p^H q_p(k)|^2 over codewords k
        overlap = np.abs(np.einsum("ip,kip->kp", u.conj(), codebook.codewords)) ** 2
        choice = select_prefix_codewords(codebook, state.a_inv, config.b_grid)
        for bits, index in choice.items():
            cell[bits] += float((1.0 - overlap[: 1 << bits].max(axis=0)).mean())
            selected[bits] += float(aligned_cell_distortion(codebook[index], u).mean())
    if not usable:
        raise ValueError(f"all {config.num_trials} trials are ill-conditioned")
    return {bits: (cell[bits] / usable, selected[bits] / usable) for bits in sorted(config.b_grid)}


def summarize_point(point: GridPoint, records) -> PointSummary:
    ok = [r for r in records if not r.cond_fail]
    failed = len(records) - len(ok)
    key = (point.users, point.bits, point.snr_db, point.gamma_db, point.bandwidth_ratio)
    if not ok:
        return PointSummary(*key, None, None, None, None, None, None, 0, failed)
    coop = np.array([r.capacity_coop for r in ok])
    zf = np.array([r.capacity_zf for r in ok])
    ideal = np.array([r.capacity_ideal for r in ok])
    mean_ideal = float(ideal.mean())
    # every capacity rounds to 0.0 at extreme negative SNR: the ratio is undefined
    norm_capacity = float(coop.mean()) / mean_ideal if mean_ideal > 0.0 else None
    return PointSummary(
        *key, float(coop.mean()), _sem(coop), float(zf.mean()), _sem(zf), mean_ideal,
        norm_capacity, len(ok), failed,
    )


def _sem(values: np.ndarray) -> float:
    if values.size < 2:
        return 0.0
    return float(values.std(ddof=1) / np.sqrt(values.size))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_lines(header: str, config: ExperimentConfig, rows) -> list:
    """``header`` then one line per row: the config and grid-point columns,
    followed by the row's own fields, which the header names after them."""
    preset = config.figure_preset or ""
    own = header.split(",")[10:]
    lines = [header]
    for r in rows:
        values = (
            preset, config.mode, config.M, r.users, config.D, config.L,
            r.bits, r.snr_db, r.gamma_db, r.bandwidth_ratio,
            *(getattr(r, name) for name in own),
        )
        lines.append(",".join(_fmt(v) for v in values))
    return lines


def trial_csv_lines(config: ExperimentConfig, records) -> list:
    return _csv_lines(TRIAL_CSV_HEADER, config, records)


def aggregate_csv_lines(config: ExperimentConfig, summaries) -> list:
    return _csv_lines(AGGREGATE_CSV_HEADER, config, summaries)


def write_csv(path, lines) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def write_outputs(out_dir, config: ExperimentConfig, records, summaries, json_mirror=False):
    """Write trials.csv and aggregate.csv (plus JSON mirrors on request)."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    trials_path = os.path.join(out_dir, "trials.csv")
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    write_csv(trials_path, trial_csv_lines(config, records))
    write_csv(aggregate_path, aggregate_csv_lines(config, summaries))
    written = [trials_path, aggregate_path]
    if json_mirror:
        for name, rows in (("trials.json", records), ("aggregate.json", summaries)):
            path = os.path.join(out_dir, name)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump([dataclasses.asdict(r) for r in rows], fh, indent=1)
                fh.write("\n")
            written.append(path)
    return written
