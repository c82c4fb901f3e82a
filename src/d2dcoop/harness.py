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
the overload audit included, is a closed form of it. One expected
overload per (trial, b, SNR) serves every link that carries bits.
"""

import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .bounds import BoundInvalidError, snr_lower_bound_terms
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


def capacity(snrs) -> float:
    """Sum rate of decoupled streams: sum of log2(1 + SNR_p) in bit/s/Hz."""
    values = np.atleast_1d(np.asarray(snrs, dtype=float))
    if np.any(values < 0) or not np.all(np.isfinite(values)):
        raise ValueError("SNRs must be finite and nonnegative")
    return float(np.log2(1.0 + values).sum())


def grid_points(config: ExperimentConfig):
    """The deterministic sweep order used for records and CSV rows."""
    quantized = config.mode == "quantized-rsi"
    gammas = config.gamma_db_grid if quantized else [None]
    ratios = config.bandwidth_ratio_grid if quantized else [None]
    for users in config.user_counts():
        for bits in config.b_grid:
            for snr_db in config.snr_db_grid:
                for gamma_db in gammas:
                    for ratio in ratios:
                        yield GridPoint(users, bits, snr_db, gamma_db, ratio)


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


def draw_trial(config: ExperimentConfig, users: int, trial: int, environment=None) -> TrialState:
    """Draw the channel of one trial and factorise its effective channel."""
    rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
    env = environment
    if env is None:
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
    config: ExperimentConfig,
    points,
    state: TrialState,
    codebook: DecodingCodebook,
) -> list:
    """Evaluate every strategy of one drawn trial at each given grid point.

    ``points`` share the trial's user count and ``codebook`` holds at
    least ``2**bits`` codewords for each of them. Produces, per point, the
    cooperative capacity under the configured sharing mode, the plain
    zero-forcing baseline, the perfect-cooperation capacity from the
    eigen-spectrum, and (for two or more users) the analytic lower-bound
    capacity. Ill-conditioned channels yield flagged records with empty
    capacities. One scoring pass picks the codeword of every ``b``, and
    one overload audit per (b, SNR) serves every link that carries bits.
    """
    if state.a_inv is None:
        return [
            TrialRecord(
                point.users, point.bits, point.snr_db, point.gamma_db,
                point.bandwidth_ratio, state.trial, None, None, None, None, 1, None,
            )
            for point in points
        ]
    a_inv, spectrum = state.a_inv, state.spectrum
    choice = select_prefix_codewords(codebook, a_inv, [point.bits for point in points])
    baselines: dict = {}
    audits: dict = {}
    records = []
    for point in points:
        noise_power = 10.0 ** (-point.snr_db / 10.0)
        if point.snr_db not in baselines:
            baselines[point.snr_db] = (
                capacity(spectrum.eigenvalues / noise_power),
                capacity(noncooperative_baseline_snr(a_inv, noise_power)),
            )
        capacity_ideal, capacity_zf = baselines[point.snr_db]
        decoding = codebook[choice[point.bits]]
        overload = 0.0
        if config.mode == "quantized-rsi":
            link = CooperationLink(point.bandwidth_ratio, 10.0 ** (point.gamma_db / 10.0))
            coop_snrs = quantized_snr(decoding, a_inv, noise_power, link, config.tau)
            if bits_from_bandwidth(link) > 0:
                key = (point.bits, point.snr_db)
                if key not in audits:
                    audits[key] = expected_overload(decoding, a_inv, noise_power, config.tau)
                overload = audits[key]
        else:
            coop_snrs = 1.0 / (noise_power * snr_denominators(decoding, a_inv))
        capacity_coop = capacity(coop_snrs)

        capacity_bound = None
        if point.users >= 2:
            try:
                capacity_bound = capacity(snr_lower_bound_terms(spectrum, point.bits, noise_power))
            except BoundInvalidError:
                pass

        records.append(TrialRecord(
            point.users, point.bits, point.snr_db, point.gamma_db, point.bandwidth_ratio,
            state.trial, capacity_coop, capacity_zf, capacity_ideal, capacity_bound, 0,
            overload,
        ))
    return records


def run_trial(
    config: ExperimentConfig,
    point: GridPoint,
    trial: int,
    codebook: DecodingCodebook | None = None,
    environment=None,
) -> TrialRecord:
    """Execute one trial at one grid point: the reference path of the sweep."""
    if codebook is None:
        codebook = codebook_for(config, point.users, point.bits)
    elif codebook.bits != point.bits or codebook.num_users != point.users:
        raise ValueError("codebook does not match the grid point")
    state = draw_trial(config, point.users, trial, environment)
    return evaluate_trial(config, [point], state, codebook)[0]


def run_experiment(config: ExperimentConfig, environment=None):
    """Run the full Cartesian sweep; returns (records, summaries).

    Records come in (grid point, trial index) order. Each user count's
    trials are drawn once and evaluated at all of its grid points. Pass
    ``environment`` to condition the whole sweep on one fixed scattering
    environment instead of redrawing per trial.
    """
    config.validate()
    points = list(grid_points(config))
    records: list[TrialRecord] = []
    # grid_points runs users outermost, so each user count's points are contiguous
    for users, group in itertools.groupby(points, key=lambda point: point.users):
        group = list(group)
        # drop the previous user count's codebook before the next one is drawn
        book = None
        book = codebook_for(config, users, max(config.b_grid))
        by_trial = [
            evaluate_trial(config, group, draw_trial(config, users, trial, environment), book)
            for trial in range(config.num_trials)
        ]
        records.extend(record for by_point in zip(*by_trial) for record in by_point)
    summaries = [
        summarize_point(point, records[i * config.num_trials : (i + 1) * config.num_trials])
        for i, point in enumerate(points)
    ]
    return records, summaries


def summarize_point(point: GridPoint, records) -> PointSummary:
    ok = [r for r in records if not r.cond_fail]
    failed = len(records) - len(ok)
    if not ok:
        return PointSummary(
            point.users, point.bits, point.snr_db, point.gamma_db,
            point.bandwidth_ratio, None, None, None, None, None, None, 0, failed,
        )
    coop = np.array([r.capacity_coop for r in ok])
    zf = np.array([r.capacity_zf for r in ok])
    ideal = np.array([r.capacity_ideal for r in ok])
    mean_ideal = float(ideal.mean())
    # every capacity rounds to 0.0 at extreme negative SNR: the ratio is undefined
    norm_capacity = float(coop.mean()) / mean_ideal if mean_ideal > 0.0 else None
    return PointSummary(
        point.users,
        point.bits,
        point.snr_db,
        point.gamma_db,
        point.bandwidth_ratio,
        float(coop.mean()),
        _sem(coop),
        float(zf.mean()),
        _sem(zf),
        mean_ideal,
        norm_capacity,
        len(ok),
        failed,
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
