"""Monte Carlo orchestration: trials, sweeps, aggregation, CSV output.

Determinism contract: every trial owns a private generator seeded from
``(master_seed, stream, trial_index)``, so records are bitwise
reproducible. Each channel is drawn and factorised once per
(users, trial) and shared by every grid point of that user count, which
makes curves paired comparisons; past the per-trial random draws, the
factorisation runs on stacks of trials. The decoding codebook is seeded from
``(master_seed, stream, user_count)`` only, never from the bit count, so
smaller codebooks are exact prefixes of bigger ones. That nesting, and a
selection score that does not depend on the SNR, let one pass of the
codebook per user count choose every trial's codeword for every b and
SNR; the sweep streams that pass block by block, never holding the
whole codebook, and scores each block against every trial at once by
one real GEMM. After the channel draw and the choice, a trial is its
Gram factorisation and chosen codewords alone: every grid point, the
overload audit included, is a closed form of them. The grid axes
(b, SNR, gamma, bandwidth ratio) are array axes: the closed forms are
broadcast over a column of noise powers, so one overload audit per
(trial, b) covers every SNR and serves every link that carries bits;
ideal sharing is the noiseless link of the same cooperative-SNR formula.
Every channel the package draws comes from :func:`draw_trials`, those of
the cell-distortion audit included.
"""

import dataclasses
import itertools
import json
from dataclasses import dataclass

import numpy as np

from .bounds import aligned_cell_distortion, cell_distortion, snr_lower_bound_terms
from .channel import analytic_covariance  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import ScatteringEnvironment, draw_environment, inner_precoder, path_gains, ray_sum
from .channel import sample_channel  # noqa: F401  perfbench/spans.py wraps it by name
from .codebook import BLOCK, generate_codebook, select_codeword, select_prefix_codewords
from .config import ExperimentConfig
from .linklevel import empirical_snr  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import effective_channel, eigen_spectrum, gram_inverse, well_conditioned
from .precoding import noncooperative_baseline_snr, snr_denominators
from .quantization import cooperative_snr, expected_overload, link_variances
from .quantization import quantized_snr  # noqa: F401  perfbench/spans.py wraps it by name

# seed-sequence stream tags keeping trial and codebook draws independent
TRIAL_STREAM = 1
CODEBOOK_STREAM = 2
# trials per stacked channel draw: bounds the steering and SVD temporaries
DRAW_CHUNK = 8

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


def _codebook_rng(config: ExperimentConfig, users: int) -> np.random.Generator:
    return np.random.default_rng([config.master_seed, CODEBOOK_STREAM, users])


def codebook_for(config: ExperimentConfig, users: int, bits: int) -> np.ndarray:
    """The pre-stored ``(2**bits, users, users)`` codebook shared by all trials of a sweep.

    The whole array, for the per-point reference :func:`run_trial`; the
    sweep and the cell-distortion audit read :func:`codebook_blocks`.
    """
    return generate_codebook(users, bits, _codebook_rng(config, users))


def codebook_blocks(config: ExperimentConfig, users: int, bits: int):
    """The codebook of :func:`codebook_for`, generated one ``BLOCK`` at a time.

    Consecutive block-sized draws of the one codebook generator are,
    bitwise, the blocks of the whole codebook; each is generated only
    when the consumer asks for it.
    """
    rng = _codebook_rng(config, users)
    block_bits = min(bits, BLOCK.bit_length() - 1)
    for _ in range(1 << (bits - block_bits)):
        yield generate_codebook(users, block_bits, rng)


@dataclass(frozen=True)
class TrialState:
    """What one trial draws before any grid point is evaluated.

    Everything here depends only on (users, trial), so every grid point
    of that user count reuses it, and nothing else of the draw is kept:
    every grid point is a function of these P x P quantities alone: the
    one factorisation of the effective Gram and its inverse ``a_inv``,
    None when the channel is ill-conditioned.
    """

    trial: int
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    a_inv: np.ndarray | None


def draw_trials(config: ExperimentConfig, users: int, trials) -> list:
    """Draw the channels of ``trials`` and factorise their effective channels.

    Each trial draws its path angles and gains from its own generator,
    seeded from ``(master_seed, TRIAL_STREAM, trial)``. The deterministic
    chain (steering, ray sum, inner precoder, effective channel, Gram
    factorisation, condition check and inverse) then runs once per
    ``DRAW_CHUNK`` trials on the stacked draws; each trial's state equals,
    bitwise, its own one-trial draw. Returns one :class:`TrialState` per
    trial, in order.
    """
    trials = list(trials)
    states = []
    for first in range(0, len(trials), DRAW_CHUNK):
        chunk = trials[first : first + DRAW_CHUNK]
        angles, gains = [], []
        for trial in chunk:
            rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
            env = draw_environment(
                config.M, config.L, rng,
                sector_center=config.sector_center, sector_spread=config.sector_spread,
            )
            angles.append(env.path_angles)
            gains.append(path_gains(env, users, rng))
        env = ScatteringEnvironment(config.M, np.stack(angles))
        h = ray_sum(env, np.stack(gains))
        eigenvalues, eigenvectors = eigen_spectrum(
            effective_channel(inner_precoder(env, config.D), h)
        )
        usable = well_conditioned(eigenvalues)
        inverses = iter(gram_inverse(eigenvalues[usable], eigenvectors[usable]))
        states.extend(
            TrialState(trial, lam, v, next(inverses) if ok else None)
            for trial, lam, v, ok in zip(chunk, eigenvalues, eigenvectors, usable)
        )
    return states


def draw_trial(config: ExperimentConfig, users: int, trial: int) -> TrialState:
    """Draw the channel of one trial and factorise its effective channel."""
    return draw_trials(config, users, [trial])[0]


def evaluate_trial(
    config: ExperimentConfig, users: int, state: TrialState, codewords: dict | None
) -> list:
    """Records of one drawn trial at every grid point of ``users``, in sweep order.

    ``codewords`` maps every b of the grid to the decoding matrix chosen
    for this trial, None for an ill-conditioned trial, which yields
    flagged records with empty capacities. Per point: the cooperative
    capacity under the configured sharing mode, the plain zero-forcing
    baseline, the perfect-cooperation capacity and (for two or more
    users) the analytic lower-bound capacity, each a closed form of the
    trial's factorisation and its chosen codewords. The grid axes
    (b, SNR, link) are array axes: the chosen codeword's denominators
    ``d`` are formed once per b, and each closed form runs once per b on
    one (S, 1) column of noise powers. The cooperative SNR is one
    :func:`~d2dcoop.quantization.cooperative_snr` call per b over the
    (SNR, link) grid of link variances, ideal sharing being one noiseless
    link; a link that carries no bits takes the zero-forcing capacity.
    """
    gammas, ratios = _link_axes(config)
    keys = itertools.product(config.b_grid, config.snr_db_grid, gammas, ratios)
    if state.a_inv is None:
        return [
            TrialRecord(users, *key, state.trial, None, None, None, None, 1, None) for key in keys
        ]
    a_inv, eigenvalues = state.a_inv, state.eigenvalues
    noise = np.array([[10.0 ** (-snr_db / 10.0)] for snr_db in config.snr_db_grid])
    variances, carries = np.zeros(1), np.ones(1, dtype=bool)  # ideal sharing: one noiseless link
    if config.mode == "quantized-rsi":
        variances, carries = link_variances(gammas, ratios, config.tau)
    audit = config.mode == "quantized-rsi" and carries.any()
    shape = (len(config.b_grid), len(noise), len(variances))
    coop, overload = np.empty(shape), np.zeros(shape)
    bound = np.full(shape[:2], None, dtype=object)
    zf = capacity(noncooperative_baseline_snr(a_inv, noise))[:, None]
    ideal = capacity(eigenvalues / noise)[:, None]
    for i, bits in enumerate(config.b_grid):
        decoding = codewords[bits]
        d = snr_denominators(decoding, a_inv)
        snrs = cooperative_snr(decoding, d, noise[:, :, None], variances[:, None])
        coop[i] = np.where(carries, capacity(snrs), zf)
        if audit:
            overload[i] = np.where(carries, expected_overload(decoding, d, noise, config.tau), 0.0)
        if users >= 2:
            bound[i] = capacity(snr_lower_bound_terms(eigenvalues, bits, noise)).tolist()
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

    It chooses from its own whole ``2**b`` codebook with the reference
    :func:`~d2dcoop.codebook.select_codeword` and evaluates a one-point
    grid through the same :func:`evaluate_trial`. The trial is drawn
    first, and an ill-conditioned one generates no codebook.
    """
    one_point = dataclasses.replace(
        config, b_grid=[point.bits], snr_db_grid=[point.snr_db],
        gamma_db_grid=[point.gamma_db], bandwidth_ratio_grid=[point.bandwidth_ratio],
    )
    state = draw_trial(one_point, point.users, trial)
    codewords = None
    if state.a_inv is not None:
        codebook = codebook_for(config, point.users, point.bits)
        noise_power = 10.0 ** (-point.snr_db / 10.0)
        codewords = {point.bits: select_codeword(codebook, state.a_inv, noise_power)[1]}
    return evaluate_trial(one_point, point.users, state, codewords)[0]


def run_experiment(config: ExperimentConfig):
    """Run the full Cartesian sweep; returns (records, summaries).

    Records come in (grid point, trial index) order. Each user count's
    trials are drawn once. If one is usable, the count's ``2**max(b)``
    codebook is then streamed once through selection: each block is
    generated, scored against every usable trial and dropped, so the
    sweep holds one block and the chosen codewords, never the codebook.
    Each trial is then evaluated at all of the count's grid points.
    """
    config.validate()
    records: list[TrialRecord] = []
    for users in config.user_counts():
        states = draw_trials(config, users, range(config.num_trials))
        usable = [state for state in states if state.a_inv is not None]
        codewords = {}
        if usable:
            blocks = codebook_blocks(config, users, max(config.b_grid))
            choices = select_prefix_codewords(blocks, [s.a_inv for s in usable], config.b_grid)
            for state, choice in zip(usable, choices):
                codewords[state.trial] = {bits: q for bits, (_, q) in choice.items()}
        by_trial = [
            evaluate_trial(config, users, state, codewords.get(state.trial)) for state in states
        ]
        records.extend(record for by_point in zip(*by_trial) for record in by_point)
    summaries = [
        summarize_point(point, records[i * config.num_trials : (i + 1) * config.num_trials])
        for i, point in enumerate(grid_points(config))
    ]
    return records, summaries


def cell_distortion_audit(config: ExperimentConfig, users: int) -> dict:
    """Measured quantization-cell distortion of the sweep's codebook, per b.

    Walks the sweep's own trials and codebook stream. The one pass of
    :func:`select_prefix_codewords` over the ``2**max(b_grid)`` stream
    chooses for every usable trial and b; next to it, each block lowers
    every trial's running prefix minimum of
    :func:`~d2dcoop.bounds.cell_distortion`, one per b, so the audit, like
    the sweep, holds one block at a time. Returns ``{b: (cell,
    selected)}``: ``cell`` is the mean squared sine between eigenvector p
    and the nearest p-th codeword column of the ``2**b`` prefix, the raw
    pairing (column p against eigenvector p) that ``2**(-b/(P-1))``
    models; ``selected`` is the mean
    :func:`~d2dcoop.bounds.aligned_cell_distortion`, which resolves the
    pairing, of the codeword the average-SNR selector picks. Selection is
    not a minimum-distortion quantizer, so the gap between the two audits
    the cell approximation behind the bound. Ill-conditioned trials are
    skipped. Raises ValueError, before generating the codebook, when no
    trial is usable or when ``users`` is not a user count of the config.
    """
    config.validate()
    if users not in config.user_counts():
        raise ValueError(f"{users} users is not a user count of the sweep")
    states = draw_trials(config, users, range(config.num_trials))
    states = [state for state in states if state.a_inv is not None]
    if not states:
        raise ValueError(f"all {config.num_trials} trials are ill-conditioned")
    # nearest[b][t, p]: the least distortion of column p over the 2**b prefix, trial t
    nearest = {bits: np.full((len(states), users), np.inf) for bits in config.b_grid}

    def lowering_nearest(blocks):
        """The blocks, each passed on once it has lowered the running minima."""
        start = 0
        for block in blocks:
            for row, state in enumerate(states):
                distortion = cell_distortion(block, state.eigenvectors)
                for bits, least in nearest.items():
                    if start < 1 << bits:
                        prefix = distortion[: (1 << bits) - start].min(axis=0)
                        np.minimum(least[row], prefix, out=least[row])
            yield block
            start += len(block)
            del block, distortion  # released before the stream draws the next block

    blocks = lowering_nearest(codebook_blocks(config, users, max(config.b_grid)))
    choices = select_prefix_codewords(blocks, [state.a_inv for state in states], config.b_grid)
    cell = dict.fromkeys(config.b_grid, 0.0)
    selected = dict.fromkeys(config.b_grid, 0.0)
    for row, (state, choice) in enumerate(zip(states, choices)):
        for bits, (_, q) in choice.items():
            cell[bits] += float(nearest[bits][row].mean())
            selected[bits] += float(aligned_cell_distortion(q, state.eigenvectors).mean())
    usable = len(states)
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
