"""Monte Carlo orchestration: trials, sweeps, aggregation, CSV output.

Determinism contract: every trial owns a private generator seeded from
``(master_seed, stream, trial_index)``, so records are bitwise
reproducible. Each channel is drawn and factorised once per
(users, trial) and shared by every grid point of that user count, which
makes curves paired comparisons. The decoding codebook is seeded from
``(master_seed, stream, user_count)`` only, never from the bit count, so
smaller codebooks are exact prefixes of bigger ones. That nesting, and a
selection score that does not depend on the SNR, let one pass of the
codebook per user count choose every trial's codeword for every b and
SNR; the sweep streams that pass block by block, never holding the
whole codebook, and scores each block against every trial at once by
one real GEMM. After the channel draw and the choice, a trial is its
Gram factorisation and chosen codewords alone, and every grid point is
a closed form of them. Past the per-trial random draws, a user count's
trials stay one array axis up to the records: :class:`Trials` stacks
their factorisations, selection returns one stack of chosen codewords
per b, and :func:`evaluate_trials` runs each closed form over the trial
and grid axes (b, SNR, gamma, bandwidth ratio) at once. The overload
audit alone runs per (trial, b), on a column of noise powers that
covers every SNR, and serves every link that carries bits; ideal
sharing is the noiseless link of the same cooperative-SNR formula.
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
class Trials:
    """The trials of one user count, drawn and factorised once.

    Everything here depends only on (users, trial), so every grid point
    of that user count reuses it, and nothing else of the draw is kept:
    every grid point is a closed form of these P x P quantities alone.
    Row ``t`` of ``eigenvalues`` (T, P) and ``eigenvectors`` (T, P, P) is
    the one factorisation of trial ``ids[t]``'s effective Gram; ``usable``
    (T,) marks the well-conditioned trials and ``a_inv`` (U, P, P) holds
    their Gram inverses, in trial order.
    """

    ids: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    usable: np.ndarray
    a_inv: np.ndarray


def draw_trials(config: ExperimentConfig, users: int, trials) -> Trials:
    """Draw the channels of ``trials`` and factorise their effective channels.

    Each trial draws its path angles and gains from its own generator,
    seeded from ``(master_seed, TRIAL_STREAM, trial)``. The deterministic
    chain (steering, ray sum, inner precoder, effective channel, Gram
    factorisation) then runs once per ``DRAW_CHUNK`` trials on the
    stacked draws, and one condition check and inverse run on all of
    them; every row equals, bitwise, its trial's own one-trial draw.
    """
    ids = np.array(trials, dtype=int)
    spectra = []
    for first in range(0, len(ids), DRAW_CHUNK):
        angles, gains = [], []
        for trial in ids[first : first + DRAW_CHUNK].tolist():
            rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
            env = draw_environment(
                config.M, config.L, rng,
                sector_center=config.sector_center, sector_spread=config.sector_spread,
            )
            angles.append(env.path_angles)
            gains.append(path_gains(env, users, rng))
        env = ScatteringEnvironment(config.M, np.stack(angles))
        h = ray_sum(env, np.stack(gains))
        spectra.append(eigen_spectrum(effective_channel(inner_precoder(env, config.D), h)))
    eigenvalues, eigenvectors = (np.concatenate(arrays) for arrays in zip(*spectra))
    usable = well_conditioned(eigenvalues)
    a_inv = gram_inverse(eigenvalues[usable], eigenvectors[usable])
    return Trials(ids, eigenvalues, eigenvectors, usable, a_inv)


def evaluate_trials(config: ExperimentConfig, users: int, trials: Trials, choices: dict) -> list:
    """Records of drawn trials at every grid point of ``users``, in sweep order.

    ``choices`` maps every b of the grid to the ``(indices, codewords)``
    chosen for the usable trials, and is empty when no trial is usable;
    an ill-conditioned trial yields flagged records with empty
    capacities. Per point: the cooperative capacity under the configured
    sharing mode, the plain zero-forcing baseline, the perfect-cooperation
    capacity and (for two or more users) the analytic lower-bound
    capacity, each a closed form of a trial's factorisation and its chosen
    codewords. The grid axes (b, SNR, link) and the usable trials are
    array axes: each closed form runs once, or once per b, on an (S, 1, 1)
    column of noise powers against every usable trial. The cooperative
    SNR is one :func:`~d2dcoop.quantization.cooperative_snr` call per b
    over the (SNR, link) grid of link variances, ideal sharing being one
    noiseless link; a link that carries no bits takes the zero-forcing
    capacity. Only the overload audit runs per (trial, b): its
    ``2P * 4**(P - 1)`` symbol tails per SNR are too many to stack.
    """
    gammas, ratios = _link_axes(config)
    a_inv, eigenvalues = trials.a_inv, trials.eigenvalues[trials.usable]
    noise = np.array([10.0 ** (-snr_db / 10.0) for snr_db in config.snr_db_grid])
    column = noise[:, None, None]  # (S, 1, 1) against the (U, P) rows
    variances, carries = np.zeros(1), np.ones(1, dtype=bool)  # ideal sharing: one noiseless link
    if config.mode == "quantized-rsi":
        variances, carries = link_variances(gammas, ratios, config.tau)
    audit = config.mode == "quantized-rsi" and carries.any()
    shape = (len(config.b_grid), len(noise), len(variances), len(a_inv))
    coop, overload = np.empty(shape), np.zeros(shape)
    bound = np.empty((*shape[:2], 1, shape[3])) if users >= 2 else np.array(None)
    zf = capacity(noncooperative_baseline_snr(a_inv, column))[:, None]
    ideal = capacity(eigenvalues / column)[:, None]
    for bits, (_, decoding) in choices.items():
        i = config.b_grid.index(bits)
        d = snr_denominators(decoding, a_inv)
        snrs = cooperative_snr(decoding, d, column[..., None], variances[:, None, None])
        coop[i] = np.where(carries[:, None], capacity(snrs), zf)
        if audit:
            for row, (q, d_row) in enumerate(zip(decoding, d)):
                rates = expected_overload(q, d_row, noise[:, None], config.tau)
                overload[i, ..., row] = np.where(carries, rates, 0.0)
        if users >= 2:
            bound[i] = capacity(snr_lower_bound_terms(eigenvalues, bits, column))[:, None]
    # the usable trials' fields, capacity_coop to overload_rate, in sweep order
    columns = (coop, zf, ideal, bound, np.array(0), overload)
    values = zip(*(np.broadcast_to(c, shape).ravel().tolist() for c in columns))
    failed = (None, None, None, None, 1, None)
    keys = itertools.product(config.b_grid, config.snr_db_grid, gammas, ratios)
    ids = list(zip(trials.ids.tolist(), trials.usable.tolist()))
    return [
        TrialRecord(users, *key, trial, *(next(values) if ok else failed))
        for key in keys
        for trial, ok in ids
    ]


def run_trial(config: ExperimentConfig, point: GridPoint, trial: int) -> TrialRecord:
    """One trial at one grid point: the per-point reference path of the sweep.

    It chooses from its own whole ``2**b`` codebook with the reference
    :func:`~d2dcoop.codebook.select_codeword` and evaluates a one-point
    grid through the same :func:`evaluate_trials`. The trial is drawn
    first, and an ill-conditioned one generates no codebook.
    """
    one_point = dataclasses.replace(
        config, b_grid=[point.bits], snr_db_grid=[point.snr_db],
        gamma_db_grid=[point.gamma_db], bandwidth_ratio_grid=[point.bandwidth_ratio],
    )
    trials = draw_trials(one_point, point.users, [trial])
    choices = {}
    if trials.usable[0]:
        codebook = codebook_for(config, point.users, point.bits)
        noise_power = 10.0 ** (-point.snr_db / 10.0)
        index, codeword, _ = select_codeword(codebook, trials.a_inv[0], noise_power)
        choices[point.bits] = np.array([index]), codeword[None]
    return evaluate_trials(one_point, point.users, trials, choices)[0]


def run_experiment(config: ExperimentConfig):
    """Run the full Cartesian sweep; returns (records, summaries).

    Records come in (grid point, trial index) order. Each user count's
    trials are drawn once. If one is usable, the count's ``2**max(b)``
    codebook is then streamed once through selection: each block is
    generated, scored against every usable trial and dropped, so the
    sweep holds one block and the chosen codewords, never the codebook.
    All the count's trials are then evaluated at all of its grid points
    at once.
    """
    config.validate()
    records: list[TrialRecord] = []
    for users in config.user_counts():
        trials = draw_trials(config, users, range(config.num_trials))
        choices = {}
        if len(trials.a_inv):
            blocks = codebook_blocks(config, users, max(config.b_grid))
            choices = select_prefix_codewords(blocks, trials.a_inv, config.b_grid)
        records.extend(evaluate_trials(config, users, trials, choices))
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
    trials = draw_trials(config, users, range(config.num_trials))
    eigenvectors = trials.eigenvectors[trials.usable]
    usable = len(eigenvectors)
    if not usable:
        raise ValueError(f"all {config.num_trials} trials are ill-conditioned")
    # nearest[b][t, p]: the least distortion of column p over the 2**b prefix, usable trial t
    nearest = {bits: np.full((usable, users), np.inf) for bits in config.b_grid}

    def lowering_nearest(blocks):
        """The blocks, each passed on once it has lowered the running minima."""
        start = 0
        for block in blocks:
            for row, u in enumerate(eigenvectors):
                distortion = cell_distortion(block, u)
                for bits, least in nearest.items():
                    if start < 1 << bits:
                        prefix = distortion[: (1 << bits) - start].min(axis=0)
                        np.minimum(least[row], prefix, out=least[row])
            yield block
            start += len(block)
            del block, distortion  # released before the stream draws the next block

    blocks = lowering_nearest(codebook_blocks(config, users, max(config.b_grid)))
    choices = select_prefix_codewords(blocks, trials.a_inv, config.b_grid)
    audit = {}
    for bits, (_, codewords) in choices.items():
        cell = selected = 0.0
        for least, q, u in zip(nearest[bits], codewords, eigenvectors):
            cell += float(least.mean())
            selected += float(aligned_cell_distortion(q, u).mean())
        audit[bits] = cell / usable, selected / usable
    return audit


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
