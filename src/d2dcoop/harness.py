"""Monte Carlo orchestration: trials, sweeps, aggregation, CSV output.

Determinism contract: every trial owns a private generator seeded from
``(master_seed, stream, trial_index)``, so records are bitwise
reproducible. Each channel is drawn and factorised once per
(users, trial) and shared by every grid point of that user count, which
makes curves paired comparisons. The decoding codebook is seeded from
``(master_seed, stream, user_count)`` only, so smaller codebooks are
exact prefixes of bigger ones; with a selection score that does not
depend on the SNR, one streamed pass of the codebook per user count
chooses every trial's codeword for every b and SNR. Every grid point is
then a closed form of a trial's Gram factorisation and chosen codewords.
A user count's trials stay one array axis from :func:`draw_trials`, the
package's only channel draw, to disk: each trial's generator fills its
row of stacked draws, and no per-trial environment object is built; the
closed forms run over the trial and grid axes at once, the records are
columns, the aggregate is one reduction of the same arrays along their
trial axis, and one CSV writer formats each column once.
:func:`run_trial` is the per-point reference.
"""

import dataclasses
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from .bounds import aligned_cell_distortion, cell_distortion, snr_lower_bound_terms
from .channel import analytic_covariance  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import draw_environment  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import gains_from_normals, path_effective_channel, sector_angles
from .channel import inner_precoder  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import sample_channel  # noqa: F401  perfbench/spans.py wraps it by name
from .codebook import ELEMENT_BOUND, codebook_stream, generate_codebook
from .codebook import select_codeword, select_prefix_codewords
from .config import ExperimentConfig
from .linklevel import empirical_snr  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import effective_channel  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import eigen_spectrum, gram_inverse, well_conditioned
from .precoding import noncooperative_baseline_snr, snr_denominators
from .quantization import cooperative_snr, expected_overload, link_variances
from .quantization import quantized_snr  # noqa: F401  perfbench/spans.py wraps it by name

# seed-sequence stream tags keeping trial and codebook draws independent
TRIAL_STREAM = 1
CODEBOOK_STREAM = 2

@dataclass(frozen=True)
class GridPoint:
    """One swept parameter combination."""

    users: int
    bits: int
    snr_db: float
    gamma_db: float | None
    bandwidth_ratio: float | None


@dataclass(frozen=True)
class TrialRecord(GridPoint):
    """Capacities of one Monte Carlo trial at a grid point, after its key fields:
    the row that :func:`run_trial` returns, and the schema of the sweep's record columns."""

    trial: int
    capacity_coop: float | None
    capacity_zf: float | None
    capacity_ideal: float | None
    capacity_bound: float | None
    cond_fail: int
    overload_rate: float | None


TRIAL_FIELDS = tuple(f.name for f in dataclasses.fields(TrialRecord))
# the summary columns: a grid point's key, then the aggregate over its usable trials
SUMMARY_FIELDS = tuple(f.name for f in dataclasses.fields(GridPoint)) + (
    "mean_coop", "sem_coop", "mean_zf", "sem_zf", "mean_ideal", "norm_capacity",
    "num_ok", "num_failed",
)
# the CSV key, config then grid point; each header goes on past a table's grid-point key
CSV_KEY = "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio"
TRIAL_CSV_HEADER = ",".join((CSV_KEY, *TRIAL_FIELDS[5:]))
AGGREGATE_CSV_HEADER = ",".join((CSV_KEY, *SUMMARY_FIELDS[5:]))


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
    axes = (config.user_count_grid, config.b_grid, config.snr_db_grid, *_link_axes(config))
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
    """The codebook of :func:`codebook_for`, streamed one ``BLOCK`` at a time.

    :func:`~d2dcoop.codebook.codebook_stream` on the one codebook generator:
    each block is generated only when the consumer asks for it, into the
    stream's one block store, so a block is valid only until the next is drawn.
    """
    return codebook_stream(users, bits, _codebook_rng(config, users))


@dataclass(frozen=True)
class Trials:
    """The trials of one user count, drawn and factorised once for all its grid points.

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
    """Draw the channels of ``trials`` and factorise their effective Grams.

    The trials run in chunks, as many per chunk as keep the path Gram's
    ``(trials, ceil(M/2), L)`` temporaries within ``ELEMENT_BOUND`` (at
    least one). Each trial's own generator, seeded from ``(master_seed,
    TRIAL_STREAM, trial)``, fills its row of the chunk's ``(T, L)`` uniforms
    and then of its ``(T, 2, L, P)`` normals: the draws that
    :func:`~d2dcoop.channel.draw_environment` and
    :func:`~d2dcoop.channel.path_gains` make, in their order. The sector map,
    the gain scaling, the L x L path Gram route
    (:func:`~d2dcoop.channel.path_effective_channel`) and the Gram
    factorisation then run once on the chunk, and one condition check and
    inverse on all the trials; every row equals, bitwise, its trial's own
    one-trial draw.
    """
    ids = np.array(trials, dtype=int)
    per_chunk = max(1, ELEMENT_BOUND // (-(-config.M // 2) * config.L))
    eigenvalues = np.empty((len(ids), users))
    eigenvectors = np.empty((len(ids), users, users), dtype=complex)
    for first in range(0, len(ids), per_chunk):
        chunk = ids[first : first + per_chunk]
        uniforms = np.empty((len(chunk), config.L))
        normals = np.empty((len(chunk), 2, config.L, users))
        for trial, u, n in zip(chunk.tolist(), uniforms, normals):
            rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
            rng.random(out=u)
            rng.standard_normal(out=n)
        angles = sector_angles(uniforms, config.sector_center, config.sector_spread)
        h_e = path_effective_channel(config.M, angles, gains_from_normals(normals), config.D)
        rows = slice(first, first + len(chunk))
        eigenvalues[rows], eigenvectors[rows] = eigen_spectrum(h_e)
    usable = well_conditioned(eigenvalues)
    a_inv = gram_inverse(eigenvalues[usable], eigenvectors[usable])
    return Trials(ids, eigenvalues, eigenvectors, usable, a_inv)


def evaluate_trials(config: ExperimentConfig, users: int, trials: Trials, choices: dict):
    """Records and summaries of drawn trials at every grid point of ``users``,
    in sweep order: two tables of columns ``{field: list}``, the records over
    :data:`TRIAL_FIELDS`, one row per (point, trial), and the summaries over
    :data:`SUMMARY_FIELDS`, one row per point.

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
    ``2P * 4**(P - 1)`` symbol tails per SNR are too many to stack. One
    :func:`summarize_point` call reduces the trial axis of the usable
    trials' capacities for every point at once.
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
    bound = np.empty((*shape[:2], 1, shape[3])) if users >= 2 else None
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
    # records in sweep order: each point's key once per trial, then the fields
    # over (b, SNR, link, trial), empty (cond_fail 1) at the flagged trials
    ids = trials.ids.tolist()
    points = [p for p in grid_points(config) if p.users == users]
    keys = [[getattr(p, name) for p in points] for name in SUMMARY_FIELDS[:5]]
    columns = [[key for key in axis for _ in ids] for axis in keys]
    fields = np.full((6, *shape[:3], len(ids)), None, dtype=object)
    fields[4] = 1  # cond_fail
    for field, values in zip(fields, (coop, zf, ideal, bound, 0, overload)):
        field[..., trials.usable] = values
    columns += [ids * int(np.prod(shape[:3])), *(field.ravel().tolist() for field in fields)]
    summaries = dict(zip(SUMMARY_FIELDS, keys))
    summaries.update(summarize_point(coop, zf, ideal, len(ids)))
    return dict(zip(TRIAL_FIELDS, columns)), summaries


def run_trial(config: ExperimentConfig, point: GridPoint, trial: int) -> TrialRecord:
    """One trial at one grid point: the per-point reference path of the sweep.

    It chooses from its own whole ``2**b`` codebook with the reference
    :func:`~d2dcoop.codebook.select_codeword` and evaluates a one-point
    grid through the same :func:`evaluate_trials`. The trial is drawn
    first, and an ill-conditioned one generates no codebook.
    """
    one_point = dataclasses.replace(
        config, user_count_grid=[point.users], b_grid=[point.bits], snr_db_grid=[point.snr_db],
        gamma_db_grid=[point.gamma_db], bandwidth_ratio_grid=[point.bandwidth_ratio],
    )
    trials = draw_trials(one_point, point.users, [trial])
    choices = {}
    if trials.usable[0]:
        codebook = codebook_for(config, point.users, point.bits)
        noise_power = 10.0 ** (-point.snr_db / 10.0)
        index, codeword, _ = select_codeword(codebook, trials.a_inv[0], noise_power)
        choices[point.bits] = np.array([index]), codeword[None]
    record, _ = evaluate_trials(one_point, point.users, trials, choices)
    return TrialRecord(*(column[0] for column in record.values()))


def run_experiment(config: ExperimentConfig):
    """Run the full Cartesian sweep; returns (records, summaries), two tables
    of columns ``{field: list}``: the records over :data:`TRIAL_FIELDS` in
    (grid point, trial index) order and the summaries over
    :data:`SUMMARY_FIELDS`, one row per grid point.

    Each user count's trials are drawn once. If one is usable, the count's
    ``2**max(b)`` codebook is then streamed once through selection: each
    block is generated into the stream's one block store and scored against
    every usable trial before the next overwrites it, so the sweep never
    holds the codebook. All the count's trials are then
    evaluated, and summarised, at all of its grid points at once; the
    sweep only joins the two tables across user counts.
    """
    config.validate()
    tables = {name: [] for name in TRIAL_FIELDS}, {name: [] for name in SUMMARY_FIELDS}
    for users in config.user_count_grid:
        trials = draw_trials(config, users, range(config.num_trials))
        choices = {}
        if len(trials.a_inv):
            blocks = codebook_blocks(config, users, max(config.b_grid))
            choices = select_prefix_codewords(blocks, trials.a_inv, config.b_grid)
        for table, columns in zip(tables, evaluate_trials(config, users, trials, choices)):
            for name, column in columns.items():
                table[name].extend(column)
    return tables


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
    if users not in config.user_count_grid:
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


def summarize_point(coop, zf, ideal, num_trials: int) -> dict:
    """The aggregate columns of :data:`SUMMARY_FIELDS` after the grid-point key,
    ``{field: list}`` in C order of the points.

    The last axis of each array holds the capacities of the usable trials,
    U of ``num_trials``, and the leading axes of ``coop`` are the points:
    (b, SNR, link, U) for a user count, (U,) for one point. ``zf`` and
    ``ideal`` broadcast against ``coop`` once reduced, as (SNR, 1, U) or
    (U,). Every point gets ``num_ok`` U and ``num_failed`` T - U; with
    no usable trial the six statistics are None, and with one the
    standard errors are 0.0. Each array must be C-contiguous along its
    last axis: numpy sums a contiguous row pairwise, but the rows of a
    strided view (a boolean mask on the last axis gives one) in another
    order, so the same values would round differently.
    """
    points, usable = coop.shape[:-1], coop.shape[-1]
    size = int(np.prod(points))
    columns = [[None] * size for _ in range(6)]
    if usable:
        mean_coop, mean_zf, mean_ideal = (x.mean(axis=-1) for x in (coop, zf, ideal))
        sem_coop, sem_zf = (
            x.std(axis=-1, ddof=1) / np.sqrt(usable) if usable > 1 else 0.0 for x in (coop, zf)
        )
        stats = (mean_coop, sem_coop, mean_zf, sem_zf, mean_ideal)
        columns[:5] = (np.broadcast_to(x, points).ravel().tolist() for x in stats)
        # every capacity rounds to 0.0 at extreme negative SNR: the ratio is undefined
        columns[5] = [c / i if i > 0.0 else None for c, i in zip(columns[0], columns[4])]
    columns += [[usable] * size, [num_trials - usable] * size]
    return dict(zip(SUMMARY_FIELDS[-len(columns):], columns))


def _cells(values) -> list:
    """CSV cells: ``""`` for None, else ``str``, which is ``repr`` for a float."""
    return ["" if value is None else str(value) for value in values]


def _csv_lines(header: str, config: ExperimentConfig, columns: dict) -> list:
    """``header`` then a line per row of ``columns``, an equal run of rows per grid
    point in :func:`grid_points` order: the point's :data:`CSV_KEY` cells, formatted
    once per point, then the row's own fields, those after the table's grid-point key."""
    own = zip(*(_cells(column) for column in list(columns.values())[5:]))
    rows = [",".join(cells) for cells in own]
    points = list(grid_points(config))
    per_point = len(rows) // len(points)
    lines = [header]
    for i, p in enumerate(points):
        key = (config.figure_preset, config.mode, config.M, p.users, config.D, config.L)
        prefix = ",".join(_cells((*key, p.bits, p.snr_db, p.gamma_db, p.bandwidth_ratio))) + ","
        lines.extend(prefix + row for row in rows[i * per_point : (i + 1) * per_point])
    return lines


def write_outputs(out_dir, config: ExperimentConfig, records, summaries, json_mirror=False):
    """Write trials.csv and aggregate.csv, and on request their JSON mirrors
    (one object per row), from :func:`run_experiment`'s two tables of columns."""
    os.makedirs(out_dir, exist_ok=True)
    tables = (
        ("trials", TRIAL_CSV_HEADER, records),
        ("aggregate", AGGREGATE_CSV_HEADER, summaries),
    )
    written = []
    for suffix in (".csv", ".json") if json_mirror else (".csv",):
        for name, header, columns in tables:
            if suffix == ".csv":
                text = "\n".join(_csv_lines(header, config, columns))
            else:
                rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
                text = json.dumps(rows, indent=1)
            written.append(os.path.join(out_dir, name + suffix))
            with open(written[-1], "w", encoding="utf-8", newline="") as fh:
                fh.write(text + "\n")
    return written
