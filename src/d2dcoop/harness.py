"""Monte Carlo orchestration: trials, sweeps, aggregation, CSV output.

Determinism contract: every trial owns a private generator seeded from
``(master_seed, stream, trial_index)``, so records are bitwise
reproducible. Each channel is drawn and factorised once per (users,
trial) and shared by every grid point of that user count, which makes
curves paired comparisons. The codebook is seeded from ``(master_seed,
stream, user_count)`` only, so smaller codebooks are exact prefixes of
bigger ones and one streamed pass per user count chooses every trial's
codeword for every b and SNR. Every grid point is then a closed form run over
the grid axes and a chunk of trials at once, from :func:`draw_trials`, the only
channel draw, to one float array of records per user count, which :func:`point_rows`
turns into output cells a chunk of rows at a time, each formatted once for both a CSV
row and a JSON mirror object. :func:`run_trial` is the per-point reference.
"""

import contextlib
import dataclasses
import itertools
import operator
import os
from dataclasses import dataclass

import numpy as np

from .bounds import aligned_cell_distortion, cell_distortion, snr_lower_bound_terms
from .channel import analytic_covariance  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import draw_environment  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import gains_from_normals, path_effective_channel, path_temporary_elements
from .channel import sector_angles
from .channel import inner_precoder  # noqa: F401  perfbench/spans.py wraps it by name
from .channel import sample_channel  # noqa: F401  perfbench/spans.py wraps it by name
from .codebook import ELEMENT_BOUND, codebook_stream, generate_codebook
from .codebook import select_codeword, select_prefix_codewords
from .config import ConfigError, ExperimentConfig
from .linklevel import empirical_snr  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import effective_channel  # noqa: F401  perfbench/spans.py wraps it by name
from .precoding import COND_LIMIT, condition_number, eigen_spectrum
from .precoding import gram_inverse, well_conditioned
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
    the row that :func:`run_trial` returns, and the schema of the sweep's trial rows."""

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


def grid_points(config: ExperimentConfig):
    """The deterministic sweep order used for records and CSV rows."""
    return (GridPoint(*key) for key in itertools.product(*config.sweep_axes()))


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

    The trials run in :func:`_chunks` of the path Gram route's temporaries
    (:func:`~d2dcoop.channel.path_temporary_elements` per trial). Each trial's own
    generator, seeded from ``(master_seed, TRIAL_STREAM, trial)``, fills its row of the
    chunk's ``(T, L)`` uniforms and then of its ``(T, 2, L, P)`` normals: the draws that
    :func:`~d2dcoop.channel.draw_environment` and :func:`~d2dcoop.channel.path_gains`
    make, in their order. The sector map, the gain scaling, the L x L path Gram route
    (:func:`~d2dcoop.channel.path_effective_channel`) and the Gram factorisation run
    once per chunk, then one condition check, and the usable trials' inverses run in
    chunks of P x P per trial. Every row equals, bitwise, its trial's own one-trial draw.
    """
    ids = np.array(trials, dtype=int)
    eigenvalues = np.empty((len(ids), users))
    eigenvectors = np.empty((len(ids), users, users), dtype=complex)
    for rows in _chunks(len(ids), path_temporary_elements(config.M, config.L)):
        chunk = ids[rows]
        uniforms = np.empty((len(chunk), config.L))
        normals = np.empty((len(chunk), 2, config.L, users))
        for trial, u, n in zip(chunk.tolist(), uniforms, normals):
            rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
            rng.random(out=u)
            rng.standard_normal(out=n)
        angles = sector_angles(uniforms, config.sector_center, config.sector_spread)
        h_e = path_effective_channel(config.M, angles, gains_from_normals(normals), config.D)
        eigenvalues[rows], eigenvectors[rows] = eigen_spectrum(h_e)
    usable = well_conditioned(eigenvalues)
    at = np.flatnonzero(usable)
    a_inv = np.empty((len(at), users, users), dtype=complex)
    for rows in _chunks(len(at), users * users):
        a_inv[rows] = gram_inverse(eigenvalues[at[rows]], eigenvectors[at[rows]])
    return Trials(ids, eigenvalues, eigenvectors, usable, a_inv)


@dataclass(frozen=True)
class CountResult:
    """One user count's sweep: ``values`` (5, N, T) holds the capacity_coop,
    capacity_zf, capacity_ideal, capacity_bound and overload_rate of its N
    grid points, in sweep order, and T ``trials``, NaN in every empty cell (a
    flagged trial's, a bound below two users); ``stats`` (6, N) holds each
    point's :func:`summarize_point` statistics."""

    trials: Trials
    values: np.ndarray
    stats: np.ndarray

    @property
    def num_failed(self) -> int:
        return len(self.trials.ids) - len(self.trials.a_inv)


def evaluate_trials(config: ExperimentConfig, users: int, trials: Trials, choices):
    """The :class:`CountResult` of drawn trials at every grid point of ``users``.

    ``choices`` yields ``(b, (indices, codewords))`` per b, the codewords chosen for the
    usable trials, each read before the next is asked for. Each capacity is a closed form
    on an (S, 1, 1) column of noise powers and :func:`_chunks` of usable trials, (S, K, P)
    SNRs each over the K links, written straight into the records: zero-forcing and
    perfect cooperation first, then, per b as it comes, cooperative under the sharing mode
    (one :func:`~d2dcoop.quantization.cooperative_snr` call over the (SNR, link) grid; a
    zero-bit link takes the zero-forcing capacity) and, from two users on, the lower bound.
    Only the overload audit runs per (trial, b): its ``2P * 4**(P - 1)`` tails per SNR are
    too many to stack. Then, the running choices released, :func:`summarize_point` reduces
    C-contiguous copies of the usable trials' capacities, a chunk of points at a time.
    """
    values = _records(config, users, trials, choices).reshape(5, -1, len(trials.ids))
    stats = np.empty((6, values.shape[1]))
    for points in _chunks(values.shape[1], 3 * len(trials.ids)):
        stats[:, points] = summarize_point(*np.compress(trials.usable, values[:3, points], axis=-1))
    return CountResult(trials, values, stats)


def _records(config: ExperimentConfig, users: int, trials: Trials, choices) -> np.ndarray:
    """The (5, B, S, K, T) records of :func:`evaluate_trials`; its return frees the choices."""
    noise = np.array([10.0 ** (-snr_db / 10.0) for snr_db in config.snr_db_grid])
    column = noise[:, None, None]  # (S, 1, 1) against the (trials, P) rows
    variances, carries = np.zeros(1), np.ones(1, dtype=bool)  # ideal sharing: one noiseless link
    if config.mode == "quantized-rsi":
        grids = config.gamma_db_grid, config.bandwidth_ratio_grid
        variances, carries = link_variances(*grids, config.tau)
    audit = config.mode == "quantized-rsi" and carries.any()
    values = np.full((5, len(config.b_grid), len(noise), len(variances), len(trials.ids)), np.nan)
    coop, zf, ideal, bound, overload = values
    usable = np.flatnonzero(trials.usable)
    overload[..., usable] = 0.0  # a usable trial's rate where no audit runs
    chunks = _chunks(len(usable), len(noise) * len(variances) * users)
    for rows in chunks:
        at = usable[rows]
        zf[..., at] = capacity(noncooperative_baseline_snr(trials.a_inv[rows], column))[:, None]
        ideal[..., at] = capacity(trials.eigenvalues[at] / column)[:, None]
    for bits, (_, decoding) in choices:
        i = config.b_grid.index(bits)
        for rows in chunks:
            at, a_inv, q = usable[rows], trials.a_inv[rows], decoding[rows]
            d = snr_denominators(q, a_inv)
            snrs = cooperative_snr(q, d, column[..., None], variances[:, None, None])
            coop[i][..., at] = np.where(carries[:, None], capacity(snrs), zf[i][..., at])
            if audit:
                for trial, q_t, d_t in zip(at.tolist(), q, d):
                    rates = expected_overload(q_t, d_t, noise[:, None], config.tau)
                    overload[i, ..., trial] = np.where(carries, rates, 0.0)
            if users >= 2:
                terms = snr_lower_bound_terms(trials.eigenvalues[at], bits, column)
                bound[i][..., at] = capacity(terms)[:, None]
    return values


def run_trial(config: ExperimentConfig, point: GridPoint, trial: int) -> TrialRecord:
    """One trial at one grid point: the per-point reference path of the sweep.

    It chooses from its own whole ``2**b`` codebook with the reference
    :func:`~d2dcoop.codebook.select_codeword` and evaluates a one-point grid
    through the same :func:`evaluate_trials`, whose empty cells it returns as
    None. An ill-conditioned trial generates no codebook and has ``cond_fail`` 1.
    """
    one_point = dataclasses.replace(
        config, user_count_grid=[point.users], b_grid=[point.bits], snr_db_grid=[point.snr_db],
        gamma_db_grid=[point.gamma_db], bandwidth_ratio_grid=[point.bandwidth_ratio],
    )
    trials = draw_trials(one_point, point.users, [trial])
    choices = []
    if trials.usable[0]:
        codebook = codebook_for(config, point.users, point.bits)
        noise_power = 10.0 ** (-point.snr_db / 10.0)
        index, codeword, _ = select_codeword(codebook, trials.a_inv[0], noise_power)
        choices.append((point.bits, (np.array([index]), codeword[None])))
    values = evaluate_trials(one_point, point.users, trials, choices).values[:, 0, 0].tolist()
    coop, zf, ideal, bound, overload = (None if value != value else value for value in values)
    key, cond_fail = dataclasses.astuple(next(grid_points(one_point))), int(not trials.usable[0])
    return TrialRecord(*key, trial, coop, zf, ideal, bound, cond_fail, overload)


def sweep_trials(config: ExperimentConfig, users: int) -> Trials:
    """:func:`draw_trials` of the sweep's trials of ``users``; raises
    :class:`ConfigError`, naming the largest condition number, when none is usable."""
    trials = draw_trials(config, users, range(config.num_trials))
    if not len(trials.a_inv):
        worst = condition_number(trials.eigenvalues).max()
        raise ConfigError(
            f"all {config.num_trials} trials of {users} users are ill-conditioned: "
            f"the largest condition number is {worst:.3e}, over the limit {COND_LIMIT:.1e}"
        )
    return trials


def run_experiment(config: ExperimentConfig) -> list:
    """Run the full Cartesian sweep: a :class:`CountResult` per user count.

    Every count's trials are drawn first: one with no usable trial raises
    :class:`~d2dcoop.config.ConfigError` before any codebook. Each count's
    ``2**max(b)`` codebook is then streamed once through selection, a block at
    a time, which waits at each ``2**b`` while b's grid points are evaluated.
    """
    config.validate()
    drawn = {users: sweep_trials(config, users) for users in config.user_count_grid}
    results = []
    for users, trials in drawn.items():
        blocks = codebook_blocks(config, users, max(config.b_grid))
        choices = select_prefix_codewords(blocks, trials.a_inv, config.b_grid)
        results.append(evaluate_trials(config, users, trials, choices))
    return results


def cell_distortion_audit(config: ExperimentConfig, users: int) -> dict:
    """Measured quantization-cell distortion of the sweep's codebook, per b.

    Walks the sweep's own trials and codebook stream. The one pass of
    :func:`select_prefix_codewords` over the ``2**max(b_grid)`` stream chooses for
    every usable trial and b, read as each b is yielded; next to it, each block
    lowers every trial's running prefix minimum of
    :func:`~d2dcoop.bounds.cell_distortion`, one per b, before selection scores it,
    so the audit, like the sweep, holds one block at a time. Returns ``{b: (cell,
    selected)}``: ``cell`` is the mean squared sine between eigenvector p and the
    nearest p-th codeword column of the ``2**b`` prefix, the raw pairing (column p
    against eigenvector p) that ``2**(-b/(P-1))`` models; ``selected`` is the mean
    :func:`~d2dcoop.bounds.aligned_cell_distortion`, which resolves the pairing, of
    the codeword the average-SNR selector picks. Selection is not a
    minimum-distortion quantizer, so the gap between the two audits the cell
    approximation behind the bound. Ill-conditioned trials are skipped. Raises,
    before generating the codebook, the ConfigError of :func:`sweep_trials` when no
    trial is usable, and ValueError when ``users`` is not a user count of the
    config.
    """
    config.validate()
    if users not in config.user_count_grid:
        raise ValueError(f"{users} users is not a user count of the sweep")
    trials = sweep_trials(config, users)
    eigenvectors = trials.eigenvectors[trials.usable]
    usable = len(eigenvectors)
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
    for bits, (_, codewords) in choices:
        cell = selected = 0.0
        for least, q, u in zip(nearest[bits], codewords, eigenvectors):
            cell += float(least.mean())
            selected += float(aligned_cell_distortion(q, u).mean())
        audit[bits] = cell / usable, selected / usable
    return audit


def summarize_point(coop, zf, ideal) -> np.ndarray:
    """The six statistics of :data:`SUMMARY_FIELDS` from ``mean_coop`` to
    ``norm_capacity``: a float (6, *points) array, NaN where undefined.

    The last axis of each array holds the U usable trials' capacities and the
    leading axes the points; with U = 1 the standard errors are 0.0. Each
    array must be C-contiguous along its last axis: numpy sums a contiguous
    row pairwise but a strided one (a boolean mask on the last axis gives
    one) in another order, so the same values would round differently.
    """
    points, usable = coop.shape[:-1], coop.shape[-1]
    stats = np.full((6, *points), np.nan)
    if usable:
        stats[0], stats[2], stats[4] = (x.mean(axis=-1) for x in (coop, zf, ideal))
        sems = (x.std(axis=-1, ddof=1) / np.sqrt(usable) if usable > 1 else 0.0 for x in (coop, zf))
        stats[1], stats[3] = sems
        # 0/0 once every capacity rounds to 0.0 at extreme negative SNR; a view even for one point
        np.divide(stats[0], stats[4], out=stats[5, ...], where=stats[4] > 0.0)
    return stats


def point_rows(config: ExperimentConfig, results):
    """``(key, columns, summaries)`` output cells per chunk of a grid point's trial rows,
    in sweep order: the point's :class:`GridPoint` fields, the chunk's rows as columns (a
    list per field of :data:`TRIAL_FIELDS` after the key) and its aggregate rows: the
    point's :data:`SUMMARY_FIELDS` after the key on its first chunk, none on the others.
    A chunk holds as many rows as keep the cells they write, CSV and mirror, within
    ``ELEMENT_BOUND``, and leaves numpy in one ``tolist`` per field; a count's ``trial``,
    ``cond_fail``, ``num_ok`` and ``num_failed`` cells are formatted once for its points."""
    keys = map(operator.attrgetter(*TRIAL_FIELDS[:5]), grid_points(config))  # astuple: 4x slower
    for result in results:
        ids = _cells(result.trials.ids.tolist())
        cond_fail = [("1", "0")[ok] for ok in result.trials.usable.tolist()]  # two shared cells
        counts = _cells((len(result.trials.a_inv), result.num_failed))
        for values, stats in zip(result.values.swapaxes(0, 1), result.stats.T):
            key, summaries = _cells(next(keys)), [_cells(stats.tolist()) + counts]
            for rows in _chunks(len(ids), TRIAL_CSV_HEADER.count(",") + 1 + len(TRIAL_FIELDS)):
                coop, zf, ideal, bound, overload = map(_cells, values[:, rows].tolist())
                yield key, [ids[rows], coop, zf, ideal, bound, cond_fail[rows], overload], summaries
                summaries = []


def _chunks(count: int, elements_per_item: int) -> list:
    """Slices of ``range(count)``, each as many items as keep ``elements_per_item``
    elements an item within ``ELEMENT_BOUND``, and at least one."""
    step = max(1, ELEMENT_BOUND // elements_per_item)
    return [slice(first, first + step) for first in range(0, count, step)]


def _cells(values) -> list:
    """Output cells: ``""`` for None and NaN, else ``str``, which is ``repr`` for a float."""
    return ["" if value is None or value != value else str(value) for value in values]


def write_outputs(out_dir, config: ExperimentConfig, results, json_mirror=False):
    """Write trials.csv and aggregate.csv, and on request their JSON mirrors
    (one object per row), from one pass of :func:`point_rows`; returns their paths.

    Each chunk of :func:`point_rows` is written as one text per table, so no grid point's
    text is held whole. A CSV row joins its :data:`CSV_KEY` cells and its own; a mirror
    object fills its table's layout with them, ``null`` for ``""``, so a mirror is
    ``json.dumps(rows, indent=1)``: the values are ints, finite floats and None, and
    ``json`` writes a float's ``repr``.
    """
    os.makedirs(out_dir, exist_ok=True)
    names = ["trials.csv", "aggregate.csv"] + ["trials.json", "aggregate.json"] * json_mirror
    written = [os.path.join(out_dir, name) for name in names]
    # one object of json.dumps(rows, indent=1) per table, a %s per field
    layouts = [" {\n" + ",\n".join(f'  "{name}": %s' for name in fields) + "\n }"
               for fields in (TRIAL_FIELDS, SUMMARY_FIELDS)]
    head, tail = _cells((config.figure_preset, config.mode, config.M)), _cells((config.D, config.L))
    with contextlib.ExitStack() as stack:
        trials_csv, aggregate_csv, *mirrors = (
            stack.enter_context(open(path, "w", encoding="utf-8", newline="")) for path in written
        )
        trials_csv.write(TRIAL_CSV_HEADER + "\n")
        aggregate_csv.write(AGGREGATE_CSV_HEADER + "\n")
        opening = "[\n"  # before a mirror's first object, ",\n" before each other
        for key_cells, columns, summaries in point_rows(config, results):
            users, *point = key_cells
            prefix = ",".join((*head, users, *tail, *point)) + ","
            for table, rows in zip((trials_csv, aggregate_csv), (zip(*columns), summaries)):
                table.write("".join([prefix + ",".join(row) + "\n" for row in rows]))
            for mirror, layout, rows in zip(mirrors, layouts, (zip(*columns), summaries)):
                objects = [layout % tuple(c or "null" for c in (*key_cells, *row)) for row in rows]
                if objects:
                    mirror.writelines([opening, ",\n".join(objects)])
            opening = ",\n"
        for mirror in mirrors:
            mirror.write("\n]\n")
    return written
