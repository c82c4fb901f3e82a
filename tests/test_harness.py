import dataclasses
import itertools
import tempfile
import tracemalloc
import warnings
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import collect_choices, columns
from d2dcoop import (
    PRESET_NAMES,
    ConfigError,
    CooperationLink,
    ExperimentConfig,
    aligned_cell_distortion,
    bits_from_bandwidth,
    capacity,
    cell_distortion,
    cell_distortion_audit,
    draw_environment,
    effective_channel,
    gram,
    inner_precoder,
    preset_config,
    quantized_snr,
    run_experiment,
    run_trial,
    select_codeword,
    snr_denominators,
)
from d2dcoop import codebook as codebook_module
from d2dcoop import harness
from d2dcoop.channel import path_effective_channel, path_gains, path_temporary_elements, ray_sum
from d2dcoop.codebook import BLOCK, ELEMENT_BOUND, prefix_parts
from d2dcoop.codebook import select_prefix_codewords
from d2dcoop.harness import (
    AGGREGATE_CSV_HEADER,
    SUMMARY_FIELDS,
    TRIAL_CSV_HEADER,
    TRIAL_FIELDS,
    TRIAL_STREAM,
    GridPoint,
    codebook_blocks,
    codebook_for,
    draw_trials,
    grid_points,
    point_rows,
    summarize_point,
    write_outputs,
)
from d2dcoop.precoding import COND_LIMIT, condition_number


def small_config(**overrides):
    base = dict(
        M=16,
        L=8,
        D=6,
        user_count_grid=[4],
        snr_db_grid=[-5.0, 0.0],
        b_grid=[2, 3],
        num_trials=5,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@st.composite
def small_sweeps(draw):
    """Random small configs in either sharing mode, with up to two b and SNR values.

    The narrow sector leaves about a third of the four-user channels
    ill-conditioned, so usable and flagged trials mix.
    """

    def grid(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))

    overrides = dict(
        user_count_grid=grid([1, 2, 3, 4]),
        b_grid=grid([0, 1, 2, 3, 4]),
        snr_db_grid=grid([-10.0, -5.0, 0.0, 10.0]),
        num_trials=2,
        master_seed=draw(st.integers(0, 2**32 - 1)),
        sector_spread=draw(st.sampled_from([np.pi, 0.01])),
    )
    if draw(st.booleans()):
        overrides.update(
            mode="quantized-rsi",
            tau=draw(st.sampled_from([1.0, 30.0])),
            gamma_db_grid=grid([0.0, 10.0]),
            bandwidth_ratio_grid=grid([0.5, 1.0, 2.0, 4.0]),
        )
    return small_config(**overrides)


def per_point_reference(config):
    return [
        run_trial(config, point, trial)
        for point in grid_points(config)
        for trial in range(config.num_trials)
    ]


def all_counts_usable(config):
    """Whether every user count of ``config`` has a usable trial, as a sweep requires."""
    return all(
        draw_trials(config, users, range(config.num_trials)).usable.any()
        for users in config.user_count_grid
    )


def as_columns(rows):
    """``run_trial`` rows as the ``{field: list}`` records table of ``conftest.columns``."""
    return {name: [getattr(r, name) for r in rows] for name in TRIAL_FIELDS}


def csv_cell(value):
    if value is None:
        return ""
    return repr(value) if isinstance(value, float) else str(value)


def spy_codebooks(monkeypatch):
    """Record every codebook the harness generates from now on.

    Each entry is (entry point, users, bits): ``codebook_blocks``, the
    sweep's stream, or ``codebook_for``, the whole array that the
    per-point reference and the audit hold.
    """
    generated = []

    def spy(entry):
        def wrapper(config, users, bits):
            generated.append((entry.__name__, users, bits))
            return entry(config, users, bits)

        monkeypatch.setattr(harness, entry.__name__, wrapper)

    spy(codebook_blocks)
    spy(codebook_for)
    return generated


def oracle_draws(config, users, trials):
    """Each trial's environment and gains, one environment at a time, through
    :func:`draw_environment` and :func:`path_gains` on the trial's own generator."""
    for trial in trials:
        rng = np.random.default_rng([config.master_seed, TRIAL_STREAM, trial])
        env = draw_environment(
            config.M, config.L, rng,
            sector_center=config.sector_center, sector_spread=config.sector_spread,
        )
        yield env, path_gains(env, users, rng)


def oracle_grams(config, users, trials):
    """The effective Grams of ``trials`` through the oracle chain over the M
    antennas, one environment at a time, from the draws that :func:`draw_trials` makes."""
    return [
        (env, gram(effective_channel(inner_precoder(env, config.D), ray_sum(env, gains))))
        for env, gains in oracle_draws(config, users, trials)
    ]


def chunk_budget(config, trials):
    """An ``ELEMENT_BOUND`` for the draw that puts ``trials`` trials of ``config`` in
    each draw chunk, short of the next multiple so that the chunk size rounds down."""
    per_trial = path_temporary_elements(config.M, config.L)
    return patch.object(harness, "ELEMENT_BOUND", (trials + 1) * per_trial - 1)


def trial_bytes(trials, row):
    """Row ``row`` of drawn ``trials``: id, factorisation and Gram inverse (None if unusable)."""
    a_inv = None
    if trials.usable[row]:
        a_inv = trials.a_inv[np.count_nonzero(trials.usable[:row])].tobytes()
    return (
        int(trials.ids[row]), trials.eigenvalues[row].tobytes(),
        trials.eigenvectors[row].tobytes(), a_inv,
    )


@st.composite
def draw_configs(draw):
    """Random array, path, subspace and user counts (P <= D <= min(M, L)),
    scattering sectors from point-like to the half space, and seeds."""
    M, L = draw(st.integers(1, 64)), draw(st.integers(1, 24))
    D = draw(st.integers(1, min(M, L)))
    return ExperimentConfig(
        M=M,
        L=L,
        D=D,
        user_count_grid=[draw(st.integers(1, D))],
        sector_center=draw(st.floats(-1.0, 1.0)),
        sector_spread=10.0 ** draw(st.floats(-9.0, float(np.log10(np.pi)))),
        master_seed=draw(st.integers(0, 2**32 - 1)),
    )


def assert_overload_shared_across_links(records):
    """Each (users, trial, b, SNR) has one overload rate over all links that carry bits."""
    rates = {}
    names = ("users", "trial", "bits", "snr_db", "gamma_db", "bandwidth_ratio", "cond_fail")
    rows = zip(*(records[name] for name in names), records["overload_rate"])
    for users, trial, bits, snr_db, gamma_db, ratio, cond_fail, rate in rows:
        if cond_fail or gamma_db is None:
            continue
        link = CooperationLink(ratio, 10.0 ** (gamma_db / 10.0))
        if bits_from_bandwidth(link) > 0:
            rates.setdefault((users, trial, bits, snr_db), set()).add(rate)
    assert all(len(values) == 1 for values in rates.values())


class TestCapacity:
    def test_zero_snr_zero_rate(self):
        assert capacity([0.0, 0.0]) == 0.0

    def test_unit_snrs(self):
        assert capacity([1.0, 1.0, 1.0, 1.0]) == pytest.approx(4.0)

    def test_ideal_case_arithmetic(self):
        assert capacity([4.0, 2.0, 1.0, 1.0]) == pytest.approx(5.906890595608518)
        # a stack sums over its last axis, bitwise as row-by-row calls do
        snrs = np.random.default_rng(2).exponential(size=(5, 4))
        assert capacity(snrs).tolist() == [capacity(row) for row in snrs]

    def test_rejects_negative_or_nan(self):
        with pytest.raises(ValueError):
            capacity([1.0, -0.1])
        with pytest.raises(ValueError):
            capacity([np.nan])
        with pytest.raises(ValueError, match="finite and nonnegative"):
            capacity([[1.0, 2.0], [0.5, -0.1]])


class TestGridPoints:
    def test_ideal_mode_skips_link_grids(self):
        points = list(grid_points(small_config()))
        assert len(points) == 4
        assert all(p.gamma_db is None and p.bandwidth_ratio is None for p in points)

    def test_quantized_mode_full_cartesian(self):
        config = small_config(
            mode="quantized-rsi",
            gamma_db_grid=[0.0, 10.0],
            bandwidth_ratio_grid=[1.0, 2.0, 4.0],
        )
        points = list(grid_points(config))
        assert len(points) == 2 * 2 * 2 * 3

    def test_user_count_sweep(self):
        config = small_config(user_count_grid=[3, 4])
        assert len(list(grid_points(config))) == 8


class TestRunTrial:
    def test_bitwise_deterministic(self):
        config = small_config()
        point = next(iter(grid_points(config)))
        a = run_trial(config, point, 3)
        b = run_trial(config, point, 3)
        assert a == b

    def test_capacity_ordering_invariants(self):
        config = small_config(num_trials=1)
        for point in grid_points(config):
            for trial in range(6):
                record = run_trial(config, point, trial)
                assert record.cond_fail == 0
                assert 0.0 <= record.capacity_coop <= record.capacity_ideal + 1e-9
                assert 0.0 <= record.capacity_zf <= record.capacity_ideal + 1e-9
                assert record.capacity_bound <= record.capacity_ideal + 1e-9

    def test_same_trial_same_channel_across_points(self):
        # the ideal-cooperation capacity is a pure channel statistic, so a
        # shared trial index must reproduce it across the b grid
        config = small_config()
        points = list(grid_points(config))
        p2, p3 = points[0], points[2]
        assert p2.snr_db == p3.snr_db and p2.bits != p3.bits
        a = run_trial(config, p2, 4)
        b = run_trial(config, p3, 4)
        assert a.capacity_ideal == b.capacity_ideal
        assert a.capacity_zf == b.capacity_zf

    def test_quantized_fallback_equals_baseline(self):
        config = small_config(
            mode="quantized-rsi",
            gamma_db_grid=[0.0],
            bandwidth_ratio_grid=[0.5],
        )
        point = next(iter(grid_points(config)))
        record = run_trial(config, point, 0)
        assert record.capacity_coop == record.capacity_zf
        assert record.overload_rate == 0.0

    def test_quantized_trial_records_overload(self):
        config = small_config(
            mode="quantized-rsi",
            gamma_db_grid=[10.0],
            bandwidth_ratio_grid=[2.0],
        )
        point = next(iter(grid_points(config)))
        record = run_trial(config, point, 0)
        assert record.overload_rate is not None
        assert 0.0 <= record.overload_rate < 1e-3

    def test_point_its_config_cannot_run_is_rejected(self):
        # the one-point config is checked as any config is: four users on a
        # two-dimensional effective channel cannot be zero-forced
        config = small_config(D=2, user_count_grid=[2])
        with pytest.raises(ConfigError, match="D=2 is below the largest user count 4"):
            run_trial(config, GridPoint(4, 2, -5.0, None, None), 0)

    def test_makes_no_summary(self, monkeypatch):
        # the per-point reference returns its records; only the writer summarizes
        calls = []

        def spy(*args):
            calls.append(args)
            return summarize_point(*args)

        monkeypatch.setattr(harness, "summarize_point", spy)
        config = small_config()
        record = run_trial(config, next(iter(grid_points(config))), 0)
        assert record.capacity_coop is not None
        assert calls == []


class TestDrawTrials:
    @settings(deadline=None, max_examples=20)
    @given(draw_configs(), st.integers(2, 4))
    def test_stacked_draw_equals_one_trial_draws(self, config, size):
        # a small draw budget splits the trials into chunks of ``size``, the
        # last one short; across the chunk edges every trial must be,
        # bitwise, its own one-trial draw
        (users,) = config.user_count_grid
        with chunk_budget(config, size):
            trials = draw_trials(config, users, range(3 * size - 1))
        for trial in range(3 * size - 1):
            one = draw_trials(config, users, [trial])
            assert trial_bytes(one, 0) == trial_bytes(trials, trial)

    @settings(deadline=None, max_examples=50)
    @given(draw_configs(), st.integers(1, 3))
    def test_stacked_draws_read_each_generator_as_oracle_chain(self, config, size):
        # the sweep fills stacked arrays from each trial's generator; its
        # angles and gains must be, bitwise, those that draw_environment and
        # path_gains draw from the same generator, in the same order
        (users,) = config.user_count_grid
        seen = []

        def spy(num_antennas, angles, gains, dim):
            seen.append((angles.copy(), gains.copy()))
            return path_effective_channel(num_antennas, angles, gains, dim)

        with chunk_budget(config, size), patch.object(harness, "path_effective_channel", spy):
            draw_trials(config, users, range(4))
        angles, gains = (np.concatenate(parts) for parts in zip(*seen))
        for row, (env, oracle_gains) in enumerate(oracle_draws(config, users, range(4))):
            assert angles[row].tobytes() == env.path_angles.tobytes()
            assert gains[row].tobytes() == oracle_gains.tobytes()

    @settings(deadline=None, max_examples=150)
    @given(draw_configs())
    def test_path_route_matches_oracle_chain(self, config):
        (users,) = config.user_count_grid
        trials = draw_trials(config, users, range(3))
        for row, (env, oracle) in enumerate(oracle_grams(config, users, range(3))):
            lam, v = trials.eigenvalues[row], trials.eigenvectors[row]
            # forming S^H S squares the steering condition, so the tolerance
            # scales with the condition of the path Gram's rank-D truncation,
            # lambda_D / (lambda_D - lambda_{D+1}) and at least 1: rounding of
            # order eps * lambda_1 turns its top-D eigenspace by that over the
            # gap, which moves the truncation by lambda_D times as much
            paths = np.linalg.eigvalsh(env.steering.conj().T @ env.steering)[::-1]
            gap = paths[config.D - 1] - (paths[config.D] if config.D < config.L else 0.0)
            condition = max(1.0, paths[config.D - 1] / gap) if gap > 0 else np.inf
            rtol = 1e4 * np.finfo(float).eps * condition
            error = np.linalg.norm((v * lam) @ v.conj().T - oracle)
            assert error <= rtol * np.linalg.norm(oracle)
            # the usable masks agree a factor 10 or more away from COND_LIMIT
            oracle_cond = condition_number(np.linalg.eigvalsh(oracle))
            if not COND_LIMIT / 10 < oracle_cond < COND_LIMIT * 10:
                assert trials.usable[row] == (oracle_cond <= COND_LIMIT)

    def test_chunk_holds_its_path_grams_within_the_bound(self):
        # at M = 16, L = 200 one trial's 200 x 200 path Gram outgrows its
        # 8 x 200 cosines and sines. Sized by those alone, a chunk held 10
        # trials, 400,000 elements in each L x L stack, and 30 trials peaked at
        # 7.4 MB; with one trial per chunk they peak at 0.75 MB
        config = small_config(L=200)
        tracemalloc.start()
        try:
            draw_trials(config, 4, range(30))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * ELEMENT_BOUND

    def test_all_ill_conditioned_chunk_raises_no_warning(self):
        # a point-like sector makes every Gram singular; the stacked
        # condition check must not divide by the nonpositive eigenvalues
        config = small_config(sector_spread=1e-9)
        with warnings.catch_warnings(), chunk_budget(config, 8):
            warnings.simplefilter("error")
            trials = draw_trials(config, 4, range(10))
        assert not trials.usable.any() and trials.a_inv.shape == (0, 4, 4)
        for trial in (0, 7, 9):
            one = draw_trials(config, 4, [trial])
            assert trial_bytes(one, 0) == trial_bytes(trials, trial)

    @pytest.mark.parametrize("users", [1, 2])
    def test_narrow_sector_tie_raises_no_warning(self, users):
        # a point-like sector gives the path Gram rank one, so lambda_D =
        # lambda_{D+1} = 0 up to rounding and the top-D subspace is undefined:
        # the routes need not agree, but the draw is finite and one user's
        # 1 x 1 Gram is still usable
        config = small_config(sector_spread=1e-12, user_count_grid=[users])
        with warnings.catch_warnings(), chunk_budget(config, 8):
            warnings.simplefilter("error")
            trials = draw_trials(config, users, range(10))
        assert np.isfinite(trials.eigenvalues).all() and np.isfinite(trials.eigenvectors).all()
        assert trials.usable.tolist() == [users == 1] * 10


class TestRunExperiment:
    def test_record_layout_and_aggregates(self):
        config = small_config()
        records, summaries = columns(config, run_experiment(config))
        assert len(records["trial"]) == 4 * config.num_trials
        assert all(len(column) == 4 for column in summaries.values())
        assert summaries["num_ok"] == [config.num_trials] * 4
        assert summaries["num_failed"] == [0] * 4
        assert all(0.0 < norm <= 1.0 for norm in summaries["norm_capacity"])
        assert all(sem >= 0.0 for sem in summaries["sem_coop"])

    def test_summarize_point_runs_once_per_user_count(self, monkeypatch):
        # the writer's cells make one stacked reduction over (b, SNR, link,
        # usable trial) per user count, not one call per grid point
        calls = []

        def spy(*args):
            calls.append(args)
            return summarize_point(*args)

        monkeypatch.setattr(harness, "summarize_point", spy)
        config = small_config(user_count_grid=[2, 3, 4])
        chunks = list(point_rows(config, run_experiment(config)))
        assert len(calls) == 3
        assert [args[0].shape[:-1] for args in calls] == [(4,)] * 3
        assert sum(len(summaries) for _, _, summaries in chunks) == 12

    def test_all_zero_capacities_leave_norm_capacity_empty(self, tmp_path):
        # below about -170 dB every log2(1 + snr) rounds to 0.0, so the
        # normalised capacity is 0/0: written as an empty cell, not nan
        config = small_config(snr_db_grid=[-200.0, -150.0], b_grid=[2], num_trials=3)
        results = run_experiment(config)
        _, summaries = columns(config, results)
        assert summaries["mean_ideal"][0] == summaries["mean_coop"][0] == 0.0
        assert summaries["norm_capacity"][0] is None
        assert 0.0 < summaries["norm_capacity"][1] <= 1.0
        write_outputs(tmp_path, config, results)
        header, row = (tmp_path / "aggregate.csv").read_text().splitlines()[:2]
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["mean_ideal"] == "0.0"
        assert cells["norm_capacity"] == ""

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_config()
        for run in ("a", "b"):
            write_outputs(tmp_path / run, config, run_experiment(config))
        for name in ("trials.csv", "aggregate.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "overrides",
        [
            # 0.5 gives zero-bit links, 2.0 and 4.0 links of 2 to 12 bits;
            # the small clip level makes every audited overload rate
            # nonzero
            dict(
                mode="quantized-rsi",
                user_count_grid=[3, 4],
                tau=1.0,
                gamma_db_grid=[0.0, 10.0],
                bandwidth_ratio_grid=[0.5, 2.0, 4.0],
            ),
            # a narrow sector leaves trial 0 usable and trials 1 and 2
            # ill-conditioned, so the usable rows sit between flagged ones
            dict(sector_spread=0.01),
            # the memory budget is the audit's one limit, so a group of seven,
            # whose audit enumerates 4**6 symbol vectors, takes the same route
            dict(
                mode="quantized-rsi",
                M=16,
                D=7,
                user_count_grid=[7],
                b_grid=[1],
                snr_db_grid=[-5.0],
                num_trials=2,
                tau=1.0,
                gamma_db_grid=[10.0],
                bandwidth_ratio_grid=[2.0],
            ),
        ],
        ids=["quantized", "mixed", "quantized-seven"],
    )
    def test_sweep_equals_per_point_reference(self, overrides, monkeypatch):
        config = small_config(**{"num_trials": 3, **overrides})
        generated = spy_codebooks(monkeypatch)
        reference = per_point_reference(config)
        by_reference = len(generated)
        records, _ = columns(config, run_experiment(config))
        assert records == as_columns(reference)
        if config.mode == "quantized-rsi":
            assert any(rate > 0.0 for rate in records["overload_rate"])
            assert_overload_shared_across_links(records)
            # one 2**max(b) stream per user count, and no whole codebook
            bits = max(config.b_grid)
            assert generated[by_reference:] == [
                ("codebook_blocks", users, bits) for users in config.user_count_grid
            ]
        else:
            assert set(records["cond_fail"]) == {0, 1}

    def test_count_without_usable_trial_raises_before_any_codebook(self, monkeypatch):
        # a point-like sector leaves one user's 1 x 1 Gram usable and every
        # four-user Gram singular. The sweep draws every count's trials
        # first, so it raises before the one-user codebook, and the audit of
        # that count raises the same error; the per-point reference still
        # records each four-user trial as flagged, and generates no codebook for it
        config = small_config(user_count_grid=[1, 4], num_trials=3, sector_spread=1e-9)
        generated = spy_codebooks(monkeypatch)
        message = r"all 3 trials of 4 users are ill-conditioned: the largest condition number is "
        with pytest.raises(ConfigError, match=message):
            run_experiment(config)
        with pytest.raises(ConfigError, match=message):
            cell_distortion_audit(config, 4)
        assert generated == []
        flagged = [r for r in per_point_reference(config) if r.users == 4]
        assert flagged and all(r.cond_fail == 1 for r in flagged)
        assert all(r.capacity_coop is r.overload_rate is None for r in flagged)
        assert {users for _, users, _ in generated} == {1}

    def test_sweep_never_holds_the_codebook(self):
        # the 2**14 codebook of 5 users is 6.5 MB in 16 blocks of 0.41 MB;
        # the sweep streams it through selection and holds one block at a
        # time. The stream keeps two buffers, the Gaussian draws and the block
        # store, 0.41 MB each; the CGS2 and scoring temporaries are transient.
        # The sweep peaks at 1.38 MB. The bound catches 1.71 MB, the peak with
        # the CGS2 and scoring temporaries held in preallocated buffers, and
        # 1.92 MB, with CGS2 conjugating all the previous columns instead of
        # the new one; a second block held across the next draw adds 0.41 MB
        config = small_config(user_count_grid=[5], b_grid=[14], snr_db_grid=[0.0], num_trials=2)
        tracemalloc.start()
        try:
            (result,) = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.num_failed == 0
        assert peak < 4 * BLOCK * 5 * 5 * 16  # four blocks of 5 x 5 complex128 codewords

    def test_overload_audit_holds_one_trial(self):
        # expected_overload forms 2P * 4**(P-1) symbol tails per SNR, 96 KiB
        # of floats per trial at P = 6, and their erfc arguments and results.
        # Called once per (trial, b), the sweep peaks at 0.68 MB; stacked over
        # the 16 trials it would hold every trial's tails at once, 1.5 MB for
        # one array of them, and it peaked at 8.4 MB
        config = small_config(
            user_count_grid=[6], mode="quantized-rsi", gamma_db_grid=[10.0], bandwidth_ratio_grid=[2.0],
            snr_db_grid=[0.0], b_grid=[1], num_trials=16,
        )
        tracemalloc.start()
        try:
            (result,) = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.num_failed == 0
        assert peak < config.num_trials * 2 * 6 * 4**5 * 8

    @pytest.mark.parametrize(
        "users, snr_db_grid",
        [(7, [-5.0]), (8, [-5.0]), (7, [-10.0, -7.5, -5.0]), (8, [-5.0, 5.0, 10.0])],
    )
    def test_overload_audit_peak_within_sweep_bytes(self, users, snr_db_grid):
        # the budget is the audit's one limit, so sweep_bytes counts its whole
        # working set: 24 B a tail for the symbols and means at any SNR count,
        # and 41 B a tail and SNR for the erfc arguments, results and live mask.
        # Up to -5 dB every argument is below ERFC_ZERO and live, from 5 dB on
        # none is, so P = 8 at three SNRs holds one SNR's live arguments and
        # costs about the tracemalloc time of one
        config = ExperimentConfig(
            D=max(6, users), user_count_grid=[users], b_grid=[1], snr_db_grid=snr_db_grid,
            mode="quantized-rsi", gamma_db_grid=[10.0], bandwidth_ratio_grid=[2.0], num_trials=1,
        )
        tracemalloc.start()
        try:
            (result,) = run_experiment(config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.num_failed == 0
        assert peak <= config.sweep_bytes()

    @pytest.mark.parametrize("bits", [3, 12])
    def test_codebook_blocks_concatenate_to_codebook_for(self, bits):
        config = small_config()
        blocks = [block.copy() for block in codebook_blocks(config, 3, bits)]
        assert max(len(block) for block in blocks) <= BLOCK
        assert np.array_equal(np.concatenate(blocks), codebook_for(config, 3, bits))

    def test_held_block_is_overwritten_by_the_next_draw(self):
        # every block is drawn into the stream's one block store: a consumer
        # that keeps a block past the next draw holds the next block instead
        config = small_config()
        book = codebook_for(config, 3, 12)
        blocks = codebook_blocks(config, 3, 12)
        held = next(blocks)
        assert np.array_equal(held, book[:BLOCK])
        following = next(blocks)
        assert np.shares_memory(held, following)
        assert np.array_equal(held, book[BLOCK : 2 * BLOCK])

    @settings(deadline=None, max_examples=25)
    @given(small_sweeps())
    def test_random_sweep_equals_per_point_reference(self, config):
        assume(all_counts_usable(config))
        records, _ = columns(config, run_experiment(config))
        assert records == as_columns(per_point_reference(config))
        assert_overload_shared_across_links(records)
        # one scoring pass per trial picks, for every b, the codeword the
        # per-point selector picks at every SNR of the grid
        chosen = {}
        for users in config.user_count_grid:
            book = codebook_for(config, users, max(config.b_grid))
            for trial in range(config.num_trials):
                trials = draw_trials(config, users, [trial])
                if not trials.usable[0]:
                    continue
                a_inv = trials.a_inv[0]
                parts = prefix_parts([book], config.b_grid)
                choices = collect_choices(select_prefix_codewords(parts, [a_inv]))
                for bits, snr_db in itertools.product(config.b_grid, config.snr_db_grid):
                    noise_power = 10.0 ** (-snr_db / 10.0)
                    expected = select_codeword(book[: 1 << bits], a_inv, noise_power)[0]
                    assert choices[bits][0][0] == expected
                    chosen[users, trial, bits] = a_inv, book[expected]
        # and every cooperative capacity equals, bitwise, the per-link
        # reference outside the sweep: quantized_snr on a quantized link,
        # 1 / (N0 d) under ideal sharing
        names = ("users", "trial", "bits", "snr_db", "gamma_db", "bandwidth_ratio", "cond_fail")
        rows = zip(*(records[name] for name in names), records["capacity_coop"])
        for users, trial, bits, snr_db, gamma_db, ratio, cond_fail, coop in rows:
            if cond_fail:
                continue
            a_inv, q = chosen[users, trial, bits]
            noise_power = 10.0 ** (-snr_db / 10.0)
            if config.mode == "quantized-rsi":
                link = CooperationLink(ratio, 10.0 ** (gamma_db / 10.0))
                snrs = quantized_snr(q, a_inv, noise_power, link, config.tau)
            else:
                snrs = 1.0 / (noise_power * snr_denominators(q, a_inv))
            assert coop == capacity(snrs)

    @settings(deadline=None, max_examples=20)
    @given(small_sweeps())
    @example(small_config(
        user_count_grid=[1, 4], num_trials=3, sector_spread=0.01, mode="quantized-rsi",
        gamma_db_grid=[0.0], bandwidth_ratio_grid=[0.5, 2.0],
    ))
    @example(small_config(
        user_count_grid=[1, 4], num_trials=24, sector_spread=0.01, mode="quantized-rsi",
        gamma_db_grid=[0.0], bandwidth_ratio_grid=[0.5, 2.0],
    ))
    @example(small_config(snr_db_grid=[-300.0, 300.0]))
    def test_written_rows_equal_per_point_reference(self, config):
        # every trials.csv row is its (point, trial)'s run_trial record and
        # every aggregate.csv row summarize_point on the one contiguous array
        # of the point's usable reference capacities, both formatted cell by
        # cell: repr for a float, str for an int, "" for None. The examples
        # hold a one-user count (no bound), zero-bit links (0.5) and
        # ill-conditioned trials. The 24-trial one mixes usable and flagged
        # trials at four users: a sweep that reduced a masked view of all the
        # trials (x[..., usable], which is strided) would sum more than 8
        # values in another order and move the last bit of the means. At
        # -300 dB every capacity is 0.0 and norm_capacity is empty
        assume(all_counts_usable(config))
        with tempfile.TemporaryDirectory() as out:
            write_outputs(out, config, run_experiment(config))
            trial_lines, aggregate_lines = (
                Path(out, name).read_text().splitlines()[1:]
                for name in ("trials.csv", "aggregate.csv")
            )
        reference = per_point_reference(config)
        own_trial = TRIAL_CSV_HEADER.split(",")[10:]
        n = config.num_trials
        expected_trials, expected_aggregate = [], []
        for i, point in enumerate(grid_points(config)):
            key = (
                config.figure_preset or "", config.mode, config.M, point.users, config.D,
                config.L, point.bits, point.snr_db, point.gamma_db, point.bandwidth_ratio,
            )
            rows = reference[i * n : (i + 1) * n]
            for r in rows:
                cells = (*key, *(getattr(r, name) for name in own_trial))
                expected_trials.append(",".join(map(csv_cell, cells)))
            usable = [r for r in rows if not r.cond_fail]
            stats = summarize_point(
                *(
                    np.array([getattr(r, name) for r in usable], dtype=float)
                    for name in ("capacity_coop", "capacity_zf", "capacity_ideal")
                )
            )
            stats = [None if np.isnan(x) else float(x) for x in stats]
            cells = (*key, *stats, len(usable), n - len(usable))
            expected_aggregate.append(",".join(map(csv_cell, cells)))
        assert trial_lines == expected_trials
        assert aggregate_lines == expected_aggregate

    def test_chunk_bound_leaves_every_output_byte_identical(self, tmp_path):
        # at an element bound of 87 (harness only: codebook.ELEMENT_BOUND, which
        # sizes scoring, is untouched, so the choices cannot move), a four-user
        # trial's 2 x 2 x 4 SNRs take 16 elements, so its usable trials run in
        # chunks of at most 5, and the 24 rows of each grid point are written a
        # few at a time. The narrow sector flags trials between usable ones of
        # one chunk. Both files must equal those of the default bound
        config = small_config(
            user_count_grid=[1, 4], num_trials=24, sector_spread=0.01, mode="quantized-rsi",
            gamma_db_grid=[0.0], bandwidth_ratio_grid=[0.5, 2.0],
        )
        write_outputs(tmp_path / "default", config, run_experiment(config))
        sizes = []

        def spy(decoding, gram_inv):  # one call per (b, chunk), b by b
            sizes.append(decoding.shape[:2])
            return snr_denominators(decoding, gram_inv)

        bound = patch.object(harness, "ELEMENT_BOUND", 87)
        with bound, patch.object(harness, "snr_denominators", spy):
            results = run_experiment(config)
            chunks = Counter(tuple(key) for key, _, _ in point_rows(config, results))
            write_outputs(tmp_path / "chunked", config, results)
        # the four-user calls grouped by b: every b evaluates the same chunks
        by_b = np.reshape([n for n, users in sizes if users == 4], (len(config.b_grid), -1))
        assert (by_b == by_b[0]).all()
        four = by_b[0].tolist()
        usable = np.flatnonzero(draw_trials(config, 4, range(config.num_trials)).usable)
        starts = np.cumsum([0, *four])
        assert len(four) >= 3 and starts[-1] == len(usable)
        assert any(usable[b - 1] - usable[a] > b - 1 - a for a, b in zip(starts, starts[1:]))
        assert len(chunks) == sum(1 for _ in grid_points(config)) and min(chunks.values()) >= 2
        for name in ("trials.csv", "aggregate.csv"):
            chunked = (tmp_path / "chunked" / name).read_bytes()
            assert chunked == (tmp_path / "default" / name).read_bytes(), name

    @settings(deadline=None, max_examples=20)
    @given(small_sweeps(), st.integers(1, 5), st.integers(1, 6))
    @example(small_config(user_count_grid=[5]), 26, 24)
    def test_records_are_trial_prefix_stable(self, config, n, more):
        # the trial-prefix contract: an n-trial sweep's records equal the first
        # n trials' records of a longer one, NaN cells included. In the example
        # all 26 trials at five users are usable, so selection's last chunk of
        # ELEMENT_BOUND // (5 * 131) = 25 Gram inverses holds one row, where
        # numpy may take a GEMV for the GEMM of the 50-trial run's chunk
        short, longer = (dataclasses.replace(config, num_trials=k) for k in (n, n + more))
        assume(all_counts_usable(short))
        for prefix, result in zip(run_experiment(short), run_experiment(longer), strict=True):
            assert prefix.values.tobytes() == result.values[..., :n].tobytes()

    def test_holds_no_codeword_array_per_b(self):
        # each b is evaluated on the running choices as its prefix closes, so
        # eleven more b add their records (88 KB at 200 trials), not eleven
        # (T, P, P) codeword arrays (880 KB), which half of would exceed
        def peak_bytes(config):
            tracemalloc.start()
            try:
                run_experiment(config)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, many = (
            ExperimentConfig(user_count_grid=[5], b_grid=grid, num_trials=200)
            for grid in ([12], list(range(1, 13)))
        )
        codewords = 200 * 5 * 5 * 16
        assert peak_bytes(many) - peak_bytes(one) < 11 * codewords / 2

    @pytest.mark.parametrize("mode", ["ideal-rsi", "quantized-rsi"])
    def test_grid_points_add_their_records_and_no_per_trial_temporary(self, mode):
        # 18 (ideal: 2 b x 9 SNRs) or 45 (quantized: 9 SNRs x 5 links) points
        # against one: the peak grows by the records and at most a chunk. A
        # per-trial array over the SNRs or points, such as zero-forcing and ideal
        # capacities kept beside the records or a whole-count copy for the summary,
        # grew it by 190 and 370 KB at 400 trials. The harness's element bound is
        # lowered so that a few hundred trials outgrow a chunk; scoring, sized by the
        # codebook's own bound, is the same in both sweeps
        def peak_and_records(config):
            tracemalloc.start()
            try:
                results = run_experiment(config)
                return tracemalloc.get_traced_memory()[1], sum(r.values.nbytes for r in results)
            finally:
                tracemalloc.stop()

        snrs = [-10.0 + 2.5 * i for i in range(9)]
        base = dict(D=1, user_count_grid=[1], num_trials=400, mode=mode)
        if mode == "ideal-rsi":
            grids = dict(snr_db_grid=[0.0], b_grid=[6]), dict(snr_db_grid=snrs, b_grid=[3, 6])
        else:
            ratios = [0.6, 1.2, 2.4, 4.8, 9.6]
            grids = (
                dict(snr_db_grid=[0.0], b_grid=[6], bandwidth_ratio_grid=[2.4]),
                dict(snr_db_grid=snrs, b_grid=[6], bandwidth_ratio_grid=ratios),
            )
        bound = 1024
        with patch.object(harness, "ELEMENT_BOUND", bound):
            (one, one_records), (many, many_records) = (
                peak_and_records(small_config(**base, **grid)) for grid in grids
            )
        assert many - one <= many_records - one_records + 64 * bound

    def test_summary_holds_no_running_choices(self, monkeypatch, tmp_path):
        # the sweep drops selection's running choices, one P x P codeword per
        # usable trial, before the writer derives the aggregate, which does not
        # read them: kept alive, they were a 256 B per trial block of codebook.py
        config = small_config(b_grid=[6], num_trials=500)
        largest = []

        def spy(*args):
            snapshot = tracemalloc.take_snapshot()
            held = snapshot.filter_traces([tracemalloc.Filter(True, codebook_module.__file__)])
            largest.append(max((trace.size for trace in held.traces), default=0))
            return summarize_point(*args)

        monkeypatch.setattr(harness, "summarize_point", spy)
        tracemalloc.start()
        try:
            (result,) = run_experiment(config)
            write_outputs(tmp_path, config, [result])
        finally:
            tracemalloc.stop()
        choices = len(result.trials.a_inv) * 16 * 4 * 4
        assert largest and result.num_failed < 50
        assert max(largest) < choices / 2


class TestCellDistortionAudit:
    def test_equals_per_b_reference(self):
        # one overlap and one scoring pass on the 2**max(b) codebook serve every b
        config = small_config(b_grid=[3, 1, 4], num_trials=4)
        audit = cell_distortion_audit(config, 4)
        assert list(audit) == [1, 3, 4]
        for bits, (cell, selected) in audit.items():
            book = codebook_for(config, 4, bits)
            cells, chosen = [], []
            for trial in range(config.num_trials):
                trials = draw_trials(config, 4, [trial])
                if not trials.usable[0]:
                    continue
                u = trials.eigenvectors[0]
                for p in range(4):
                    nearest = max(abs(np.vdot(u[:, p], q[:, p])) ** 2 for q in book)
                    cells.append(1.0 - nearest)
                q = select_codeword(book, trials.a_inv[0], 1.0)[1]
                chosen.append(aligned_cell_distortion(q, u).mean())
            assert cells
            assert cell == pytest.approx(np.mean(cells), rel=1e-12)
            assert selected == pytest.approx(np.mean(chosen), rel=1e-12)

    def test_running_minima_across_block_boundaries(self):
        # 2**10 ends on the first streamed block's last codeword and 2**11
        # spans two blocks; the running minima must equal the distortion
        # minimum over each whole prefix
        config = small_config(user_count_grid=[3], b_grid=[2, 10, 11], num_trials=3)
        audit = cell_distortion_audit(config, 3)
        book = codebook_for(config, 3, 11)
        trials = draw_trials(config, 3, range(3))
        usable = trials.eigenvectors[trials.usable]
        for bits, (cell, _) in audit.items():
            cells = [cell_distortion(book[: 1 << bits], u).min(axis=0).mean() for u in usable]
            assert cell == sum(cells) / len(usable)

    def test_unusable_input_rejected(self, monkeypatch):
        # a point-like scattering sector makes every effective Gram singular;
        # both rejections come before any codebook is generated
        generated = spy_codebooks(monkeypatch)
        with pytest.raises(ValueError, match="ill-conditioned"):
            cell_distortion_audit(small_config(sector_spread=1e-9, num_trials=3), 4)
        with pytest.raises(ValueError, match="not a user count"):
            cell_distortion_audit(small_config(), 5)
        assert generated == []


class TestCsvOutput:
    def test_headers_match_contract(self):
        assert TRIAL_CSV_HEADER == (
            "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,trial,"
            "capacity_coop,capacity_zf,capacity_ideal,capacity_bound,"
            "cond_fail,overload_rate"
        )
        assert AGGREGATE_CSV_HEADER == (
            "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,"
            "mean_coop,sem_coop,mean_zf,sem_zf,mean_ideal,norm_capacity,"
            "num_ok,num_failed"
        )

    def test_row_shape_and_empty_fields(self, tmp_path):
        config = small_config(num_trials=2)
        write_outputs(tmp_path, config, run_experiment(config))
        lines = (tmp_path / "trials.csv").read_text().splitlines()
        assert len(lines) == 1 + 4 * config.num_trials
        first = lines[1].split(",")
        assert len(first) == len(TRIAL_CSV_HEADER.split(","))
        layout = dict(zip(TRIAL_CSV_HEADER.split(","), first))
        assert layout["preset"] == ""
        assert layout["gamma_db"] == ""
        assert layout["bw_ratio"] == ""
        assert layout["mode"] == "ideal-rsi"
        assert layout["M"] == "16"
        assert float(layout["capacity_coop"]) > 0

    def test_written_files(self, tmp_path):
        config = small_config(num_trials=2)
        results = run_experiment(config)
        records, summaries = columns(config, results)
        written = write_outputs(tmp_path, config, results)
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["aggregate.csv", "trials.csv"]
        trials = (tmp_path / "trials.csv").read_text().splitlines()
        assert trials[0] == TRIAL_CSV_HEADER
        assert len(trials) == 1 + len(records["trial"])
        # the aggregate schema, field by field: csv_cell tells an int, a float
        # and None apart ("2", "2.0", ""); test_written_rows_equal_per_point_reference
        # checks every trials.csv cell the same way
        header, *rows = (tmp_path / "aggregate.csv").read_text().splitlines()
        assert header == AGGREGATE_CSV_HEADER
        expected = zip(*(map(csv_cell, summaries[name]) for name in SUMMARY_FIELDS[5:]))
        assert [row.split(",")[10:] for row in rows] == [list(cells) for cells in expected]

    def test_records_peak_under_a_third_of_a_kilobyte_per_row(self, tmp_path):
        # the records stay one float array per user count and the writer
        # streams a chunk of a grid point's rows at a time: the sweep and both
        # files peak at 0.13 KB per row. That peak, each preset's at 2 trials,
        # where the chunked temporaries and the codebook stream dominate, and
        # that of paths outnumbering half the array, where one trial's L x L
        # path Gram is the largest draw temporary, and that of 40 users, where
        # one codeword's P**3 lifted features pass ELEMENT_BOUND, stay within
        # what validate counts against the budget. The writer alone, above the
        # sweep's end state, stays within the chunk term that counts it, even on
        # one point of 3000 trials whose 17-digit grid values make rows of about 185 characters
        def peak_bytes(config, out):
            """The peak of the sweep and its two files, and the writer's own peak."""
            tracemalloc.start()
            try:
                results = run_experiment(config)
                held, peak = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                write_outputs(out, config, results)
                writer = tracemalloc.get_traced_memory()[1]
                return max(peak, writer), writer - held
            finally:
                tracemalloc.stop()

        config = preset_config("fig-capacity-vs-bandwidth-snr", num_trials=200)
        rows = sum(1 for _ in grid_points(config)) * config.num_trials
        peak, _ = peak_bytes(config, tmp_path)
        assert rows == 9000
        assert peak / rows < 300
        assert peak <= config.sweep_bytes()
        smalls = [preset_config(name, num_trials=2) for name in PRESET_NAMES]
        smalls.append(ExperimentConfig(M=6, L=100, num_trials=40, user_count_grid=[2, 6]))
        smalls.append(
            ExperimentConfig(M=128, L=64, D=40, user_count_grid=[40], b_grid=[4], num_trials=2)
        )
        for index, small in enumerate(smalls):
            assert peak_bytes(small, tmp_path / str(index))[0] <= small.sweep_bytes()
        wide = ExperimentConfig(
            M=16, L=8, D=4, user_count_grid=[2], b_grid=[1], snr_db_grid=[-1.2345678901234567],
            mode="quantized-rsi", gamma_db_grid=[10.123456789012345],
            bandwidth_ratio_grid=[2.1234567890123457], num_trials=3000,
        )
        peak, writer = peak_bytes(wide, tmp_path / "wide")
        assert peak <= wide.sweep_bytes()
        assert writer <= 64 * ELEMENT_BOUND


def test_grid_point_is_hashable_record():
    point = GridPoint(4, 6, -5.0, None, None)
    assert point.users == 4
    assert {point: 1}[point] == 1
