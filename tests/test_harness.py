import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d2dcoop import (
    CooperationLink,
    ExperimentConfig,
    aligned_cell_distortion,
    bits_from_bandwidth,
    capacity,
    cell_distortion_audit,
    run_experiment,
    run_trial,
    select_codeword,
)
from d2dcoop.codebook import select_prefix_codewords
from d2dcoop.harness import (
    AGGREGATE_CSV_HEADER,
    TRIAL_CSV_HEADER,
    GridPoint,
    aggregate_csv_lines,
    codebook_for,
    draw_trial,
    grid_points,
    trial_csv_lines,
    write_outputs,
)


def small_config(**overrides):
    base = dict(
        M=16,
        L=8,
        D=6,
        P=4,
        snr_db_grid=[-5.0, 0.0],
        b_grid=[2, 3],
        num_trials=5,
        master_seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@st.composite
def small_sweeps(draw):
    """Random small configs in either sharing mode, with up to two b and SNR values."""

    def grid(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))

    overrides = dict(
        user_count_grid=grid([1, 2, 3, 4]),
        b_grid=grid([0, 1, 2, 3, 4]),
        snr_db_grid=grid([-10.0, -5.0, 0.0, 10.0]),
        num_trials=2,
        master_seed=draw(st.integers(0, 2**32 - 1)),
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


def assert_overload_shared_across_links(records):
    """Each (users, trial, b, SNR) has one overload rate over all links that carry bits."""
    rates = {}
    for r in records:
        if r.cond_fail or r.gamma_db is None:
            continue
        link = CooperationLink(r.bandwidth_ratio, 10.0 ** (r.gamma_db / 10.0))
        if bits_from_bandwidth(link) > 0:
            rates.setdefault((r.users, r.trial, r.bits, r.snr_db), set()).add(r.overload_rate)
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


class TestRunExperiment:
    def test_record_layout_and_aggregates(self):
        config = small_config()
        records, summaries = run_experiment(config)
        assert len(records) == 4 * config.num_trials
        assert len(summaries) == 4
        for s in summaries:
            assert s.num_ok == config.num_trials
            assert s.num_failed == 0
            assert 0.0 < s.norm_capacity <= 1.0
            assert s.sem_coop >= 0.0

    def test_all_zero_capacities_leave_norm_capacity_empty(self):
        # below about -170 dB every log2(1 + snr) rounds to 0.0, so the
        # normalised capacity is 0/0: written as an empty cell, not nan
        config = small_config(snr_db_grid=[-200.0, -150.0], b_grid=[2], num_trials=3)
        _, summaries = run_experiment(config)
        lowest, low = summaries
        assert lowest.mean_ideal == lowest.mean_coop == 0.0
        assert lowest.norm_capacity is None
        assert 0.0 < low.norm_capacity <= 1.0
        row = aggregate_csv_lines(config, summaries)[1]
        assert row.endswith(",0.0,")

    def test_rerun_is_byte_identical(self):
        config = small_config()
        rec1, sum1 = run_experiment(config)
        rec2, sum2 = run_experiment(config)
        assert trial_csv_lines(config, rec1) == trial_csv_lines(config, rec2)
        assert aggregate_csv_lines(config, sum1) == aggregate_csv_lines(config, sum2)

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
            dict(sector_spread=1e-9),
        ],
        ids=["quantized", "all-ill-conditioned"],
    )
    def test_sweep_equals_per_point_reference(self, overrides):
        config = small_config(num_trials=3, **overrides)
        records, _ = run_experiment(config)
        assert records == per_point_reference(config)
        if config.mode == "quantized-rsi":
            assert any(r.overload_rate > 0.0 for r in records)
            assert_overload_shared_across_links(records)
        else:
            assert all(r.cond_fail == 1 for r in records)

    @settings(deadline=None, max_examples=25)
    @given(small_sweeps())
    def test_random_sweep_equals_per_point_reference(self, config):
        records, _ = run_experiment(config)
        assert records == per_point_reference(config)
        assert_overload_shared_across_links(records)
        # one scoring pass per trial picks, for every b, the codeword the
        # per-point selector picks at every SNR of the grid
        for users in config.user_counts():
            book = codebook_for(config, users, max(config.b_grid))
            for trial in range(config.num_trials):
                a_inv = draw_trial(config, users, trial).a_inv
                if a_inv is None:
                    continue
                choices = select_prefix_codewords(book, a_inv, config.b_grid)
                for bits, snr_db in itertools.product(config.b_grid, config.snr_db_grid):
                    noise_power = 10.0 ** (-snr_db / 10.0)
                    expected = select_codeword(book.prefix(bits), a_inv, noise_power)[0]
                    assert choices[bits] == expected


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
                state = draw_trial(config, 4, trial)
                if state.a_inv is None:
                    continue
                u = state.spectrum.eigenmatrix
                for p in range(4):
                    nearest = max(abs(np.vdot(u[:, p], q[:, p])) ** 2 for q in book.codewords)
                    cells.append(1.0 - nearest)
                q = select_codeword(book, state.a_inv, 1.0)[1]
                chosen.append(aligned_cell_distortion(q, u).mean())
            assert cells
            assert cell == pytest.approx(np.mean(cells), rel=1e-12)
            assert selected == pytest.approx(np.mean(chosen), rel=1e-12)

    def test_unusable_input_rejected(self):
        # a point-like scattering sector makes every effective Gram singular
        with pytest.raises(ValueError, match="ill-conditioned"):
            cell_distortion_audit(small_config(sector_spread=1e-9, num_trials=3), 4)
        with pytest.raises(ValueError, match="not a user count"):
            cell_distortion_audit(small_config(), 5)


class TestCsvOutput:
    def test_headers_match_contract(self):
        assert TRIAL_CSV_HEADER == (
            "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,trial,"
            "capacity_coop,capacity_zf,capacity_ideal,capacity_bound,"
            "cond_fail,overload_rate"
        )
        assert AGGREGATE_CSV_HEADER == (
            "preset,mode,M,P,D,L,b,snr_db,gamma_db,bw_ratio,"
            "mean_coop,sem_coop,mean_zf,sem_zf,mean_ideal,norm_capacity"
        )

    def test_row_shape_and_empty_fields(self):
        config = small_config(num_trials=2)
        records, summaries = run_experiment(config)
        lines = trial_csv_lines(config, records)
        assert len(lines) == 1 + len(records)
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
        records, summaries = run_experiment(config)
        written = write_outputs(tmp_path, config, records, summaries, json_mirror=True)
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["aggregate.csv", "aggregate.json", "trials.csv", "trials.json"]
        trials = (tmp_path / "trials.csv").read_text().splitlines()
        assert trials[0] == TRIAL_CSV_HEADER
        assert len(trials) == 1 + len(records)
        mirrored = json.loads((tmp_path / "trials.json").read_text())
        assert mirrored == [dataclasses.asdict(r) for r in records]


def test_grid_point_is_hashable_record():
    point = GridPoint(4, 6, -5.0, None, None)
    assert point.users == 4
    assert {point: 1}[point] == 1
