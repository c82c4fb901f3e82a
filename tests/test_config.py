import dataclasses
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from d2dcoop import (
    ConfigError,
    CooperationLink,
    ExperimentConfig,
    PRESET_NAMES,
    QuantizerConfig,
    bits_from_bandwidth,
    config_from_dict,
    load_config,
    preset_config,
    quantization_noise_variance,
    run_experiment,
    write_outputs,
)
from d2dcoop.config import MODES
from d2dcoop.quantization import link_variances


# nine SNRs, as the wide preset grids
NINE_SNRS = [-10.0 + 2.5 * step for step in range(9)]


def test_defaults_validate():
    ExperimentConfig().validate()


def test_overload_audit_is_bounded_by_the_budget_alone():
    # the audit's 2P * 4**(P - 1) tails per SNR are counted against the budget,
    # so quantized groups of any size build while they fit it: at 200 trials,
    # ten users at one SNR, nine users at nine
    ExperimentConfig(mode="quantized-rsi", user_count_grid=(7,), D=8)
    ExperimentConfig(mode="quantized-rsi", user_count_grid=[10], D=10)
    ExperimentConfig(mode="quantized-rsi", user_count_grid=[9], D=9, snr_db_grid=NINE_SNRS)
    for users, snrs in ((10, NINE_SNRS), (11, [-5.0])):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(
                mode="quantized-rsi", user_count_grid=[users], D=users, snr_db_grid=snrs
            )
        tails = 2 * users * 4 ** (users - 1)
        assert f", and P={users} an overload audit of {tails} tails per SNR: " in str(info.value)
    # an ideal sweep runs no audit, and its message names none
    with pytest.raises(ConfigError, match="elements: the sweep needs"):
        ExperimentConfig(user_count_grid=[10], D=10, num_trials=10**7)
    # from P = 7143 on the audit's counts have more digits than str converts;
    # one codeword of 8000 users fits the codebook's budget
    huge = ", and P=8000 an overload audit of 2P * 4**(P - 1) tails per SNR: the sweep needs more "
    for mode in MODES:
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(M=8000, L=8000, D=8000, user_count_grid=[8000], b_grid=[0], mode=mode)
        assert (huge + "than 10**600 bytes" in str(info.value)) is (mode == "quantized-rsi")


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown config fields: bogus"):
        config_from_dict({"bogus": 1})
    # user_count_grid alone sets the user counts; a leftover P is not ignored
    with pytest.raises(ConfigError, match="unknown config fields: P$"):
        config_from_dict({"P": 8, "user_count_grid": [3]})


def test_missing_fields_take_defaults():
    config = config_from_dict({"user_count_grid": [3], "snr_db_grid": [0.0]})
    assert config.user_count_grid == (3,)
    assert config.M == 64
    assert config.mode == "ideal-rsi"


@pytest.mark.parametrize(
    "overrides",
    [
        {"M": 0},
        {"user_count_grid": [-1]},
        {"num_trials": 0},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"mode": "psychic"},
        {"figure_preset": "fig-nonexistent"},
        {"sector_spread": 0.0},
        {"sector_center": 2.0, "sector_spread": 0.5},
        {"sector_center": 1e300},
        {"tau": -1.0},
        {"snr_db_grid": []},
        {"snr_db_grid": [float("nan")]},
        {"b_grid": [-1]},
        {"b_grid": [2.5]},
        {"user_count_grid": [0]},
        {"D": 4, "user_count_grid": [3, 5]},
        {"D": 70},
        {"L": 2},
        {"b_grid": [30]},
        {"user_count_grid": [3, 3]},
        {"snr_db_grid": [-5.0, -5.0]},
        {"b_grid": [6, 6]},
        {"mode": "quantized-rsi", "bandwidth_ratio_grid": [1.0, 1.0]},
        {"L": 5},
        {"mode": "quantized-rsi", "bandwidth_ratio_grid": [1000.0]},
        {"mode": "quantized-rsi", "bandwidth_ratio_grid": [1e308]},
        {"mode": "quantized-rsi", "gamma_db_grid": [-4000.0, 10.0]},
        {"snr_db_grid": [4000.0]},
        {"snr_db_grid": [-4000.0]},
        # past the budget through the overload audit's tails alone
        {"mode": "quantized-rsi", "user_count_grid": [10], "D": 10, "snr_db_grid": NINE_SNRS},
        {"mode": "quantized-rsi", "tau": 1e300},
        {"mode": "quantized-rsi", "user_count_grid": [1], "tau": 1e154},
        {"P": 4},
        {"user_count_grid": None},
        {"gamma_db_grid": "abc"},
        {"bandwidth_ratio_grid": [-1.0]},
        {"tau": 1e300},
        # past the budget for any user count: rejected before 2**b is formed
        {"b_grid": [10**30]},
        {"b_grid": [2**63]},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


@pytest.mark.parametrize(
    "overrides, message",
    [
        # tau**2 overflows, then 2 * tau**2: both are the variance's overflow
        ({"tau": 1e300}, "tau=1e+300 overflows the quantization noise variance"),
        ({"tau": 1.2e154}, "tau=1.2e+154 overflows the quantization noise variance"),
        # an infinite budget and finite ones past the cap name the first such link,
        # in sweep order, and its budget
        (
            {"bandwidth_ratio_grid": [1e308]},
            "the link at (gamma_db, bandwidth_ratio) = (10.0, 1e+308): a link budget of inf "
            "bits per sample is at or over the 1024-bit cap",
        ),
        (
            {"gamma_db_grid": [0.0, 10.0], "bandwidth_ratio_grid": [1.0, 1030.0]},
            "the link at (gamma_db, bandwidth_ratio) = (0.0, 1030.0): a link budget of "
            "1030.0 bits per sample is at or over the 1024-bit cap",
        ),
        (
            {"bandwidth_ratio_grid": [1000.0]},
            "the link at (gamma_db, bandwidth_ratio) = (10.0, 1000.0): a link budget of "
            f"{1000.0 * math.log2(11.0)!r} bits per sample is at or over the 1024-bit cap",
        ),
    ],
)
def test_unusable_link_names_its_cause(overrides, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(overrides)


def _cases(test):
    """The parameter sets of a test's one ``parametrize`` mark, overrides first."""
    (mark,) = test.pytestmark
    return [case if isinstance(case, dict) else case[0] for case in mark.args[1]]


FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize(
    "overrides",
    [case for case in _cases(test_invalid_values_rejected) if set(case) <= FIELDS]
    + _cases(test_unusable_link_names_its_cause),
)
def test_construction_rejects_what_config_from_dict_rejects(overrides):
    # a config checks itself when built, so no caller can skip the check;
    # only an unknown field is config_from_dict's own rejection
    with pytest.raises(ConfigError) as via_dict:
        config_from_dict(overrides)
    with pytest.raises(ConfigError) as direct:
        ExperimentConfig(**overrides)
    assert str(direct.value) == str(via_dict.value)


def test_config_cannot_change_after_its_check():
    config = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.num_trials = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.snr_db_grid = [-5.0, -5.0]
    with pytest.raises(AttributeError):
        config.snr_db_grid.append(-5.0)
    for name in PRESET_NAMES:
        preset = preset_config(name)
        grids = [value for key, value in preset.to_dict().items() if key.endswith("_grid")]
        assert len(grids) == 5 and all(type(grid) is tuple for grid in grids)
    # replace builds a new config, so it is checked and normalised too
    with pytest.raises(ConfigError, match="num_trials must be a positive integer, got 0"):
        dataclasses.replace(config, num_trials=0)
    with pytest.raises(ConfigError, match="snr_db_grid has duplicate entries"):
        dataclasses.replace(config, snr_db_grid=[-5.0, -5.0])
    assert dataclasses.replace(config, snr_db_grid=[0, 5]).snr_db_grid == (0.0, 5.0)


# an int beyond the float range, which math.isfinite cannot convert
HUGE = 10**400


@pytest.mark.parametrize(
    "overrides",
    [
        {"tau": HUGE},
        {"sector_center": HUGE},
        {"sector_spread": HUGE},
        {"snr_db_grid": [HUGE]},
        {"mode": "quantized-rsi", "gamma_db_grid": [HUGE]},
        {"mode": "quantized-rsi", "bandwidth_ratio_grid": [HUGE]},
    ],
)
def test_huge_int_in_a_float_field_rejected(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


def test_float_fields_stored_as_floats():
    # an int spelling of a float field is the same experiment
    config = config_from_dict({
        "mode": "quantized-rsi", "sector_center": 0, "sector_spread": 3, "tau": 30,
        "snr_db_grid": [0, -5], "gamma_db_grid": [10], "bandwidth_ratio_grid": [2],
    })
    for name in ("sector_center", "sector_spread", "tau"):
        assert type(getattr(config, name)) is float
    for name in ("snr_db_grid", "gamma_db_grid", "bandwidth_ratio_grid"):
        assert all(type(value) is float for value in getattr(config, name))
    assert config.snr_db_grid == (0.0, -5.0)


def test_direct_config_writes_the_bytes_of_its_dict(tmp_path):
    # validate stores the float fields as floats, so a config built directly
    # with int spellings is the experiment that config_from_dict builds
    fields = dict(
        M=16, L=8, D=6, user_count_grid=[2], snr_db_grid=[0, -5], b_grid=[2],
        sector_center=0, tau=30, num_trials=3, master_seed=4,
    )
    for name, config in (("direct", ExperimentConfig(**fields)), ("dict", config_from_dict(fields))):
        write_outputs(tmp_path / name, config, run_experiment(config))
    for table in ("trials.csv", "aggregate.csv"):
        direct = (tmp_path / "direct" / table).read_bytes()
        assert direct == (tmp_path / "dict" / table).read_bytes()
        assert b",0.0," in direct


@pytest.mark.parametrize("name", ["fig-capacity-vs-bandwidth-snr", "fig-capacity-vs-bandwidth-gamma"])
def test_link_variances_match_per_link_formulas(name):
    # validate checks the very link table the sweep builds
    config = preset_config(name)
    grids = config.gamma_db_grid, config.bandwidth_ratio_grid
    variances, carries = link_variances(*grids, config.tau)
    for (gamma_db, ratio), variance, carry in zip(
        itertools.product(*grids), variances, carries, strict=True
    ):
        bits = bits_from_bandwidth(CooperationLink(ratio, 10.0 ** (gamma_db / 10.0)))
        expected = quantization_noise_variance(QuantizerConfig(bits, config.tau)) if bits else 0.0
        assert carry == (bits > 0)
        assert variance == expected
    assert np.all(np.isfinite(variances))


def test_quantized_mode_requires_link_grids():
    # the link grids are checked in both modes, though only quantized mode sweeps them
    for mode in MODES:
        with pytest.raises(ConfigError):
            config_from_dict({"mode": mode, "gamma_db_grid": []})
        with pytest.raises(ConfigError):
            config_from_dict({"mode": mode, "bandwidth_ratio_grid": [0.0]})


def test_user_counts_helper():
    # user_count_grid is the one field that sets the user counts
    assert ExperimentConfig().user_count_grid == (4,)
    assert config_from_dict({}).user_count_grid == (4,)
    assert config_from_dict({"user_count_grid": [3, 4]}).user_count_grid == (3, 4)
    assert not hasattr(ExperimentConfig(), "P")


def test_json_round_trip(tmp_path):
    for name in PRESET_NAMES:
        config = preset_config(name, num_trials=7, master_seed=5)
        path = tmp_path / f"{name}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config.to_dict(), fh)
        assert load_config(path) == config


def test_readme_config_example_loads():
    # the README's "Config format" block states every field; a schema change must update it
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    data = json.loads(block)
    assert list(data) == list(config_from_dict(data).to_dict())


def test_load_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_rejects_non_object(tmp_path):
    path = tmp_path / "list.json"
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ConfigError):
        load_config(path)


def test_all_presets_validate():
    for name in PRESET_NAMES:
        config = preset_config(name)
        assert config.figure_preset == name
        assert config.num_trials == 200
        assert config.tau == 30.0
        assert config.M == 64 and config.D == 6 and config.L == 20


def test_preset_overrides():
    config = preset_config("fig-capacity-vs-snr", num_trials=11, master_seed=99)
    assert config.num_trials == 11
    assert config.master_seed == 99


def test_preset_grids_are_copies():
    # a caller cannot edit its config's grids, so the next preset is untouched
    first = preset_config("fig-capacity-vs-bandwidth-snr")
    expected = preset_config("fig-capacity-vs-bandwidth-snr").to_dict()
    for name in ("snr_db_grid", "b_grid", "user_count_grid", "gamma_db_grid",
                 "bandwidth_ratio_grid"):
        with pytest.raises(AttributeError):
            getattr(first, name).append(99.0)
        with pytest.raises(TypeError):
            getattr(first, name)[0] = 3.0
    assert preset_config("fig-capacity-vs-bandwidth-snr").to_dict() == expected
    assert first.to_dict() == expected
    assert preset_config("fig-capacity-vs-snr").snr_db_grid[0] == -10.0
    with pytest.raises(AttributeError):
        preset_config("fig-capacity-vs-bits").user_count_grid.clear()
    assert preset_config("fig-capacity-vs-bits").user_count_grid == (3, 4, 5)


def test_preset_grids_match_documented_sweeps():
    fig2 = preset_config("fig-capacity-vs-snr")
    assert fig2.b_grid == (6, 12)
    assert fig2.snr_db_grid[0] == -10.0 and fig2.snr_db_grid[-1] == 10.0
    assert len(fig2.snr_db_grid) == 9
    fig3 = preset_config("fig-capacity-vs-bits")
    assert fig3.user_count_grid == (3, 4, 5)
    assert fig3.b_grid == tuple(range(1, 17))
    assert fig3.snr_db_grid == (-5.0,)
    fig4 = preset_config("fig-capacity-vs-bandwidth-snr")
    assert fig4.mode == "quantized-rsi"
    fig5 = preset_config("fig-capacity-vs-bandwidth-gamma")
    assert fig5.mode == "quantized-rsi"
    assert fig5.snr_db_grid == (-5.0,)
    assert len(fig5.gamma_db_grid) >= 2


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("fig-made-up")


def test_sector_defaults_cover_half_space():
    config = ExperimentConfig()
    assert config.sector_center == 0.0
    assert config.sector_spread == pytest.approx(math.pi)
