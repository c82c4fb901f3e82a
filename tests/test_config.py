import json
import math

import pytest

from d2dcoop import (
    ConfigError,
    ExperimentConfig,
    PRESET_NAMES,
    config_from_dict,
    load_config,
    preset_config,
)


def test_defaults_validate():
    ExperimentConfig().validate()


def test_unknown_field_rejected():
    with pytest.raises(ConfigError, match="unknown config fields: bogus"):
        config_from_dict({"bogus": 1})


def test_missing_fields_take_defaults():
    config = config_from_dict({"P": 3, "snr_db_grid": [0.0]})
    assert config.P == 3
    assert config.M == 64
    assert config.mode == "ideal-rsi"


@pytest.mark.parametrize(
    "overrides",
    [
        {"M": 0},
        {"P": -1},
        {"num_trials": 0},
        {"master_seed": -1},
        {"master_seed": 2**64},
        {"mode": "psychic"},
        {"figure_preset": "fig-nonexistent"},
        {"sector_spread": 0.0},
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
        {"mode": "quantized-rsi", "gamma_db_grid": [-4000.0, 10.0]},
        {"snr_db_grid": [4000.0]},
        {"snr_db_grid": [-4000.0]},
        {"mode": "quantized-rsi", "P": 7, "D": 8},
    ],
)
def test_invalid_values_rejected(overrides):
    with pytest.raises(ConfigError):
        config_from_dict(overrides)


def test_quantized_mode_requires_link_grids():
    config_from_dict({"mode": "ideal-rsi", "gamma_db_grid": []})
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "quantized-rsi", "gamma_db_grid": []})
    with pytest.raises(ConfigError):
        config_from_dict({"mode": "quantized-rsi", "bandwidth_ratio_grid": [0.0]})


def test_user_counts_helper():
    assert ExperimentConfig().user_counts() == [4]
    assert ExperimentConfig(user_count_grid=[3, 4]).user_counts() == [3, 4]


def test_json_round_trip(tmp_path):
    config = preset_config("fig-capacity-vs-bits", num_trials=7, master_seed=5)
    path = tmp_path / "config.json"
    config.to_json(path)
    loaded = load_config(path)
    assert loaded == config


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


def test_preset_grids_match_documented_sweeps():
    fig2 = preset_config("fig-capacity-vs-snr")
    assert fig2.b_grid == [6, 12]
    assert fig2.snr_db_grid[0] == -10.0 and fig2.snr_db_grid[-1] == 10.0
    assert len(fig2.snr_db_grid) == 9
    fig3 = preset_config("fig-capacity-vs-bits")
    assert fig3.user_count_grid == [3, 4, 5]
    assert fig3.b_grid == list(range(1, 17))
    assert fig3.snr_db_grid == [-5.0]
    fig4 = preset_config("fig-capacity-vs-bandwidth-snr")
    assert fig4.mode == "quantized-rsi"
    fig5 = preset_config("fig-capacity-vs-bandwidth-gamma")
    assert fig5.mode == "quantized-rsi"
    assert fig5.snr_db_grid == [-5.0]
    assert len(fig5.gamma_db_grid) >= 2


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError):
        preset_config("fig-made-up")


def test_sector_defaults_cover_half_space():
    config = ExperimentConfig()
    assert config.sector_center == 0.0
    assert config.sector_spread == pytest.approx(math.pi)
