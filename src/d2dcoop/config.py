"""Declarative experiment configuration and the built-in figure presets.

A config is a plain JSON object with exactly the fields of
:class:`ExperimentConfig`; unknown fields are rejected so a typo cannot
silently change an experiment. Field names follow the conventional
symbols: ``M`` transmit antennas, ``P`` users, ``D`` effective-channel
dimension, ``L`` propagation paths.
"""

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .codebook import DEFAULT_BUDGET_BYTES, codebook_bytes
from .quantization import OVERLOAD_MAX_USERS, TOTAL_BITS_CAP, CooperationLink, bits_from_bandwidth
from .quantization import QuantizerConfig, quantization_noise_variance

MODES = ("ideal-rsi", "quantized-rsi")

PRESET_NAMES = (
    "fig-capacity-vs-snr",
    "fig-capacity-vs-bits",
    "fig-capacity-vs-bandwidth-snr",
    "fig-capacity-vs-bandwidth-gamma",
)

_SNR_GRID_WIDE = [-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0]

# 10**(-x/10) stays a normal positive float for |x| <= 300 dB; beyond it
# noise powers and link SNRs underflow to 0 or overflow
DB_LIMIT = 300.0


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration content."""


@dataclass
class ExperimentConfig:
    """Full description of one Monte Carlo sweep.

    Grids are swept as a Cartesian product; ``gamma_db_grid`` and
    ``bandwidth_ratio_grid`` only apply in ``quantized-rsi`` mode.
    ``user_count_grid`` overrides ``P`` with a sweep when present.
    Downlink SNR in dB maps to noise power ``N0 = 10**(-snr_db/10)``
    under unit transmit symbol power.
    """

    M: int = 64
    P: int = 4
    D: int = 6
    L: int = 20
    sector_center: float = 0.0
    sector_spread: float = math.pi
    snr_db_grid: list = field(default_factory=lambda: [-5.0])
    b_grid: list = field(default_factory=lambda: [6])
    user_count_grid: list | None = None
    tau: float = 30.0
    gamma_db_grid: list = field(default_factory=lambda: [10.0])
    bandwidth_ratio_grid: list = field(default_factory=lambda: [1.0])
    num_trials: int = 200
    master_seed: int = 0
    mode: str = "ideal-rsi"
    figure_preset: str | None = None

    def user_counts(self) -> list:
        return list(self.user_count_grid) if self.user_count_grid else [self.P]

    def validate(self) -> None:
        for name in ("M", "P", "D", "L", "num_trials"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {value!r}")
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.figure_preset is not None and self.figure_preset not in PRESET_NAMES:
            raise ConfigError(f"unknown figure_preset {self.figure_preset!r}")
        if not _is_finite_number(self.sector_center):
            raise ConfigError("sector_center must be a finite number")
        if not _is_finite_number(self.sector_spread) or self.sector_spread <= 0:
            raise ConfigError("sector_spread must be positive")
        if not _is_finite_number(self.tau) or self.tau <= 0:
            raise ConfigError("tau must be positive")

        _check_grid(self.snr_db_grid, "snr_db_grid", _is_db)
        _check_grid(self.b_grid, "b_grid", lambda b: _is_int(b) and b >= 0)
        if self.user_count_grid is not None:
            _check_grid(
                self.user_count_grid, "user_count_grid", lambda p: _is_int(p) and p >= 1
            )
        if self.mode == "quantized-rsi":
            _check_grid(self.gamma_db_grid, "gamma_db_grid", _is_db)
            _check_grid(
                self.bandwidth_ratio_grid,
                "bandwidth_ratio_grid",
                lambda r: _is_finite_number(r) and r > 0,
            )
            # the budget grows with both, so the largest pair carries the most bits
            ratio, gamma_db = max(self.bandwidth_ratio_grid), max(self.gamma_db_grid)
            try:
                link_bits = bits_from_bandwidth(CooperationLink(ratio, 10.0 ** (gamma_db / 10.0)))
            except OverflowError:
                link_bits = math.inf
            if link_bits >= TOTAL_BITS_CAP:
                raise ConfigError(f"link budget of {link_bits} bits is not below {TOTAL_BITS_CAP}")
            # 2 bits give the largest variance; inf would turn the SNRs nan mid-sweep
            try:
                variance = quantization_noise_variance(QuantizerConfig(2, self.tau))
            except OverflowError:
                variance = math.inf
            if not math.isfinite(variance):
                raise ConfigError(f"tau={self.tau!r} overflows the quantization noise variance")
            if max(self.user_counts()) > OVERLOAD_MAX_USERS:
                raise ConfigError(
                    f"quantized mode audits overload for at most {OVERLOAD_MAX_USERS} users"
                )
        if self.D > min(self.M, self.L):
            raise ConfigError(
                f"D={self.D} exceeds min(M, L), the rank of the spatial covariance; "
                "extra dimensions would carry no channel energy"
            )
        worst = max(self.user_counts())
        if self.D < worst:
            raise ConfigError(
                f"D={self.D} is below the largest user count {worst}; zero-forcing needs D >= P"
            )
        need = codebook_bytes(worst, max(self.b_grid))
        if need > DEFAULT_BUDGET_BYTES:
            raise ConfigError(
                f"codebook of 2**{max(self.b_grid)} matrices for {worst} users needs "
                f"{need} bytes, budget is {DEFAULT_BUDGET_BYTES}"
            )

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2)
            fh.write("\n")


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build and validate a config from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    config = ExperimentConfig(**data)
    config.validate()
    return config


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    return config_from_dict(data)


def preset_config(
    name: str,
    num_trials: int | None = None,
    master_seed: int | None = None,
) -> ExperimentConfig:
    """One of the four built-in figure sweeps.

    - ``fig-capacity-vs-snr``: ideal sharing, capacity versus downlink
      SNR for codebooks of 6 and 12 bits, against the zero-forcing
      baseline and the perfect-cooperation limit.
    - ``fig-capacity-vs-bits``: ideal sharing at -5 dB, capacity
      normalized by the perfect-cooperation value versus codebook bits,
      for 3, 4 and 5 users.
    - ``fig-capacity-vs-bandwidth-snr``: quantized sharing, capacity
      versus downlink SNR for several cooperation bandwidths at a fixed
      sharing-link SNR of 10 dB.
    - ``fig-capacity-vs-bandwidth-gamma``: quantized sharing at -5 dB,
      capacity versus cooperation bandwidth for several sharing-link
      qualities.
    """
    if name == "fig-capacity-vs-snr":
        config = ExperimentConfig(
            snr_db_grid=list(_SNR_GRID_WIDE),
            b_grid=[6, 12],
            mode="ideal-rsi",
            figure_preset=name,
        )
    elif name == "fig-capacity-vs-bits":
        config = ExperimentConfig(
            snr_db_grid=[-5.0],
            b_grid=list(range(1, 17)),
            user_count_grid=[3, 4, 5],
            mode="ideal-rsi",
            figure_preset=name,
        )
    elif name == "fig-capacity-vs-bandwidth-snr":
        config = ExperimentConfig(
            snr_db_grid=list(_SNR_GRID_WIDE),
            b_grid=[6],
            gamma_db_grid=[10.0],
            bandwidth_ratio_grid=[0.6, 1.2, 2.4, 4.8, 9.6],
            mode="quantized-rsi",
            figure_preset=name,
        )
    elif name == "fig-capacity-vs-bandwidth-gamma":
        config = ExperimentConfig(
            snr_db_grid=[-5.0],
            b_grid=[6],
            gamma_db_grid=[0.0, 5.0, 10.0],
            bandwidth_ratio_grid=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
            mode="quantized-rsi",
            figure_preset=name,
        )
    else:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    if num_trials is not None:
        config.num_trials = num_trials
    if master_seed is not None:
        config.master_seed = master_seed
    config.validate()
    return config


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_db(value) -> bool:
    return _is_finite_number(value) and abs(value) <= DB_LIMIT


def _check_grid(grid, name, predicate) -> None:
    if not isinstance(grid, list) or not grid:
        raise ConfigError(f"{name} must be a nonempty list")
    for entry in grid:
        if not predicate(entry):
            raise ConfigError(f"{name} has invalid entry {entry!r}")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{name} has duplicate entries; each would write the same rows twice")
