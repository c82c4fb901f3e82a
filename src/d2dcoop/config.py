"""Declarative experiment configuration and the built-in figure presets.

A config is a plain JSON object with exactly the fields of
:class:`ExperimentConfig`; unknown fields are rejected so a typo cannot
silently change an experiment. Field names follow the conventional
symbols: ``M`` transmit antennas, ``D`` effective-channel dimension,
``L`` propagation paths; ``user_count_grid`` sweeps the user count P.
"""

import dataclasses
import json
import math
import sys
from dataclasses import dataclass

from .channel import path_temporary_elements
from .codebook import BLOCK, DEFAULT_BUDGET_BYTES, ELEMENT_BOUND, over_budget, part_elements
from .quantization import link_variances

MODES = ("ideal-rsi", "quantized-rsi")

_SNR_GRID_WIDE = [-10.0, -7.5, -5.0, -2.5, 0.0, 2.5, 5.0, 7.5, 10.0]

# the built-in figure sweeps, each by its fields that differ from the
# ExperimentConfig defaults; preset_config documents them
PRESETS = {
    "fig-capacity-vs-snr": dict(snr_db_grid=_SNR_GRID_WIDE, b_grid=[6, 12]),
    "fig-capacity-vs-bits": dict(b_grid=list(range(1, 17)), user_count_grid=[3, 4, 5]),
    "fig-capacity-vs-bandwidth-snr": dict(
        snr_db_grid=_SNR_GRID_WIDE,
        bandwidth_ratio_grid=[0.6, 1.2, 2.4, 4.8, 9.6],
        mode="quantized-rsi",
    ),
    "fig-capacity-vs-bandwidth-gamma": dict(
        gamma_db_grid=[0.0, 5.0, 10.0],
        bandwidth_ratio_grid=[0.25, 0.5, 1.0, 2.0, 4.0, 8.0],
        mode="quantized-rsi",
    ),
}
PRESET_NAMES = tuple(PRESETS)

# 10**(-x/10) stays a normal positive float for |x| <= 300 dB; beyond it
# noise powers and link SNRs underflow to 0 or overflow
DB_LIMIT = 300.0


class ConfigError(ValueError):
    """Invalid or unknown experiment configuration content."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo sweep, checked by :meth:`validate` when built.

    Frozen, with tuple grids, so it stays valid; ``dataclasses.replace`` checks the new
    config. Grids are swept as a Cartesian product; ``gamma_db_grid`` and
    ``bandwidth_ratio_grid`` only apply in ``quantized-rsi`` mode, but are validated in
    both. ``user_count_grid`` alone sets the user counts. Downlink SNR in dB maps to noise
    power ``N0 = 10**(-snr_db/10)`` under unit transmit symbol power.
    """

    M: int = 64
    D: int = 6
    L: int = 20
    sector_center: float = 0.0
    sector_spread: float = math.pi
    snr_db_grid: tuple = (-5.0,)
    b_grid: tuple = (6,)
    user_count_grid: tuple = (4,)
    tau: float = 30.0
    gamma_db_grid: tuple = (10.0,)
    bandwidth_ratio_grid: tuple = (1.0,)
    num_trials: int = 200
    master_seed: int = 0
    mode: str = "ideal-rsi"
    figure_preset: str | None = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in ("M", "D", "L", "num_trials"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(f"{name} must be a positive integer, got {_shown(value)}")
            if value >= 2**63:  # the budget rejects it too, but its message would print the digits
                raise ConfigError(f"{name} must be below 2**63")
        if not _is_int(self.master_seed) or not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must be an unsigned 64-bit integer")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {_shown(self.mode)}")
        if self.figure_preset is not None and self.figure_preset not in PRESET_NAMES:
            raise ConfigError(f"unknown figure_preset {_shown(self.figure_preset)}")
        if not _is_finite_number(self.sector_center):
            raise ConfigError("sector_center must be a finite number")
        if not _is_finite_number(self.sector_spread) or self.sector_spread <= 0:
            raise ConfigError("sector_spread must be a positive finite number")
        # draws outside [-pi/2, pi/2) are clipped to its edge; a sector with
        # no overlap puts every path at one angle and no trial is usable
        half = self.sector_spread / 2.0
        low, high = self.sector_center - half, self.sector_center + half
        if not (low < math.pi / 2 and high > -math.pi / 2):
            raise ConfigError("sector must overlap the half-space [-pi/2, pi/2)")
        if not _is_finite_number(self.tau) or self.tau <= 0:
            raise ConfigError("tau must be a positive finite number")

        _check_grid(self.snr_db_grid, "snr_db_grid", _is_db)
        # below 2**63, as the integer fields: the codebook rule rejects more, printing the digits
        _check_grid(self.b_grid, "b_grid", lambda b: _is_int(b) and 0 <= b < 2**63)
        _check_grid(
            self.user_count_grid, "user_count_grid", lambda p: _is_int(p) and 1 <= p < 2**63
        )
        _check_grid(self.gamma_db_grid, "gamma_db_grid", _is_db)
        _check_grid(
            self.bandwidth_ratio_grid,
            "bandwidth_ratio_grid",
            lambda r: _is_finite_number(r) and r > 0,
        )
        # the sweep's own link table; an inf variance would turn the SNRs nan mid-sweep
        try:
            link_variances(self.gamma_db_grid, self.bandwidth_ratio_grid, self.tau)
        except ValueError as exc:
            raise ConfigError(f"a cooperation link is unusable: {exc}") from exc
        worst = max(self.user_count_grid)
        if self.D > min(self.M, self.L):
            raise ConfigError(
                f"D={self.D} exceeds min(M, L), the rank of the spatial covariance; "
                "extra dimensions would carry no channel energy"
            )
        if self.D < worst:
            raise ConfigError(
                f"D={self.D} is below the largest user count {worst}; zero-forcing needs D >= P"
            )
        # the sweep and cell_distortion_audit stream the codebook; only the
        # per-point reference run_trial holds all of it at once
        reason = over_budget(worst, max(self.b_grid))
        if reason:
            raise ConfigError(reason)
        need = self.sweep_bytes()
        if need > DEFAULT_BUDGET_BYTES:
            rows = math.prod(map(len, self.sweep_axes())) * self.num_trials
            audit = ""
            if self.mode == "quantized-rsi":
                tails = worst * 4**worst // 2
                if worst > 1000:  # str refuses 4**P's digits from P = 7143 on
                    tails, need = "2P * 4**(P - 1)", "more than 10**600"
                audit = f", and P={worst} an overload audit of {tails} tails per SNR"
            raise ConfigError(
                f"num_trials={self.num_trials} makes {rows} record rows, M={self.M} and "
                f"L={self.L} a draw temporary of {path_temporary_elements(self.M, self.L)} "
                f"elements{audit}: the sweep needs {need} bytes at its peak, budget is "
                f"{DEFAULT_BUDGET_BYTES}"
            )
        # float fields hold floats, so 0 and 0.0 write the same bytes; grids are tuples
        for name in ("sector_center", "sector_spread", "tau"):
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("snr_db_grid", "gamma_db_grid", "bandwidth_ratio_grid"):
            object.__setattr__(self, name, tuple(float(value) for value in getattr(self, name)))
        for name in ("b_grid", "user_count_grid"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def sweep_axes(self) -> tuple:
        """The five axes in sweep order: P, b, SNR, gamma, Wc/W (one None each in ideal mode)."""
        quantized = self.mode == "quantized-rsi"
        links = (self.gamma_db_grid, self.bandwidth_ratio_grid) if quantized else ([None], [None])
        return (self.user_count_grid, self.b_grid, self.snr_db_grid, *links)

    def sweep_bytes(self) -> int:
        """An upper bound on the bytes a sweep of this validated config holds at once.

        Kept, per trial: every count's drawn trials (id, usable flag, eigenvalues, eigenvectors,
        Gram inverse: 9 + 8P + 32P^2) and records (40 per grid point), and one count's output id
        and flag cells (72) and working state, 48P^2 + 24: selection's running choices, scores and
        weights (24P^2 + 16), the usable index and an evaluation chunk's P x P products (16P^2 a
        trial). Then the codebook stream, 32P^2 + 48P + 64 per codeword of a block: its draw buffer
        and block store (16P^2 each) and ``_orthonormalize``'s column step, three complex
        P-vectors (the column with its conjugate and coefficients, or with the coefficients and
        their product) and 64 B of scalars (row index, anchor index, value, magnitude and phase,
        and norm). Then eight float64 arrays of the largest chunk (``ELEMENT_BOUND``, or
        one item's ``path_temporary_elements``, SNRs or ``part_elements``), which hold any other
        chunk too; in quantized mode one trial's overload audit: 24 a tail (the symbol matrix,
        the means, and their real and imaginary parts in one array) and 41 a tail and SNR,
        held while the second ``_erfc`` runs: five float64 arrays (the first one's result,
        the second's arguments, output, live arguments and their values) and its live mask.
        """
        _, bits, snrs, gammas, ratios = map(len, self.sweep_axes())
        per_b, counts, trials = snrs * gammas * ratios, self.user_count_grid, self.num_trials
        held = trials * (72 + sum(9 + 8 * p + 32 * p * p + 40 * bits * per_b for p in counts))
        users = max(counts)
        stream = (32 * users**2 + 48 * users + 64) * min(1 << max(self.b_grid), BLOCK)
        temporaries = path_temporary_elements(self.M, self.L), part_elements(users)
        chunk = 64 * max(ELEMENT_BOUND, per_b * users, *temporaries)
        quantized = self.mode == "quantized-rsi"  # 2P * 4**(P - 1) overload tails per SNR
        tails = (41 * snrs + 24) * users * 4**users // 2 if quantized else 0
        return held + trials * (48 * users**2 + 24) + stream + chunk + tails

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a config, which validates itself, from a plain dict, rejecting unknown keys."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, object_pairs_hook=_unique_keys, parse_int=_parse_int)
        except ConfigError:  # the repeated-key hook's, which is a ValueError too
            raise
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
        except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
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
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    data = PRESETS[name] | {"figure_preset": name}
    overrides = {"num_trials": num_trials, "master_seed": master_seed}
    data.update((key, value) for key, value in overrides.items() if value is not None)
    return config_from_dict(data)


def _unique_keys(pairs) -> dict:
    # a plain json.load keeps a repeated key's last value and drops the others
    data = {}
    for key, value in pairs:
        if key in data:
            raise ConfigError(f"config repeats the key {key!r}")
        data[key] = value
    return data


def _parse_int(literal: str):
    # int() refuses a literal of more than 4300 digits; as a float it reads as +-inf,
    # which every field rejects by name
    try:
        return int(literal)
    except ValueError:
        return float(literal)


def _shown(value) -> str:
    """``repr`` of a rejected value; ``str`` refuses an integer of more than 4300 digits."""
    try:
        return repr(value)
    except ValueError:
        return "an integer of more than 4300 digits"


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite_number(value) -> bool:
    # ints compare with floats exactly, so one beyond the float range is not finite
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_db(value) -> bool:
    return _is_finite_number(value) and abs(value) <= DB_LIMIT


def _check_grid(grid, name, predicate) -> None:
    if not isinstance(grid, (list, tuple)) or not grid:
        raise ConfigError(f"{name} must be a nonempty list")
    for entry in grid:
        if not predicate(entry):
            raise ConfigError(f"{name} has invalid entry {_shown(entry)}")
    if len(set(grid)) != len(grid):
        raise ConfigError(f"{name} has duplicate entries; each would write the same rows twice")
