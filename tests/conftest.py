import dataclasses

import numpy as np
import pytest
from scipy.stats import unitary_group

# the (S, 1) column of noise powers the sweep passes, here -10, -2.5, 0 and 7.5 dB
NOISE_COLUMN = np.array([[10.0 ** (-snr_db / 10.0)] for snr_db in (-10.0, -2.5, 0.0, 7.5)])


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=rng)


def gaussian_effective_channel(rng, dim=6, users=4) -> np.ndarray:
    """Generic full-rank effective channel with i.i.d. CN(0,1) entries."""
    return (
        rng.standard_normal((dim, users)) + 1j * rng.standard_normal((dim, users))
    ) / np.sqrt(2.0)


def inverse_of(h_e) -> np.ndarray:
    """Gram inverse of an effective channel, taken from its eigen-spectrum."""
    from d2dcoop import eigen_spectrum, gram_inverse

    return gram_inverse(*eigen_spectrum(h_e))


def average_snr(decoding, gram_inv, noise_power) -> float:
    """Average SNR of one decoding matrix, scored by the production selector."""
    from d2dcoop import select_codeword

    return select_codeword(np.asarray(decoding)[None], gram_inv, noise_power)[2]


def pipeline_channel(rng, num_antennas=64, num_paths=20, effective_dim=6, users=4):
    """One realistic channel through the full inner-precoder pipeline."""
    from d2dcoop import (
        draw_environment,
        effective_channel,
        inner_precoder,
        sample_channel,
    )

    env = draw_environment(num_antennas, num_paths, rng)
    h = sample_channel(env, users, rng)
    w = inner_precoder(env, effective_dim)
    return env, h, w, effective_channel(w, h)


def assert_broadcasts_like_scalar_calls(fn):
    """``fn(noise_power)`` on ``NOISE_COLUMN`` equals its stacked scalar calls
    bitwise, and a nonpositive entry anywhere raises ``fn``'s own error."""
    stacked = np.asarray(fn(NOISE_COLUMN))
    expected = np.stack([fn(noise_power) for noise_power in NOISE_COLUMN[:, 0].tolist()])
    assert stacked.shape[0] == len(NOISE_COLUMN)
    assert stacked.reshape(expected.shape).tobytes() == expected.tobytes()
    for bad in ([[1.0], [0.0]], [[-1.0], [2.0]], [1.0, 2.0, -3.0]):
        with pytest.raises(ValueError, match="noise_power must be positive"):
            fn(np.array(bad))


def assert_stacks_like_row_calls(fn, *stacks):
    """``fn`` on ``stacks`` (a leading trial axis each) equals, bitwise, its
    row-by-row calls stacked in order."""
    stacked = np.asarray(fn(*stacks))
    expected = np.stack([fn(*rows) for rows in zip(*stacks, strict=True)])
    assert stacked.shape == expected.shape
    assert stacked.tobytes() == expected.tobytes()


def collect_choices(pairs) -> dict:
    """``{b: (indices, codewords)}`` from the pairs ``select_prefix_codewords``
    yields, each copied, strides kept, before the next is asked for: scoring
    goes on in the arrays it yields."""
    return {bits: (index.copy(), best.copy(order="K")) for bits, (index, best) in pairs}


def columns(config, results):
    """``run_experiment`` results as two ``{field: list}`` tables in sweep order:
    the records over ``harness.TRIAL_FIELDS`` and the summaries over
    ``harness.SUMMARY_FIELDS``, read from each ``harness.CountResult``'s arrays
    as Python values, with None for NaN."""
    from d2dcoop.harness import SUMMARY_FIELDS, TRIAL_FIELDS, grid_points

    def nones(values):
        return [None if value != value else value for value in values.tolist()]

    keys = grid_points(config)
    records, summaries = [], []
    for result in results:
        ids, cond_fail = result.trials.ids.tolist(), (~result.trials.usable).astype(int).tolist()
        counts = (len(result.trials.a_inv), result.num_failed)
        for values, stats in zip(result.values.swapaxes(0, 1), result.stats.T):
            key = dataclasses.astuple(next(keys))
            coop, zf, ideal, bound, overload = map(nones, values)
            rows = zip(ids, coop, zf, ideal, bound, cond_fail, overload)
            records += [(*key, *row) for row in rows]
            summaries.append((*key, *nones(stats), *counts))
    return (
        {name: list(column) for name, column in zip(TRIAL_FIELDS, zip(*records))},
        {name: list(column) for name, column in zip(SUMMARY_FIELDS, zip(*summaries))},
    )
