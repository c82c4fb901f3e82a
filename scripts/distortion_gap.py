#!/usr/bin/env python3
"""Audit the quantization-cell distortion approximation 2^(-b/(P-1)).

Prints, per (P, b), the closed-form approximation next to two measured
statistics: the cell distortion of the codebook used as a nearest-match
quantizer of the channel eigenbasis, and the (pairing-resolved)
distortion of the codeword the average-SNR selector actually picks. For
three or more users the second sits above the first because SNR
selection is not a minimum-distortion quantizer; the printed ratios
quantify that gap. For two users it reads about half the first: its
pairing may swap the two columns, which doubles the choices.
Both are measured on the trials and codebook of a default sweep
(``ExperimentConfig`` with ``user_count_grid``, ``b_grid``, ``num_trials``
and ``master_seed`` from the flags), one ``cell_distortion_audit`` per P.
Repeated ``--users`` or ``--bits`` values are audited once.

Usage:
    python scripts/distortion_gap.py [--users 2 3] [--bits 4 6 8 10] [--trials 300]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from d2dcoop import ConfigError, ExperimentConfig, cell_distortion_audit, expected_cell_distortion


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--users", type=int, nargs="+", default=[2, 3])
    ap.add_argument("--bits", type=int, nargs="+", default=[4, 6, 8, 10])
    ap.add_argument("--trials", type=int, default=300)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    if min(args.users) < 2:
        ap.error("--users must be at least 2: one user's cell has no angle")
    # a config names the offending flag's field when it is built:
    # num_trials, b_grid, user_count_grid or master_seed
    try:
        configs = {
            users: ExperimentConfig(
                user_count_grid=[users],
                b_grid=sorted(set(args.bits)),
                num_trials=args.trials,
                master_seed=args.seed,
            )
            for users in dict.fromkeys(args.users)
        }
    except ConfigError as exc:
        ap.error(str(exc))

    print(f"{'P':>3} {'b':>3} {'approx':>10} {'cell':>10} {'ratio':>6} {'selected':>10} {'ratio':>6}")
    for users, config in configs.items():
        for bits, (cell, selected) in cell_distortion_audit(config, users).items():
            approx = expected_cell_distortion(bits, users)
            print(
                f"{users:>3} {bits:>3} {approx:>10.5f} {cell:>10.5f} {cell / approx:>6.2f}"
                f" {selected:>10.5f} {selected / approx:>6.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
