"""Command-line front end: run a config, run a preset, or validate a config."""

import argparse
import sys

from .config import PRESET_NAMES, ConfigError, load_config, preset_config
from .harness import run_experiment, write_outputs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="d2dcoop",
        description="Link-level Monte Carlo experiments for cooperative massive MIMO downlink",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a sweep described by a JSON config")
    run.add_argument("--config", required=True, help="path to the JSON config")
    run.add_argument("--out", required=True, help="output directory for CSV files")
    _common_run_args(run)

    preset = sub.add_parser("preset", help="run one of the built-in figure sweeps")
    preset.add_argument("name", choices=PRESET_NAMES)
    preset.add_argument("--out", required=True, help="output directory for CSV files")
    preset.add_argument("--trials", type=int, default=None, help="override trial count")
    preset.add_argument("--seed", type=int, default=None, help="override master seed")
    _common_run_args(preset)

    validate = sub.add_parser("validate", help="check a JSON config without running it")
    validate.add_argument("--config", required=True)
    return parser


def _common_run_args(sub) -> None:
    sub.add_argument(
        "--threads",
        type=int,
        default=None,
        help="ignored; the sweep runs on one thread",
    )
    sub.add_argument(
        "--json", action="store_true", help="also write JSON mirrors of the CSV files"
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            load_config(args.config)
            print(f"config OK: {args.config}")
            return 0
        if args.command == "run":
            config = load_config(args.config)
        else:
            config = preset_config(args.name, args.trials, args.seed)
        records, summaries = run_experiment(config)
        written = write_outputs(args.out, config, records, summaries, json_mirror=args.json)
        # a channel is drawn once per (users, trial): every point of a user
        # count counts the same failed trials
        failed = sum(dict(zip(summaries["users"], summaries["num_failed"])).values())
        print(
            f"wrote {len(records['trial'])} trial records over {len(summaries['users'])} "
            f"grid points ({failed} ill-conditioned trials excluded)"
        )
        for path in written:
            print(f"  {path}")
        empty = summaries["num_ok"].count(0)
        if empty:
            print(f"error: {empty} grid points have no usable trials", file=sys.stderr)
            return 1
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
