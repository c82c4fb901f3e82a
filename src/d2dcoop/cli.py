"""Command-line front end: run a config, run a preset, or validate a config."""

import argparse
import sys

from .config import PRESET_NAMES, ConfigError, load_config, preset_config
from .harness import grid_points, run_experiment, write_outputs


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
        results = run_experiment(config)
        written = write_outputs(args.out, config, results)
        points = sum(1 for _ in grid_points(config))
        failed = sum(result.num_failed for result in results)
        print(
            f"wrote {points * config.num_trials} trial records over {points} "
            f"grid points ({failed} ill-conditioned trials excluded)"
        )
        for path in written:
            print(f"  {path}")
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
