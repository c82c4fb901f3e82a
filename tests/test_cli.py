import ast
import csv
import hashlib
import importlib.util
import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import d2dcoop
import d2dcoop.cli
import d2dcoop.harness
from d2dcoop.cli import main
from d2dcoop.config import ConfigError, ExperimentConfig, preset_config


def write_config(path, **overrides):
    data = dict(
        M=16,
        L=8,
        D=6,
        user_count_grid=[4],
        snr_db_grid=[-5.0],
        b_grid=[2],
        num_trials=3,
        master_seed=7,
    )
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


def test_validate_accepts_good_config(tmp_path, capsys):
    path = write_config(tmp_path / "good.json")
    assert main(["validate", "--config", str(path)]) == 0
    assert "config OK" in capsys.readouterr().out


def test_validate_rejects_unknown_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"M": 16, "nonsense": True}))
    assert main(["validate", "--config", str(path)]) == 1
    assert "unknown config fields" in capsys.readouterr().err


def test_validate_rejects_oversized_codebook(tmp_path, capsys):
    path = write_config(tmp_path / "huge.json", b_grid=[10**30])
    assert main(["validate", "--config", str(path)]) == 1
    assert capsys.readouterr().err.startswith("config error: ")


def test_validate_rejects_a_sweep_over_the_memory_budget(tmp_path, capsys):
    # the records and drawn trials of 10**15 trials would exhaust memory
    # mid-run. At 250,000 trials the bits preset's records are 0.48 GB, its
    # drawn trials of 3, 4 and 5 users 0.43 GB and the five-user selection
    # state 0.2 GB: over the 1 GiB budget. The verdict is checked first on its
    # own, so a model that admits the sweep fails here instead of running it
    path = write_config(tmp_path / "long.json", num_trials=10**15)
    assert main(["validate", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: num_trials=1000000000000000 makes ")
    assert " record rows" in err
    with pytest.raises(ConfigError, match="num_trials=250000 makes 12000000 record rows"):
        preset_config("fig-capacity-vs-bits", 250_000)
    out = tmp_path / "bits"
    assert main(["preset", "fig-capacity-vs-bits", "--trials", "250000", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(
        "config error: num_trials=250000 makes 12000000 record rows"
    )
    assert not out.exists()


def test_validate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for content in (b"{oops", b'\xff\xfe{"M": 16}'):  # not JSON; not UTF-8
        path.write_bytes(content)
        assert main(["validate", "--config", str(path)]) == 1
        assert "config error" in capsys.readouterr().err


def test_run_writes_outputs(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out), "--threads", "2"]) == 0
    assert (out / "trials.csv").exists()
    assert (out / "aggregate.csv").exists()
    lines = (out / "trials.csv").read_text().splitlines()
    assert len(lines) == 1 + 3  # one grid point, three trials


def test_summary_counts_each_ill_conditioned_trial_once(tmp_path, capsys):
    # a narrow scattering sector leaves some channels ill-conditioned; each
    # such trial is flagged at all six grid points but is one excluded trial
    config = write_config(
        tmp_path / "config.json",
        D=4,
        snr_db_grid=[-5.0, 0.0, 5.0],
        b_grid=[2, 3],
        num_trials=40,
        sector_spread=0.01,
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 0
    with open(out / "trials.csv", encoding="utf-8") as fh:
        failed = {row["trial"] for row in csv.DictReader(fh) if row["cond_fail"] == "1"}
    assert len(failed) == 12
    assert "(12 ill-conditioned trials excluded)" in capsys.readouterr().out


def test_user_count_without_usable_trial_fails_before_writing(tmp_path, capsys):
    # a point-like sector leaves every channel of 2 and of 3 users singular
    config = write_config(
        tmp_path / "config.json", user_count_grid=[2, 3], sector_spread=1e-9, num_trials=3
    )
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: all 3 trials of 2 users are ill-conditioned")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "preset"])
def test_json_flag_is_rejected(tmp_path, command):
    # the CSVs are the one output: --json is a usage error, before any file
    source = {
        "preset": ["preset", "fig-capacity-vs-snr", "--trials", "2"],
        "run": ["run", "--config", str(write_config(tmp_path / "config.json"))],
    }[command]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        main([*source, "--out", str(out), "--json"])
    assert info.value.code == 2
    assert not out.exists()


def test_preset_subcommand(tmp_path):
    out = tmp_path / "fig2"
    code = main(
        [
            "preset",
            "fig-capacity-vs-snr",
            "--out",
            str(out),
            "--trials",
            "2",
            "--seed",
            "5",
            "--threads",
            "2",
        ]
    )
    assert code == 0
    config = preset_config("fig-capacity-vs-snr", num_trials=2, master_seed=5)
    points = len(config.snr_db_grid) * len(config.b_grid)
    lines = (out / "trials.csv").read_text().splitlines()
    assert len(lines) == 1 + points * 2


@pytest.mark.parametrize("command", ["preset", "run"])
def test_a_run_checks_its_config_once(tmp_path, monkeypatch, command):
    # the config checks itself when built; nothing downstream checks it again
    checked = []
    validate = ExperimentConfig.validate

    def spy(config):
        checked.append(config)
        validate(config)

    monkeypatch.setattr(ExperimentConfig, "validate", spy)
    source = {
        "preset": ["preset", "fig-capacity-vs-snr", "--trials", "2"],
        "run": ["run", "--config", str(write_config(tmp_path / "config.json"))],
    }[command]
    assert main([*source, "--out", str(tmp_path / "out")]) == 0
    assert len(checked) == 1


def test_readme_cli_synopsis_parses():
    # every command of the README's CLI block, its [...] parts included and
    # its placeholders N, S and T set to 1, must parse: a flag deleted from
    # the parser must not linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [line for line in block.splitlines() if line.startswith("d2dcoop")]
    assert len(commands) == 3
    for command in commands:
        words = shlex.split(command.replace("[", "").replace("]", ""))[1:]
        d2dcoop.cli.build_parser().parse_args(["1" if w in ("N", "S", "T") else w for w in words])


def test_preset_rejects_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["preset", "fig-made-up", "--out", str(tmp_path)])
    assert info.value.code != 0


@pytest.mark.parametrize("flag, value", [("--trials", "0"), ("--seed", "-1")])
def test_preset_rejects_bad_override(tmp_path, capsys, flag, value):
    out = tmp_path / "results"
    assert main(["preset", "fig-capacity-vs-snr", flag, value, "--out", str(out)]) == 1
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_integer_spelling_writes_the_same_bytes(tmp_path):
    # 0 and 0.0 are one experiment: both spellings of the float fields
    # write the same CSVs
    spellings = {
        "ints": dict(snr_db_grid=[0], gamma_db_grid=[10], bandwidth_ratio_grid=[2], tau=30),
        "floats": dict(
            snr_db_grid=[0.0], gamma_db_grid=[10.0], bandwidth_ratio_grid=[2.0], tau=30.0
        ),
    }
    for name, fields in spellings.items():
        config = write_config(tmp_path / f"{name}.json", mode="quantized-rsi", **fields)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / name)]) == 0
    for output in ("trials.csv", "aggregate.csv"):
        ints, floats = ((tmp_path / name / output).read_bytes() for name in spellings)
        assert ints == floats
        assert b",0.0,10.0,2.0," in floats


def test_cli_runs_are_byte_identical(tmp_path):
    config = write_config(tmp_path / "config.json", num_trials=4, snr_db_grid=[-5.0, 0.0])
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", str(config), "--out", str(out_a)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out_b)]) == 0
    assert (out_a / "trials.csv").read_bytes() == (out_b / "trials.csv").read_bytes()
    assert (out_a / "aggregate.csv").read_bytes() == (out_b / "aggregate.csv").read_bytes()


# SHA-256 of (trials.csv, aggregate.csv) from `d2dcoop preset NAME --trials 6 --seed 3`
GOLDEN_DIGESTS = {
    "fig-capacity-vs-snr": (
        "7fc4e0c2e2736dfd8bb255d38b3a6541942d93274943171366a06de5bb817ffa",
        "275e2acbbf7871b3b09c35cd0a04142ef13fabba476ee89b0f7cd500a271046a",
    ),
    "fig-capacity-vs-bits": (
        "32d6fd3af1ac03d909451293c7b9a162ef08cf62dedb0e9b5a8fd7add34a8d7d",
        "5e844e8db1b91523da13150688fe338489a34369ecf79142d2132798a165ab8b",
    ),
    "fig-capacity-vs-bandwidth-snr": (
        "14981dd8324b80f71be7c6f85c5a645242979b243f152dca93c4f58a77278a46",
        "7f23e76a2d4e8d679efca2c0440b494b7f44b81cd2f3b75e778fc8e7a3582598",
    ),
    "fig-capacity-vs-bandwidth-gamma": (
        "f718e565dbc3257a85a04e119267c99accd17751915b86f62d8482549712d68c",
        "6fd85fa679384ff62d84ae17fb9a505367f473fe42123132af8bef81b3a8fff2",
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
def test_preset_outputs_match_golden_digests(tmp_path, preset):
    """Refactors of the sweep must leave the preset outputs byte-identical.

    The digests are tied to the numpy/OpenBLAS build they were recorded
    with (numpy 2.4.6 on scipy-openblas 0.3.31, x86-64): another BLAS
    build may round the last bit differently. They are tied to the SIMD
    targets numpy dispatches to at run time as well: the recording host
    found ``X86_V3``, ``X86_V4``, ``AVX512_ICL`` and ``AVX512_SPR``
    (``np.show_config(mode="dicts")["SIMD Extensions"]``, which a failure
    prints). With the AVX-512 targets off (only ``X86_V3`` found), the
    digests of fig-capacity-vs-bits and fig-capacity-vs-bandwidth-snr move;
    with ``X86_V3`` (AVX2/FMA3) off too, all eight move, and so do the
    codebook stream's own bytes, through ``np.abs`` of a complex array and
    the complex multiply in ``codebook._orthonormalize``. If a change moves
    one, name the rows and columns that moved instead of re-recording it.
    """
    out = tmp_path / preset
    assert main(["preset", preset, "--trials", "6", "--seed", "3", "--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trials.csv", "aggregate.csv")
    )
    assert digests == GOLDEN_DIGESTS[preset], np.show_config(mode="dicts")["SIMD Extensions"]


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_cli_import_skips_scipy():
    # scipy is only needed by the distortion audit, not by any sweep; and a
    # sweep imports nothing lazily but argparse's gettext locale modules: a
    # lazy import on the sweep's path (np.unique's numpy.ma, say) would double
    # a short run's wall time in a fresh process. Nor does a sweep leave
    # memory behind: the 126 rows of this probe leave about 4 KB in free
    # lists, and a leak of 100 B a row would pass the bound
    probe = (
        "import contextlib, io, sys, tempfile, tracemalloc, d2dcoop.cli\n"
        "before = set(sys.modules)\n"
        "tracemalloc.start()\n"
        "with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):\n"
        "    for name in ('fig-capacity-vs-snr', 'fig-capacity-vs-bandwidth-snr'):\n"
        "        d2dcoop.cli.main(['preset', name, '--trials', '2', '--out', out])\n"
        "mine = [tracemalloc.Filter(True, d2dcoop.harness.__file__)]\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(set(sys.modules) - before))\n"
        "print(sum(t.size for t in tracemalloc.take_snapshot().filter_traces(mine).traces))"
    )
    src = str(Path(d2dcoop.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    scipy_modules, lazy_imports, kept = map(ast.literal_eval, result.stdout.splitlines())
    assert scipy_modules == []
    assert set(lazy_imports) <= {"locale", "_locale"}
    assert kept < 16_000


def load_perfbench(name):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_checks_pass_on_a_mixed_sweep(tmp_path):
    # the benchmark's output checks, sweep order and the run_trial
    # reference read by field name, on every record of a quantized sweep
    # with zero-bit links and ill-conditioned trials
    checks = load_perfbench("checks")
    config_path = write_config(
        tmp_path / "config.json", mode="quantized-rsi", user_count_grid=[2, 4],
        sector_spread=0.01, gamma_db_grid=[10.0], bandwidth_ratio_grid=[0.5, 2.0],
    )
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    config = d2dcoop.config.load_config(config_path)
    points = list(d2dcoop.harness.grid_points(config))
    trial_rows = checks.read_rows(tmp_path / "trials.csv")
    aggregate_rows = checks.read_rows(tmp_path / "aggregate.csv")
    assert {row["cond_fail"] for row in trial_rows} == {"0", "1"}
    failed, messages = checks.check_sweep(
        trial_rows, aggregate_rows, points, config.num_trials
    )
    assert (failed, messages) == (set(), [])
    assert checks.check_reference(
        trial_rows, points, config.num_trials, config, d2dcoop.harness.run_trial,
        range(len(trial_rows)),
    ) == []


def test_traced_benchmark_names_resolve():
    # perfbench/spans.py swaps these module globals for timing wrappers by
    # name, so a refactor that drops one must fail here, not mid-benchmark
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for module, table in (
        (d2dcoop.harness, spans.HARNESS_SPANS),
        (d2dcoop.cli, spans.CLI_SPANS),
    ):
        missing = [name for name in table if not callable(vars(module).get(name))]
        assert not missing, f"{module.__name__} lacks {missing}"
    # the recorder also binds these arguments by name
    bound_by_name = {
        "generate_codebook": ("num_users", "bits"),
        "quantized_snr": ("link",),
        "empirical_snr": ("decoding", "num_symbols"),
        "run_trial": ("config", "point", "trial"),
        "select_codeword": ("codebook",),
    }
    for name, params in bound_by_name.items():
        signature = inspect.signature(vars(d2dcoop.harness)[name])
        absent = [param for param in params if param not in signature.parameters]
        assert not absent, f"harness.{name} lacks parameters {absent}"


def test_keep_alive_imports_are_traced():
    # harness imports these names, unused by the sweep, only for
    # perfbench/spans.py to wrap: once a span goes, this names the import
    spans = load_perfbench("spans")
    source = inspect.getsource(d2dcoop.harness).splitlines()
    kept = [line.split("#")[0].split()[-1] for line in source if "# noqa: F401" in line]
    untraced = [name for name in kept if name not in spans.HARNESS_SPANS]
    assert not untraced, f"harness imports {untraced} for no span of HARNESS_SPANS"


def load_paired_perfbench():
    path = Path(__file__).resolve().parents[1] / "scripts" / "paired_perfbench.py"
    spec = importlib.util.spec_from_file_location("paired_perfbench", path)
    paired = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(paired)
    return paired


def test_paired_perfbench_claim_rule():
    # the claim rule: the change wins at least 9 pairs in 10, and the medians
    # differ by more than the parent's quartile spread, in the better direction
    paired = load_paired_perfbench()
    parent = [10.0, 10.2, 10.4, 10.1, 10.3, 10.2, 10.0, 10.4, 10.1, 10.3]
    faster = [x - 1.0 for x in parent]
    row = paired.summary("ms", "lower", parent, faster)
    assert row.endswith("| 10 of 10 | yes | n/a |")
    # nine wins of ten still claim; a win under the parent's spread does not
    row = paired.summary("ms", "lower", parent, faster[:9] + [11.0])
    assert row.endswith("| 9 of 10 | yes | n/a |")
    assert paired.summary("ms", "lower", parent, [x - 0.1 for x in parent]).endswith("| no | n/a |")
    # for a higher-is-better metric the same numbers are losses
    assert paired.summary("share", "higher", parent, faster).endswith("| 0 of 10 | no | n/a |")


@pytest.mark.parametrize("bad_side", [None, "parent", "change"])
def test_paired_perfbench_counts_incorrect_runs(tmp_path, monkeypatch, capsys, bad_side):
    # a run whose output failed perfbench's check is counted on its side,
    # and any such run fails the whole comparison
    paired = load_paired_perfbench()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
    (trees["parent"] / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "ms_per_trial_point", "better": "lower"}]})
    )
    seen = []

    def fake_run_once(tree, workload, seed, seconds):
        side = Path(tree).name
        seen.append((side, workload, seed, seconds))
        correct = not (side == bad_side and seed == 8)
        return {"ms_per_trial_point": 1.0 + seed, paired.WALL: 2.0 + seed}, correct

    monkeypatch.setattr(paired, "run_once", fake_run_once)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "snr-sweep",
            "--pairs", "3", "--seconds", "0.5", "--seed", "7"]
    assert paired.main(argv) == (0 if bad_side is None else 1)
    # the first side alternates from pair to pair
    assert [(side, seed) for side, _, seed, _ in seen] == [
        ("parent", 7), ("change", 7), ("change", 8), ("parent", 8), ("parent", 9), ("change", 9),
    ]
    out = capsys.readouterr().out
    counts = {side: int(side == bad_side) for side in trees}
    assert f"incorrect runs: parent {counts['parent']} of 3, change {counts['change']} of 3" in out
    assert out.count("INCORRECT OUTPUT") == sum(counts.values())
    assert f"| {paired.WALL} | 10 (9.5–10.5) | 10 (9.5–10.5) | 1.0000 | 0 of 3 | no | n/a |" in out


# a stand-in for perfbench/run.py: it writes a record with the given output
# digests, a different trials.csv digest at the seeds listed, and prints a result
FAKE_PERFBENCH = """
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed = int(args["--seed"])
digests = {"trials.csv": "%s" if seed in %r else "t", "aggregate.csv": "a"}
os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
path = os.path.join("perfbench", "out", f"{args['--workload']}-seed{seed}-trace0.json")
with open(path, "w") as fh:
    json.dump({"wall": {"ms_per_trial_point": 1.0 + seed}, "digests": digests}, fh)
print(json.dumps({"metrics": {"ms_per_trial_point": {"value": 2.0}}, "correct": True}))
"""


def test_paired_perfbench_counts_pairs_with_equal_digests(tmp_path, capsys):
    # each run's record gives its output digests; a pair counts when both
    # sides wrote the same files at its seed, and the count leaves the exit code
    paired = load_paired_perfbench()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    differs = {"parent": [], "change": [8]}
    for side, tree in trees.items():
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text(FAKE_PERFBENCH % (side, differs[side]))
    (trees["parent"] / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [{"name": "ms_per_trial_point", "better": "lower"}]})
    )
    values, correct = paired.run_once(str(trees["change"]), "snr-sweep", 8, 0.5)
    assert correct and values[paired.WALL] == 9.0
    assert values[paired.DIGESTS] == {"trials.csv": "change", "aggregate.csv": "a"}
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "snr-sweep",
            "--pairs", "3", "--seconds", "0.5", "--seed", "7"]
    assert paired.main(argv) == 0
    out = capsys.readouterr().out
    assert "equal output digests (trials.csv, aggregate.csv): 2 of 3 pairs" in out


@pytest.mark.parametrize(
    "better, parent, change, verdict",
    [
        # the change's median is 20 % worse: past the 10 % bound
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.2, 1.2, 1.2, 1.2], "worse"),
        ("higher", [1.0, 1.0, 1.0, 1.0], [0.8, 0.8, 0.8, 0.8], "worse"),
        # the parent's quartiles spread 1.0 apart, past 10 % of its median
        ("lower", [1.0, 2.0, 1.0, 2.0], [1.5, 1.5, 1.5, 1.5], "unresolved"),
        # ... unless every change run beats every parent run
        ("lower", [1.0, 2.0, 1.0, 2.0], [0.5, 0.5, 0.5, 0.5], "no"),
        # 5 % worse is within the bound
        ("lower", [1.0, 1.0, 1.0, 1.0], [1.05, 1.05, 1.05, 1.05], "no"),
    ],
)
def test_paired_perfbench_regression_verdict(tmp_path, monkeypatch, capsys,
                                             better, parent, change, verdict):
    # worse: the change's median is worse by more than the bound, a fraction of
    # the parent's median; unresolved: the parent's spread exceeds that margin
    paired = load_paired_perfbench()
    trees = {side: tmp_path / side for side in ("parent", "change")}
    for tree in trees.values():
        (tree / "perfbench").mkdir(parents=True)
        (tree / "perfbench" / "run.py").write_text("")
    metric = {"name": "metric", "better": better, "bound": 0.1}
    (trees["parent"] / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [metric]}))
    values = {"parent": parent, "change": change}

    def fake_run_once(tree, workload, seed, seconds):
        return {"metric": values[Path(tree).name][seed], paired.WALL: 1.0}, True

    monkeypatch.setattr(paired, "run_once", fake_run_once)
    argv = [str(trees["parent"]), str(trees["change"]), "--workload", "snr-sweep",
            "--pairs", "4", "--seconds", "0.5", "--seed", "0"]
    assert paired.main(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("| ")]
    assert rows[0].endswith("| regression |")
    assert rows[1].startswith("| metric |") and rows[1].endswith(f"| {verdict} |")
    assert rows[2].startswith(f"| {paired.WALL} |") and rows[2].endswith("| n/a |")
