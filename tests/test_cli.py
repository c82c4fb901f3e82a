import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import d2dcoop
import d2dcoop.cli
import d2dcoop.harness
from d2dcoop.cli import main
from d2dcoop.config import preset_config


def write_config(path, **overrides):
    data = dict(
        M=16,
        L=8,
        D=6,
        P=4,
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


def test_validate_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    for content in (b"{oops", b'\xff\xfe{"P": 3}'):  # not JSON; not UTF-8
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


def test_run_json_mirror(tmp_path):
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "results"
    assert main(["run", "--config", str(config), "--out", str(out), "--json"]) == 0
    assert (out / "trials.json").exists()
    assert (out / "aggregate.json").exists()


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


def test_preset_rejects_unknown_name(tmp_path):
    with pytest.raises(SystemExit) as info:
        main(["preset", "fig-made-up", "--out", str(tmp_path)])
    assert info.value.code != 0


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
        "673e9d9c46d291431385da8095e5ad0918c38b7cd8891ce73d7871c55fbf426c",
        "5e6acf5efcef5019e08172be691242d6b4bf50a2592d5650b7a0a42fd7635f07",
    ),
    "fig-capacity-vs-bits": (
        "7fbe7214c89041c334c7e972fed993f59524aec418bf5c0f502d0eeef006e732",
        "e815f93b0664ab18ec1c40d18714c2bef023828d4a22b78e3d8a3d3540c5a0ae",
    ),
    "fig-capacity-vs-bandwidth-snr": (
        "a9566619109a7439e1ed734eb10c8aca3c5076bda14ad137d004a0393962c8ad",
        "6c79017a4071bfcca0d5bc70eadb2269969a3b28b5cc9aaefafaa930d29c57e3",
    ),
    "fig-capacity-vs-bandwidth-gamma": (
        "6ad0c368e7ef66d91d51c687f2089a010e1a216d3b3a4b3eb63a7f7d7be9df45",
        "6575d4cc0093ae1035ddf84f532cb02e662ace3e8cb39cdd2587120d0c639bd2",
    ),
}


@pytest.mark.parametrize("preset", sorted(GOLDEN_DIGESTS))
def test_preset_outputs_match_golden_digests(tmp_path, preset):
    """Refactors of the sweep must leave the preset outputs byte-identical.

    The digests are tied to the numpy/OpenBLAS build they were recorded
    with (numpy 2.4.6 on scipy-openblas 0.3.31, x86-64): another BLAS
    build may round the last bit differently. If a change moves one,
    name the rows and columns that moved instead of re-recording it.
    """
    out = tmp_path / preset
    assert main(["preset", preset, "--trials", "6", "--seed", "3", "--out", str(out)]) == 0
    digests = tuple(
        hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("trials.csv", "aggregate.csv")
    )
    assert digests == GOLDEN_DIGESTS[preset]


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == 1


def test_cli_import_skips_scipy():
    # scipy is only needed by the distortion audit, not by any sweep
    probe = (
        "import sys, d2dcoop.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
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
    assert result.stdout.strip() == "[]"


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
