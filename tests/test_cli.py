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


def test_validate_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", "--config", str(path)]) == 1


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
        "f9172ad1bddcfc1fb4a5ec5d752366372a7f093f0eaae233f0fe434bd458da56",
        "2b1216fadd16964a3793b6568864f6651b05f33493cc8be47ecfc1e621bd3d28",
    ),
    "fig-capacity-vs-bits": (
        "9b751b1544578f16ed0d9d8dd96f0f227d5385622e595d29e9ba395ac5e19efe",
        "e639183c1ef45eee7248d93cc82b73ce4caf6cd3a4ec031b0798810b346ca676",
    ),
    "fig-capacity-vs-bandwidth-snr": (
        "63739661f055fd9a957a805a041756810f8ff58720347e172495fd0d7b662bdc",
        "b5c701c64eaee12d9f9e83157a0a76b514f72e245db0a03948f98219011b4f34",
    ),
    "fig-capacity-vs-bandwidth-gamma": (
        "147c31c106709abe13beebe00760b56799fb8a5d53649b6fa647f204b24d6168",
        "ddc0ad12c4c3737e43f19816c2ff25713ce924ff58275b8ad5be8f7fb9c34be2",
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
