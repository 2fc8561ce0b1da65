"""CLI behaviour: modes, exit codes, precedence, and output files."""

from __future__ import annotations

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qduplex
from qduplex.cli import main
from qduplex.session import Transcript, audit_custody

GOLDEN = None  # resolved per test via request.path


def run_cli(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# table-check


def test_table_check_verifies_all_combinations(capsys):
    code, out, _ = run_cli(capsys, "--mode", "table-check")
    assert code == 0
    assert "16/16" in out
    # the grid itself: one row per op, readable state names
    assert out.count("psi_minus") + out.count("psi_plus") >= 8


@pytest.mark.parametrize(
    "name, code_expected, argv",
    [
        pytest.param("table_check", 0, ["--mode", "table-check"], id="table_check"),
        pytest.param("roundtrip", 0, [
            "--mode", "roundtrip", "--pairs", "16", "--check-fraction", "0.25", "--decoys", "2",
            "--seed", "1", "--alice-msg", "a5", "--bob-msg", "5a3c",
        ], id="roundtrip"),
        pytest.param("roundtrip_abort", 3, [
            "--mode", "roundtrip", "--pairs", "16", "--check-fraction", "0.5", "--decoys", "0",
            "--eve", "intercept-z", "--seed", "0",
        ], id="roundtrip_abort"),
        pytest.param("security_sweep", 0, [
            "--mode", "security-sweep", "--pairs", "16", "--check-fraction", "0.5", "--decoys", "0",
            "--eve", "intercept-rand", "--eve-prob", "0.5", "--trials", "20", "--seed", "5",
        ], id="security_sweep"),
        pytest.param("info_estimate", 0, [
            "--mode", "info-estimate", "--pairs", "32", "--check-fraction", "0.125",
            "--decoys", "2", "--eve", "intercept-z", "--eve-prob", "0.1", "--trials", "8",
            "--seed", "3",
        ], id="info_estimate"),
    ],
)
def test_table_check_golden_csv(capsys, tmp_path, request, name, code_expected, argv):
    """Every mode's CSV and sidecar are pinned byte for byte, wherever --out points."""
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, *argv, "--out", str(out_path))
    assert code == code_expected
    golden = request.path.parent / "golden" / f"{name}.csv"
    assert out_path.read_bytes() == golden.read_bytes()
    sidecar = tmp_path / "table.csv.meta.json"
    assert sidecar.read_bytes() == golden.with_name(f"{name}.csv.meta.json").read_bytes()
    meta = json.loads(sidecar.read_text())
    assert meta["tool"] == "qduplex"
    assert meta["mode"] == argv[1]
    assert meta["config_hash"] in out_path.read_text()


# ---------------------------------------------------------------------------
# roundtrip


def test_roundtrip_hex_messages_match(capsys):
    code, out, _ = run_cli(
        capsys,
        "--mode", "roundtrip", "--pairs", "16", "--check-fraction", "0.25",
        "--decoys", "2", "--seed", "1", "--alice-msg", "a5", "--bob-msg", "5a3c",
    )
    assert code == 0
    assert "run completed" in out
    assert "alice -> bob: a5 (match)" in out
    assert "bob -> alice: 5a3c (match)" in out


def test_roundtrip_default_random_messages(capsys):
    code, out, _ = run_cli(capsys, "--mode", "roundtrip", "--pairs", "16", "--decoys", "2")
    assert code == 0
    assert out.count("(match)") == 2


def test_roundtrip_abort_exit_code(capsys):
    code, out, _ = run_cli(
        capsys,
        "--mode", "roundtrip", "--pairs", "16", "--check-fraction", "0.5",
        "--decoys", "0", "--eve", "intercept-z", "--seed", "0",
    )
    assert code == 3
    assert "run aborted in first_check" in out


def test_roundtrip_transcript_file(capsys, tmp_path):
    path = tmp_path / "run.jsonl"
    code, out, _ = run_cli(
        capsys,
        "--mode", "roundtrip", "--pairs", "8", "--decoys", "1", "--seed", "4",
        "--transcript", str(path),
    )
    assert code == 0
    assert str(path) in out
    transcript = Transcript.read_jsonl(path)
    assert transcript.completed
    assert transcript.config["n_pairs"] == 8
    assert audit_custody(transcript) == []


def test_roundtrip_message_from_file(capsys, tmp_path):
    blob = tmp_path / "payload.bin"
    blob.write_bytes(b"\xca\xfe")
    code, out, _ = run_cli(
        capsys,
        "--mode", "roundtrip", "--pairs", "16", "--decoys", "2",
        "--alice-msg", f"@{blob}", "--bob-msg", "00",
    )
    assert code == 0
    assert "alice -> bob: cafe (match)" in out


def test_roundtrip_csv_row(capsys, tmp_path):
    out_path = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys,
        "--mode", "roundtrip", "--pairs", "16", "--decoys", "2", "--seed", "2",
        "--alice-msg", "beef", "--out", str(out_path),
    )
    assert code == 0
    with open(out_path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["completed"] == "True"
    assert row["alice_decoded_ok"] == "True"
    assert row["bob_decoded_ok"] == "True"
    assert row["alice_payload_bits"] == "16"
    assert row["abort_phase"] == ""
    assert row["eve"] == "none"


# ---------------------------------------------------------------------------
# estimator modes


SWEEP_HEADER = [
    "mode", "eve", "eve_prob", "pairs", "check_fraction", "decoys", "trials",
    "checked_photons", "violations", "per_photon_rate",
    "per_photon_ci_low", "per_photon_ci_high", "predicted_per_photon_rate",
    "aborted_runs", "abort_rate", "abort_ci_low", "abort_ci_high",
    "predicted_abort_rate", "seed", "config_hash", "version",
]


def test_security_sweep_outputs_and_determinism(capsys, tmp_path):
    args = (
        "--mode", "security-sweep", "--pairs", "8", "--check-fraction", "0.25",
        "--decoys", "0", "--eve", "intercept-z", "--trials", "40", "--seed", "3",
    )
    first = tmp_path / "sweep1.csv"
    code, out, _ = run_cli(capsys, *args, "--out", str(first))
    assert code == 0
    assert "per-photon rate" in out
    assert "predicted 0.2500" in out
    with open(first, newline="") as fh:
        reader = csv.reader(fh)
        assert next(reader) == SWEEP_HEADER
        (row,) = list(reader)
    assert row[SWEEP_HEADER.index("checked_photons")] == str(40 * 2)
    second = tmp_path / "sweep2.csv"
    code, _, _ = run_cli(capsys, *args, "--out", str(second))
    assert code == 0
    assert first.read_bytes() == second.read_bytes()
    meta1 = json.loads((tmp_path / "sweep1.csv.meta.json").read_text())
    meta2 = json.loads((tmp_path / "sweep2.csv.meta.json").read_text())
    assert meta1 == meta2
    assert meta1["spec"]["trials"] == 40


def test_info_estimate_outputs(capsys, tmp_path):
    out_path = tmp_path / "info.csv"
    code, out, _ = run_cli(
        capsys,
        "--mode", "info-estimate", "--pairs", "8", "--decoys", "1",
        "--trials", "30", "--seed", "2", "--out", str(out_path),
    )
    assert code == 0
    assert "30/30 runs completed" in out
    assert "bits/pair" in out
    with open(out_path, newline="") as fh:
        (row,) = list(csv.DictReader(fh))
    assert row["completed_runs"] == "30"
    assert row["eve_guess_vs_alice_bits"] == "0.0"


def test_info_estimate_reports_insufficient_survivors(capsys):
    code, _, err = run_cli(
        capsys,
        "--mode", "info-estimate", "--pairs", "128", "--check-fraction", "0.5",
        "--decoys", "0", "--eve", "intercept-z", "--trials", "3", "--seed", "1",
    )
    assert code == 2
    assert "completed runs" in err


# ---------------------------------------------------------------------------
# config file and precedence


def test_config_file_flags_override(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# experiment block\n"
        "mode = roundtrip\n"
        "pairs = 8\n"
        "check-fraction = 0.25\n"
        "decoys = 1\n"
        "seed = 5\n"
    )
    out_path = tmp_path / "run.csv"
    code, _, _ = run_cli(
        capsys, "--config", str(cfg), "--seed", "9", "--out", str(out_path)
    )
    assert code == 0
    meta = json.loads((tmp_path / "run.csv.meta.json").read_text())
    assert meta["spec"]["pairs"] == 8  # from the file
    assert meta["spec"]["seed"] == 9  # flag wins
    assert meta["spec"]["check_fraction"] == 0.25


def test_config_file_errors(capsys, tmp_path):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("mode=roundtrip\nphoton_count=9\n")
    assert run_cli(capsys, "--config", str(unknown))[0] == 2
    bad_value = tmp_path / "bad.cfg"
    bad_value.write_text("mode=roundtrip\npairs=several\n")
    assert run_cli(capsys, "--config", str(bad_value))[0] == 2
    no_equals = tmp_path / "noeq.cfg"
    no_equals.write_text("mode roundtrip\n")
    assert run_cli(capsys, "--config", str(no_equals))[0] == 2
    code, _, err = run_cli(capsys, "--config", str(tmp_path / "missing.cfg"))
    assert code == 2
    assert "config file" in err


# ---------------------------------------------------------------------------
# error handling and exit codes


@pytest.mark.parametrize(
    "argv",
    [
        [],  # no mode at all
        ["--mode", "dance"],  # not a mode
        ["--mode", "roundtrip", "--alice-msg", "zz"],  # not hex
        ["--mode", "roundtrip", "--eve", "mitm"],  # unknown attack
        ["--mode", "roundtrip", "--check-fraction", "1.5"],
        ["--mode", "roundtrip", "--pairs", "1"],
        ["--mode", "roundtrip", "--pairs", "8", "--decoys", "6"],
        ["--mode", "roundtrip", "--pairs", "8", "--decoys", "1", "--alice-msg", "aabbccdd"],
        ["--no-such-flag"],
    ],
)
def test_bad_invocations_exit_2(capsys, argv):
    assert run_cli(capsys, *argv)[0] == 2


def test_unwritable_output_path_exits_2(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "--mode", "table-check", "--out", str(tmp_path / "no" / "such" / "dir" / "t.csv"),
    )
    assert code == 2
    assert "error:" in err


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "--mode" in out


def _declared_entry_point(name: str) -> str:
    """The ``module:attr`` target of a ``[project.scripts]`` entry."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        return tomllib.load(fh)["project"]["scripts"][name]


def test_installed_entry_point(tmp_path):
    """The console script declared for installation starts and exits with main's code.

    Reads the ``qduplex`` target from ``pyproject.toml``, imports it, and runs
    it in a fresh interpreter the way the setuptools-generated wrapper does
    (``sys.exit(<attr>())``), with this checkout first on ``PYTHONPATH``. No
    install is needed; ``test_console_script_on_path`` is what checks an
    actual installed wrapper.
    """
    target = _declared_entry_point("qduplex")
    module_name, _, attr = target.partition(":")
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr))

    wrapper = (
        "import sys\n"
        f"from {module_name} import {attr}\n"
        "sys.argv[0] = 'qduplex'\n"
        f"sys.exit({attr}())\n"
    )
    checkout = str(Path(qduplex.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [checkout, env.get("PYTHONPATH")]))

    def run(*argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
        )

    proc = run("--mode", "table-check")
    assert proc.returncode == 0, proc.stderr
    assert "16/16" in proc.stdout
    assert run("--mode", "bogus").returncode == 2


@pytest.mark.skipif(shutil.which("qduplex") is None, reason="qduplex console script not on PATH")
def test_console_script_on_path():
    proc = subprocess.run(
        [shutil.which("qduplex"), "--mode", "table-check"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "16/16" in proc.stdout
