"""CLI behaviour: modes, exit codes, precedence, and output files."""

from __future__ import annotations

import csv
import importlib
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qduplex
from qduplex.cli import _DEFAULTS, _USAGE_ERRORS, _build_parser, _protocol_config, _resolve, main
from qduplex.session import MAX_PAIRS, Transcript, audit_custody

try:
    import resource
except ImportError:  # POSIX only
    resource = None

GOLDEN = None  # resolved per test via request.path


# a capped child's code that runs the CLI on its arguments
CLI_MAIN = "from qduplex.cli import main\nsys.exit(main())\n"


def sparse_file(path: Path, size: int) -> str:
    """Make a sparse file of size bytes of zeros at path, and return the path as a string."""
    with open(path, "wb") as fh:
        fh.truncate(size)
    return str(path)


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


def test_message_of_the_capacity_is_accepted_and_one_byte_more_refused(capsys, tmp_path):
    blob = tmp_path / "payload.bin"
    blob.write_bytes(bytes(range(11)))  # 88 bits: Alice's capacity at 64 pairs, 4 decoys
    code, out, _ = run_cli(capsys, "--mode", "roundtrip", "--alice-msg", f"@{blob}")
    assert code == 0
    assert f"alice -> bob: {bytes(range(11)).hex()} (match)" in out
    code, _, err = run_cli(capsys, "--mode", "roundtrip", "--alice-msg", bytes(range(12)).hex())
    assert (code, err) == (2, "error: alice message of at least 96 bits exceeds capacity 88\n")


@pytest.mark.skipif(resource is None or not os.path.exists("/dev/zero"), reason="needs POSIX rlimits")
@pytest.mark.parametrize("source", ["sparse", "/dev/zero"])
def test_oversized_message_file_is_refused_without_reading_it(tmp_path, capped_child, source):
    """A 64 MiB file or an endless device, in a child limited to 1 GiB of address
    space, is a usage error (exit 2): the file is read no further than the capacity."""
    if source == "sparse":
        source = sparse_file(tmp_path / "sparse.bin", 64 << 20)
    proc = capped_child(CLI_MAIN, "--mode", "roundtrip", "--alice-msg", f"@{source}")
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: alice message of at least 96 bits exceeds capacity 88\n"


@pytest.mark.skipif(resource is None or not os.path.exists("/dev/zero"), reason="needs POSIX rlimits")
@pytest.mark.parametrize("source", ["sparse", "/dev/zero"])
def test_oversized_config_file_is_refused_without_reading_it(tmp_path, capped_child, source):
    """A 64 MiB file of one line or an endless device, as --config in a child limited
    to 1 GiB of address space, is a usage error (exit 2) on one short line of stderr."""
    if source == "sparse":
        source = sparse_file(tmp_path / "sparse.cfg", 64 << 20)
    proc = capped_child(CLI_MAIN, "--config", source)
    assert proc.returncode == 2, proc.stderr[:1000]
    assert proc.stderr == f"error: config file {source} is over {1 << 16} bytes\n"
    assert len(proc.stderr.encode("utf-8")) < 1024


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_config_file_may_be_a_pipe(capsys):
    """A process substitution, --config <(printf ...), is a pipe and reads like a file."""
    read_end, write_end = os.pipe()
    os.write(write_end, b"mode=table-check\n")
    os.close(write_end)
    try:
        code, out, _ = run_cli(capsys, "--config", f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert code == 0
    assert "16/16 combinations" in out


def test_config_file_errors_repeat_only_the_start_of_a_long_line(capsys, tmp_path):
    """A line, key or value of 60,000 characters is echoed by its first 40 at most."""
    long = "x" * 60_000
    for text, echoed in (
        (long, f"expected key=value, got {'x' * 40!r}"),
        (f"{long}=1", f"unknown key {'x' * 40!r}"),
        (f"pairs={long}", f"bad value for pairs: {'x' * 40!r}"),
    ):
        cfg = tmp_path / "long.cfg"
        cfg.write_text(f"mode=roundtrip\n{text}\n")
        code, _, err = run_cli(capsys, "--config", str(cfg))
        assert (code, err) == (2, f"error: {cfg}:2: {echoed}\n")


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


config_keys = st.sampled_from(
    [*sorted(_DEFAULTS), "check-fraction", "eve-prob", "alice-msg", "photon_count", "", " "]
)
config_values = st.one_of(
    st.integers(min_value=-(2**70), max_value=2**70).map(str),
    st.integers(min_value=1, max_value=5000).map(lambda digits: "9" * digits),
    st.floats().map(repr),
    st.sampled_from(
        ["nan", "-nan", "inf", "-inf", "1e999", "-0", "0x10", "1_000", "", "random", "none",
         "roundtrip", "table-check", "intercept-rand", "substitute", "64", "0.25", "1e-300"]
    ),
    st.text(max_size=8),
)
config_lines = st.one_of(
    st.tuples(config_keys, config_values).map(lambda kv: f"{kv[0]}={kv[1]}"),
    st.tuples(config_keys, config_values).map(lambda kv: f"  {kv[0]} = {kv[1]}  # note"),
    st.text(max_size=12),  # mostly no key at all
    st.just("# comment"),
)
config_files = st.one_of(
    st.lists(config_lines, max_size=10).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.tuples(st.lists(config_lines, max_size=6), st.binary(max_size=16)).map(
        lambda parts: "\n".join(parts[0]).encode("utf-8") + parts[1]
    ),
    st.binary(max_size=64),
)


@settings(max_examples=300, deadline=None)
@given(data=config_files, mode_flag=st.booleans())
def test_any_config_file_resolves_to_a_valid_config_or_is_a_usage_error(
    tmp_path_factory, data, mode_flag
):
    """Whatever a --config file holds, the CLI gets a validated config or exits 2.

    Resolution goes through the same functions main calls; an exception of
    a type in _USAGE_ERRORS is what main reports with exit code 2.
    """
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    argv = ["--config", str(path), *(["--mode", "roundtrip"] if mode_flag else [])]
    try:
        config = _protocol_config(_resolve(_build_parser().parse_args(argv)))
    except _USAGE_ERRORS:
        return
    replace(config)  # builds it again, through every ProtocolConfig check
    assert 2 <= config.n_pairs <= MAX_PAIRS


def test_config_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("mode=roundtrip\nalice-msg=caf\xe9\n".encode("latin-1"))
    code, _, err = run_cli(capsys, "--config", str(cfg))
    assert code == 2
    assert "cannot read config file" in err


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


def test_oversized_block_exits_2_before_allocating(capsys):
    code, out, err = run_cli(capsys, "--mode", "roundtrip", "--pairs", "3000000000", "--decoys", "0")
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: n_pairs must be at most {MAX_PAIRS}")


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
