"""Experiment runner: round trips, table checks, security sweeps, leakage estimates.

All outputs are deterministic functions of the resolved run spec: no
timestamps, no machine identifiers.  Statistics land in CSV files with a
sidecar metadata JSON; every row carries the seed, a hash of the resolved
spec, and the tool version.  Flags beat config-file entries, which beat
defaults.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .adversary import (
    EveStrategy,
    InsufficientSamples,
    estimate_detection,
    estimate_information,
    predicted_abort_rate,
    predicted_first_check_violation_rate,
)
from .codec import _BIT_DIGIT, MessageBits, expected_bell, pack_bits, random_message, unpack_bits
from .qsim import (
    PauliOp,
    QubitSlot,
    apply_pauli,
    bell_probabilities,
    make_singlet,
)
from .session import CapacityExceeded, ConfigInvalid, ProtocolConfig, _open_nonblocking, run_protocol

# Each key of the run spec: its type, its default, and its --help text, in
# which {} stands for the default.  The flags, the config-file keys and the
# defaults all come from this table.
_OPTIONS: dict[str, tuple[type, object, str]] = {
    "mode": (str, None, "what to run"),
    "pairs": (int, 64, "EPR pairs per run (default {})"),
    "check_fraction": (float, 0.25, "fraction sampled by the first check (default {})"),
    "decoys": (int, 4, "decoy pairs for the second check (default {})"),
    "eve": (
        str, "none", "channel attack: none, intercept-z, intercept-x, intercept-rand, substitute"
    ),
    "eve_prob": (float, 1.0, "per-photon attack probability (default {})"),
    "seed": (int, 0, "64-bit run seed (default {})"),
    "trials": (int, 1000, "runs per estimate (default {})"),
    "alice_msg": (str, None, "hex string, @file, or 'random'"),
    "bob_msg": (str, None, "hex string, @file, or 'random'"),
    "out": (str, None, "CSV output path; writes <out>.meta.json beside it"),
    "transcript": (str, None, "JSONL transcript path (roundtrip mode)"),
}

_DEFAULTS: dict[str, object] = {key: default for key, (_, default, _) in _OPTIONS.items()}


class CliError(Exception):
    pass


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qduplex",
        description="Simulate two-way direct messaging over EPR pair blocks.",
    )
    parser.add_argument("--mode", choices=list(_DISPATCH), help=_OPTIONS["mode"][2])
    parser.add_argument("--config", help="key=value file; flags override its entries")
    for key, (kind, default, text) in _OPTIONS.items():
        if key != "mode":
            parser.add_argument(f"--{key.replace('_', '-')}", type=kind, help=text.format(default))
    return parser


_CONFIG_BYTES = 1 << 16  # the largest --config file; it is read no further than one byte past
_ECHO_CHARS = 40  # how much of a config line, key or value an error message repeats


def _read_head(path: str, size: int) -> bytes:
    """The first size bytes of a file, opened as Transcript.read_jsonl opens one, so
    that a FIFO no process writes to reads as empty at once; its reads block, so a
    pipe with data reads in full."""
    with _open_nonblocking(path) as fh:
        os.set_blocking(fh.fileno(), True)
        return fh.read(size)


def _parse_config_file(path: str) -> dict[str, object]:
    try:
        data = _read_head(path, _CONFIG_BYTES + 1)
        if len(data) > _CONFIG_BYTES:
            raise CliError(f"config file {path} is over {_CONFIG_BYTES} bytes")
        text = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read config file: {exc}")
    entries: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliError(f"{path}:{lineno}: expected key=value, got {line[:_ECHO_CHARS]!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _OPTIONS:
            raise CliError(f"{path}:{lineno}: unknown key {key[:_ECHO_CHARS]!r}")
        try:
            entries[key] = _OPTIONS[key][0](value)
        except ValueError:
            raise CliError(f"{path}:{lineno}: bad value for {key}: {value[:_ECHO_CHARS]!r}")
    return entries


def _resolve(ns: argparse.Namespace) -> dict[str, object]:
    spec = dict(_DEFAULTS)
    if ns.config:
        spec.update(_parse_config_file(ns.config))
    for key in _DEFAULTS:
        flag_value = getattr(ns, key)
        if flag_value is not None:
            spec[key] = flag_value
    if spec["mode"] not in _DISPATCH:
        raise CliError(f"mode must be one of {', '.join(_DISPATCH)}; got {spec['mode']!r}")
    return spec


def _protocol_config(spec: dict[str, object]) -> ProtocolConfig:
    strategy = EveStrategy.from_name(str(spec["eve"]), float(spec["eve_prob"]))
    return ProtocolConfig(
        n_pairs=int(spec["pairs"]),
        check_fraction_1=float(spec["check_fraction"]),
        check_count_2=int(spec["decoys"]),
        seed=int(spec["seed"]),
        eve=strategy,
    )


def _parse_message(text: object, capacity_bits: int, seed: int, label: int) -> MessageBits:
    """A message from hex, @file or 'random'; label 1 is Alice's and 2 is Bob's.

    A file is read no further than one byte past the capacity, and a payload
    over the capacity raises CapacityExceeded before it is expanded to bits.
    """
    if text is None or text == "random":
        rng = np.random.default_rng(np.random.SeedSequence([seed, label]))
        return random_message(capacity_bits, rng)
    text = str(text)
    if text.startswith("@"):
        try:
            data = _read_head(text[1:], capacity_bits // 8 + 1)
        except OSError as exc:
            raise CliError(f"cannot read message file: {exc}")
    else:
        try:
            data = bytes.fromhex(text)
        except ValueError:
            raise CliError(f"message must be hex, @file, or 'random': {text!r}")
    if 8 * len(data) > capacity_bits:
        raise CapacityExceeded(
            f"{('alice', 'bob')[label - 1]} message of at least {8 * len(data)} bits "
            f"exceeds capacity {capacity_bits}"
        )
    return pack_bits(data)


def _bits_text(message: MessageBits) -> str:
    """Hex when the payload is whole bytes, else the raw bit string."""
    if message.payload_bits % 8 == 0:
        return unpack_bits(message).hex() or "(empty)"
    return message.bits[: message.payload_bits].translate(_BIT_DIGIT).decode("ascii")


def _write_outputs(spec: dict[str, object], rows: list[dict[str, object]]) -> None:
    """Write rows to the --out CSV, stamped with seed, config_hash and version, plus its sidecar.

    Each row is a dict in FORMAT.md column order; values are stringified.
    Without --out nothing is written.
    """
    out = spec["out"]
    if not out:
        return
    recorded = {k: v for k, v in spec.items() if k not in ("out", "transcript")}
    blob = json.dumps(recorded, sort_keys=True, separators=(",", ":"))
    config_hash = hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]
    stamp = {"seed": spec["seed"], "config_hash": config_hash, "version": __version__}
    rows = [{**row, **stamp} for row in rows]
    with open(str(out), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(rows[0])
        writer.writerows([str(v) for v in row.values()] for row in rows)
    meta = {"tool": "qduplex", "mode": spec["mode"], **stamp, "spec": recorded}
    Path(f"{out}.meta.json").write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def _estimator_columns(spec: dict[str, object], config: ProtocolConfig) -> dict[str, object]:
    """The leading columns shared by the security-sweep and info-estimate rows."""
    return {
        "mode": spec["mode"],
        "eve": config.eve.kind.value,
        "eve_prob": config.eve.attack_prob,
        "pairs": config.n_pairs,
        "check_fraction": config.check_fraction_1,
        "decoys": config.check_count_2,
        "trials": spec["trials"],
    }


def _mode_table_check(spec: dict[str, object]) -> int:
    rows = []
    print("      " + "  ".join(f"{op.name}({op.code >> 1}{op.code & 1})" for op in PauliOp))
    for alice_op in PauliOp:
        cells = []
        for bob_op in PauliOp:
            expect = expected_bell(alice_op, bob_op)
            ok = True
            for slot in (QubitSlot.C, QubitSlot.M):
                state = apply_pauli(make_singlet(), alice_op, QubitSlot.M)
                state = apply_pauli(state, bob_op, slot)
                prob = bell_probabilities(state)[expect.index]
                ok = ok and abs(prob - 1.0) < 1e-9
            cells.append(expect.name.lower())
            rows.append(
                {
                    "alice_op": alice_op.name,
                    "bob_op": bob_op.name,
                    "bell_state": expect.name.lower(),
                    "verified": ok,
                }
            )
        print(f"{alice_op.name}({alice_op.code >> 1}{alice_op.code & 1})  " + "  ".join(f"{c:<9}" for c in cells))
    _write_outputs(spec, rows)
    if not all(row["verified"] for row in rows):
        print("simulator disagreed with the encoding table", file=sys.stderr)
        return 1
    print("operation table verified against the simulator: 16/16 combinations, both slots")
    return 0


def _mode_roundtrip(spec: dict[str, object]) -> int:
    config = _protocol_config(spec)
    alice_msg = _parse_message(spec["alice_msg"], config.alice_capacity_bits, config.seed, 1)
    bob_msg = _parse_message(spec["bob_msg"], config.bob_capacity_bits, config.seed, 2)
    transcript = run_protocol(config, alice_msg, bob_msg)
    if spec["transcript"]:
        transcript.write_jsonl(str(spec["transcript"]))
        print(f"transcript written to {spec['transcript']}")
    completed = transcript.completed
    verdict = transcript.verdict
    if completed:
        alice_ok = verdict.bob_decoded == alice_msg
        bob_ok = verdict.alice_decoded == bob_msg
        print("run completed")
        print(f"alice -> bob: {_bits_text(verdict.bob_decoded)} ({'match' if alice_ok else 'MISMATCH'})")
        print(f"bob -> alice: {_bits_text(verdict.alice_decoded)} ({'match' if bob_ok else 'MISMATCH'})")
        abort_phase = ""
        abort_reason = ""
    else:
        alice_ok = bob_ok = False
        abort_phase = verdict.phase.value
        abort_reason = verdict.reason
        print(f"run aborted in {abort_phase}: {abort_reason}")
    row = {
        "mode": spec["mode"],
        "pairs": config.n_pairs,
        "check_fraction": config.check_fraction_1,
        "decoys": config.check_count_2,
        "eve": config.eve.kind.value,
        "eve_prob": config.eve.attack_prob,
        "completed": completed,
        "abort_phase": abort_phase,
        "abort_reason": abort_reason,
        "alice_payload_bits": alice_msg.payload_bits,
        "bob_payload_bits": bob_msg.payload_bits,
        "alice_decoded_ok": alice_ok,
        "bob_decoded_ok": bob_ok,
    }
    _write_outputs(spec, [row])
    return 0 if completed else 3


def _mode_security_sweep(spec: dict[str, object]) -> int:
    config = _protocol_config(spec)
    strategy = config.eve
    trials = int(spec["trials"])
    rng = np.random.default_rng(np.random.SeedSequence([int(spec["seed"]), 3]))
    stats = estimate_detection(strategy, config, trials, rng)
    photon_pred = predicted_first_check_violation_rate(strategy)
    abort_pred = predicted_abort_rate(photon_pred, config.first_check_count)
    print(
        f"strategy {strategy.kind.value} p={strategy.attack_prob}: "
        f"per-photon rate {stats.per_photon_rate:.4f} "
        f"[{stats.per_photon_ci[0]:.4f}, {stats.per_photon_ci[1]:.4f}] "
        f"(predicted {photon_pred:.4f}, {stats.checked_photons} photons)"
    )
    print(
        f"abort rate {stats.abort_rate:.4f} "
        f"[{stats.abort_ci[0]:.4f}, {stats.abort_ci[1]:.4f}] "
        f"(predicted {abort_pred:.4f}, {trials} runs, {config.first_check_count} check photons)"
    )
    row = {
        **_estimator_columns(spec, config),
        "checked_photons": stats.checked_photons,
        "violations": stats.violations,
        "per_photon_rate": stats.per_photon_rate,
        "per_photon_ci_low": stats.per_photon_ci[0],
        "per_photon_ci_high": stats.per_photon_ci[1],
        "predicted_per_photon_rate": photon_pred,
        "aborted_runs": stats.aborted_runs,
        "abort_rate": stats.abort_rate,
        "abort_ci_low": stats.abort_ci[0],
        "abort_ci_high": stats.abort_ci[1],
        "predicted_abort_rate": abort_pred,
    }
    _write_outputs(spec, [row])
    return 0


def _mode_info_estimate(spec: dict[str, object]) -> int:
    config = _protocol_config(spec)
    strategy = config.eve
    trials = int(spec["trials"])
    rng = np.random.default_rng(np.random.SeedSequence([int(spec["seed"]), 4]))
    stats = estimate_information(strategy, config, trials, rng)
    print(
        f"strategy {strategy.kind.value} p={strategy.attack_prob}: "
        f"{stats.completed_runs}/{trials} runs completed, {stats.message_pairs} message pairs"
    )
    print(f"announced results vs alice bits: {stats.announced_vs_alice_bits:.6f} bits/pair")
    print(f"announced results vs bob bits:   {stats.announced_vs_bob_bits:.6f} bits/pair")
    print(f"eve's guesses vs alice bits:     {stats.eve_guess_vs_alice_bits:.6f} bits/pair")
    row = {
        **_estimator_columns(spec, config),
        "completed_runs": stats.completed_runs,
        "message_pairs": stats.message_pairs,
        "announced_vs_alice_bits": stats.announced_vs_alice_bits,
        "announced_vs_bob_bits": stats.announced_vs_bob_bits,
        "eve_guess_vs_alice_bits": stats.eve_guess_vs_alice_bits,
    }
    _write_outputs(spec, [row])
    return 0


_DISPATCH = {
    "roundtrip": _mode_roundtrip,
    "table-check": _mode_table_check,
    "security-sweep": _mode_security_sweep,
    "info-estimate": _mode_info_estimate,
}


# What main reports as a usage error: one line on stderr and exit code 2.
_USAGE_ERRORS = (CliError, ConfigInvalid, CapacityExceeded, InsufficientSamples, ValueError, OSError)


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        spec = _resolve(ns)
        return _DISPATCH[str(spec["mode"])](spec)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
