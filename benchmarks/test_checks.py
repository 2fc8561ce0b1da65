"""The benchmark's own tests: its checks reject tampered output, its tracer misses no call.

Run from the root of a checkout:

    PYTHONPATH=src python -m pytest benchmarks/test_checks.py
"""

from __future__ import annotations

import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import tracing
from qduplex import adversary, pack_bits, qsim, session
from qduplex.session import ProtocolConfig, run_protocol

ROOT = Path(__file__).resolve().parent.parent


def _records(n_pairs: int = 64, seed: int = 5) -> tuple[list[dict], bytes, bytes]:
    config = ProtocolConfig(n_pairs=n_pairs, check_fraction_1=0.125, check_count_2=4, seed=seed)
    alice = bytes(range(config.alice_capacity_bits // 8))
    bob = bytes(range(100, 100 + config.bob_capacity_bits // 8))
    transcript = run_protocol(config, pack_bits(alice), pack_bits(bob))
    return [e.to_record() for e in transcript.events], alice, bob


def test_born_rule_violation_rate_is_one_quarter():
    assert checks.intercept_resend_violation_rate() == pytest.approx(0.25, abs=1e-12)


def test_bell_table_follows_the_xor_law():
    index = {name: i for i, name in enumerate(checks.BELL)}
    for (alice_op, bob_op, _slot), name in checks.bell_outcome_table().items():
        assert index[name] == int(alice_op[1]) ^ int(bob_op[1])


def test_chi2_quantiles_match_tables():
    assert checks.chi2_isf(0.05, 9) == pytest.approx(16.919, abs=1e-3)
    assert checks.chi2_isf(0.001, 9) == pytest.approx(27.877, abs=1e-3)


def test_bell_check_rejects_one_changed_result():
    records, _, _ = _records()
    table = checks.bell_outcome_table()
    assert checks.bell_announcements(records, table) == []
    tampered = json.loads(json.dumps(records))
    event = next(r for r in tampered if r["kind"] == "bell_measure")
    event["payload"]["result"] = "phi_plus" if event["payload"]["result"] != "phi_plus" else "psi_minus"
    assert checks.bell_announcements(tampered, table)


def test_payload_check_rejects_one_flipped_bit():
    records, alice, bob = _records()
    verdict = records[-1]["payload"]
    assert checks.decoded_payload("bob", verdict["bob_decoded"], alice) == []
    assert checks.decoded_payload("alice", verdict["alice_decoded"], bob) == []
    bits = verdict["bob_decoded"]["bits"]
    flipped = dict(verdict["bob_decoded"], bits=bits[:9] + ("1" if bits[9] == "0" else "0") + bits[10:])
    assert checks.decoded_payload("bob", flipped, alice)


def test_detection_check_rejects_a_rate_outside_its_band():
    assert checks.detection_rates(20_000, 80_000, 9_000, 10_000, 8) == []
    assert checks.detection_rates(21_000, 80_000, 9_000, 10_000, 8)
    assert checks.detection_rates(20_000, 80_000, 9_300, 10_000, 8)


def test_detection_round_rejects_a_wrong_photon_count():
    stats = SimpleNamespace(trials=50, checked_photons=400, violations=100, aborted_runs=45)
    assert checks.detection_round(stats, 50, 8) == []
    assert checks.detection_round(SimpleNamespace(**{**vars(stats), "checked_photons": 392}), 50, 8)


def test_information_check_rejects_leakage_and_residue():
    good = SimpleNamespace(
        completed_runs=4, message_pairs=4000, announced_vs_alice_bits=0.001,
        announced_vs_bob_bits=0.001, eve_guess_vs_alice_bits=8.03e-17,
    )
    assert checks.information_round(good, 4, 1000, 1008) == []
    for field, value in (
        ("announced_vs_alice_bits", 0.02),
        ("announced_vs_bob_bits", 0.02),
        ("eve_guess_vs_alice_bits", 1e-6),
        ("message_pairs", 3992),
        ("completed_runs", 3),
    ):
        assert checks.information_round(SimpleNamespace(**{**vars(good), field: value}), 4, 1000, 1008)


def _traced_information(tracer: tracing.Tracer, trials: int = 2):
    config = ProtocolConfig(n_pairs=64, check_fraction_1=1 / 16, check_count_2=2)
    with tracer:
        adversary.estimate_information(
            adversary.EveStrategy.none(), config, trials, np.random.default_rng(3)
        )
    return trials * config.n_pairs


def test_tracer_counts_reconcile_and_unwind():
    originals = (qsim.measure_qubit, session.measure_qubit, session.Session.run, adversary.transit)
    tracer = tracing.Tracer()
    pairs = _traced_information(tracer)
    assert tracer.reconcile(pairs) == []
    assert tracer.stats["qsim.make_singlet"].calls == pairs
    assert tracer.stats["qsim.apply_pauli"].calls == 2 * 2 * 60
    assert (qsim.measure_qubit, session.measure_qubit, session.Session.run, adversary.transit) == originals
    names = {name for name, _, _ in tracing.PER_LAYER if not name.startswith("host.")}
    assert set(tracer.metrics(1.0, 1.0)) == names


def test_tracer_reports_a_missed_call_site():
    original = qsim.measure_qubit

    class MissesSessionImport(tracing.Tracer):
        def install(self):
            super().install()
            session.measure_qubit = original
            return self

    tracer = MissesSessionImport()
    pairs = _traced_information(tracer)
    assert any("measure_qubit" in p for p in tracer.reconcile(pairs))
    assert session.measure_qubit is original and qsim.measure_qubit is original


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert [m["name"] for m in spec["end_to_end"]] == ["norm_pairs_per_s", "setup_s", "peak_rss_mb"]
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
