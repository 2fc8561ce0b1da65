"""Acceptance gate: one test per release criterion, with timing budgets.

Each test prints a single PASS/FAIL line (run with -s to see them all) and
fails loudly if its statistical band or runtime budget is missed.  The
statistical checks use 3-sigma binomial bands around exact expectations,
so a healthy build fails any one of them with probability well under 1%.
"""

from __future__ import annotations

import math
import time

import numpy as np

from qduplex.adversary import EveStrategy, estimate_detection, estimate_information
from qduplex.codec import expected_bell, random_message
from qduplex.qsim import (
    Basis,
    BellState,
    PauliOp,
    QubitSlot,
    apply_pauli,
    bell_probabilities,
    make_singlet,
    measure_qubit,
)
from qduplex.session import ProtocolConfig, run_protocol


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {detail}")
    assert ok, detail


def test_criterion_1_operation_table_exhaustive():
    started = time.perf_counter()
    mismatches = 0
    for alice_op in PauliOp:
        for bob_op in PauliOp:
            expected = expected_bell(alice_op, bob_op)
            for bob_slot in (QubitSlot.C, QubitSlot.M):
                state = apply_pauli(make_singlet(), alice_op, QubitSlot.M)
                state = apply_pauli(state, bob_op, bob_slot)
                if abs(bell_probabilities(state)[expected.index] - 1.0) > 1e-12:
                    mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 1.0
    report(
        1,
        ok,
        f"operation table, 16 combinations x both slots, deterministic "
        f"({mismatches} mismatches, {elapsed:.2f}s < 1s)",
    )


def test_criterion_2_encoding_walks_the_bell_basis():
    targets = (
        BellState.PSI_MINUS,
        BellState.PSI_PLUS,
        BellState.PHI_MINUS,
        BellState.PHI_PLUS,
    )
    bad = []
    for op, target in zip(PauliOp, targets):
        probs = bell_probabilities(apply_pauli(make_singlet(), op, QubitSlot.M))
        if abs(probs[target.index] - 1.0) > 1e-12:
            bad.append(op.name)
    report(
        2,
        not bad,
        "U0..U3 on the kept photon give psi-, psi+, phi-, phi+ with probability 1"
        + (f" (failed: {bad})" if bad else ""),
    )


def test_criterion_3_undisturbed_anticorrelation():
    started = time.perf_counter()
    rng = np.random.default_rng(2026)
    violations = 0
    rounds = 10_000
    for _ in range(rounds):
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        first, state = measure_qubit(make_singlet(), QubitSlot.C, basis, rng.random())
        second, _ = measure_qubit(state, QubitSlot.M, basis, rng.random())
        if first == second:
            violations += 1
    elapsed = time.perf_counter() - started
    ok = violations == 0 and elapsed < 5.0
    report(
        3,
        ok,
        f"{rounds} undisturbed random-basis check rounds, {violations} violations "
        f"({elapsed:.2f}s < 5s)",
    )


def test_criterion_4_thousand_round_trips():
    started = time.perf_counter()
    rng = np.random.default_rng(41)
    runs = 1000
    failures = 0
    for _ in range(runs):
        config = ProtocolConfig(
            n_pairs=128,
            check_fraction_1=0.25,
            check_count_2=4,
            seed=int(rng.integers(1 << 63)),
        )
        alice_msg = random_message(config.alice_capacity_bits, rng)
        bob_msg = random_message(config.bob_capacity_bits, rng)
        transcript = run_protocol(config, alice_msg, bob_msg)
        if not (
            transcript.completed
            and transcript.verdict.bob_decoded == alice_msg
            and transcript.verdict.alice_decoded == bob_msg
        ):
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 30.0
    report(
        4,
        ok,
        f"{runs} quiet-channel runs at 128 pairs, {runs - failures} completed with "
        f"exact decodes ({elapsed:.2f}s < 30s)",
    )


def test_criterion_5_intercept_resend_detection():
    started = time.perf_counter()
    rng = np.random.default_rng(52)
    problems = []

    # per-photon rate at 1e5 sampled photons per strategy (8 per run)
    photon_config = ProtocolConfig(n_pairs=16, check_fraction_1=0.5, check_count_2=0)
    photon_trials = 12_500
    band = 3 * math.sqrt(0.25 * 0.75 / (photon_trials * 8))
    rate_notes = []
    pooled = {}
    for name in ("intercept-z", "intercept-rand"):
        stats = estimate_detection(
            EveStrategy.from_name(name), photon_config, photon_trials, rng
        )
        assert stats.checked_photons == 100_000
        pooled[name] = stats
        rate_notes.append(f"{name} {stats.per_photon_rate:.4f}")
        if abs(stats.per_photon_rate - 0.25) > band:
            problems.append(f"{name} photon rate {stats.per_photon_rate:.4f} off 0.25±{band:.4f}")

    # abort rate against 1 - (3/4)^c for c = 4, 8, 16; c=8 reuses the pool above
    abort_cases = {
        4: (ProtocolConfig(n_pairs=16, check_fraction_1=0.25, check_count_2=0), 1500),
        16: (ProtocolConfig(n_pairs=32, check_fraction_1=0.5, check_count_2=0), 1500),
    }
    abort_notes = []
    for c, stats in [(8, pooled["intercept-z"])] + [
        (c, estimate_detection(EveStrategy.from_name("intercept-z"), cfg, trials, rng))
        for c, (cfg, trials) in abort_cases.items()
    ]:
        expected = 1 - 0.75**c
        abort_band = 3 * math.sqrt(expected * (1 - expected) / stats.trials)
        abort_notes.append(f"c={c} {stats.abort_rate:.3f}~{expected:.3f}")
        if abs(stats.abort_rate - expected) > abort_band:
            problems.append(
                f"abort rate at c={c}: {stats.abort_rate:.4f} off {expected:.4f}±{abort_band:.4f}"
            )

    elapsed = time.perf_counter() - started
    ok = not problems and elapsed < 60.0
    report(
        5,
        ok,
        f"per-photon {', '.join(rate_notes)} ~ 0.25; abort {', '.join(abort_notes)} "
        f"({elapsed:.2f}s < 60s)" + (f"; {problems}" if problems else ""),
    )


def test_criterion_6_announcements_mask_both_messages():
    # 100 completed runs x 1000 message pairs pools 1e5 samples per side
    config = ProtocolConfig(n_pairs=1024, check_fraction_1=1 / 64, check_count_2=8)
    stats = estimate_information(
        EveStrategy.none(),
        config,
        trials=100,
        rng=np.random.default_rng(63),
    )
    assert stats.completed_runs == 100
    assert stats.message_pairs == 100_000
    ok = stats.announced_vs_alice_bits < 0.01 and stats.announced_vs_bob_bits < 0.01
    report(
        6,
        ok,
        f"mutual information of announcements at {stats.message_pairs} pairs: "
        f"alice {stats.announced_vs_alice_bits:.6f}, bob {stats.announced_vs_bob_bits:.6f} "
        f"bits/pair, both < 0.01",
    )


def test_criterion_7_byte_identical_replay(tmp_path):
    from qduplex.cli import main

    argv = [
        "--mode", "roundtrip", "--pairs", "32", "--decoys", "2", "--seed", "1234",
        "--alice-msg", "c0ffee", "--bob-msg", "deadbeef",
    ]
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(argv + ["--transcript", str(first)]) == 0
    assert main(argv + ["--transcript", str(second)]) == 0
    identical = first.read_bytes() == second.read_bytes()
    report(
        7,
        identical,
        f"two invocations, {len(first.read_bytes())} transcript bytes, byte-identical",
    )
