"""Unit tests for the channel attacks and their estimators.

The detection-rate expectations are computed here by exact branch
enumeration over the Born probabilities, independently of the sampling
code they validate.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import replace
from itertools import repeat
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduplex import adversary
from qduplex.adversary import (
    AttackKind,
    EveStrategy,
    InformationStats,
    InsufficientSamples,
    Leg,
    estimate_detection,
    estimate_information,
    eve_information,
    mutual_information_bits,
    predicted_abort_rate,
    predicted_first_check_violation_rate,
    transit,
    wilson_interval,
    _SAMPLE_TABLE,
    _eve_guesses,
    _run_samples,
    _samples,
)
from qduplex.codec import random_message
from qduplex.qsim import (
    Basis,
    BellState,
    PauliOp,
    QubitSlot,
    TwoQubitState,
    apply_pauli,
    make_singlet,
    product_state,
    project_qubit,
)
from qduplex.records import _BULK_SCHEMA, Event, EventLog, TranscriptInvalid
from qduplex.session import ProtocolConfig, Session, Transcript, audit_custody, run_protocol
from qduplex.stream import Stream


def overlap_mag(a: TwoQubitState, b: TwoQubitState) -> float:
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)))


def stream(seed: int) -> Stream:
    """Eve's kind of stream, with the values np.random.default_rng(seed) gives."""
    return Stream(np.random.SeedSequence(seed))


# ---------------------------------------------------------------------------
# exact enumeration oracle for the first check


def exact_violation_rate_after(states_with_weights) -> float:
    """Probability that Bob's and Alice's check outcomes agree.

    Enumerates Bob's uniform basis choice and both parties' Born branches
    exactly on the post-attack pair states.
    """
    total = 0.0
    for weight, state in states_with_weights:
        for bob_basis in Basis:  # uniform choice
            for bob_outcome in (0, 1):
                p_bob, collapsed = project_qubit(state, QubitSlot.C, bob_basis, bob_outcome)
                if collapsed is None:
                    continue
                p_same, _ = project_qubit(collapsed, QubitSlot.M, bob_basis, bob_outcome)
                total += weight * 0.5 * p_bob * p_same
    return total


def intercept_branches(eve_basis: Basis):
    """Post-attack states for an intercept-resend of the C photon."""
    out = []
    for eve_outcome in (0, 1):
        prob, collapsed = project_qubit(make_singlet(), QubitSlot.C, eve_basis, eve_outcome)
        out.append((prob, collapsed))
    return out


def substitute_branches():
    """Post-attack states when a fresh |0> replaces the C photon."""
    out = []
    for eve_outcome in (0, 1):
        prob, collapsed = project_qubit(make_singlet(), QubitSlot.C, Basis.Z, eve_outcome)
        m = collapsed.amplitudes.reshape(2, 2)
        fresh = np.zeros((2, 2), dtype=complex)
        fresh[0, :] = m[eve_outcome, :]
        out.append((prob, TwoQubitState(fresh.reshape(4))))
    return out


def test_undisturbed_check_never_violates_exactly():
    assert exact_violation_rate_after([(1.0, make_singlet())]) == pytest.approx(0.0, abs=1e-12)


def test_intercept_resend_violation_rate_is_one_quarter_exactly():
    for eve_basis in Basis:
        rate = exact_violation_rate_after(intercept_branches(eve_basis))
        assert rate == pytest.approx(0.25, abs=1e-12)
    # random interception averages the two fixed-basis attacks
    mixed = [(0.5 * p, s) for basis in Basis for p, s in intercept_branches(basis)]
    assert exact_violation_rate_after(mixed) == pytest.approx(0.25, abs=1e-12)


def test_substitution_violation_rate_is_one_half_exactly():
    assert exact_violation_rate_after(substitute_branches()) == pytest.approx(0.5, abs=1e-12)


def test_predicted_rates_agree_with_enumeration():
    cases = [
        (EveStrategy.from_name("intercept-z"), 0.25),
        (EveStrategy.from_name("intercept-x"), 0.25),
        (EveStrategy.from_name("intercept-rand"), 0.25),
        (EveStrategy.from_name("substitute"), 0.5),
        (EveStrategy.none(), 0.0),
    ]
    for strategy, rate in cases:
        assert predicted_first_check_violation_rate(strategy) == pytest.approx(rate)
    half = EveStrategy.from_name("intercept-z", attack_prob=0.5)
    assert predicted_first_check_violation_rate(half) == pytest.approx(0.125)
    assert predicted_abort_rate(0.25, 8) == pytest.approx(1 - 0.75**8)


# ---------------------------------------------------------------------------
# transit behaviour


def test_transit_none_leaves_states_untouched():
    states = {0: make_singlet(), 3: product_state(1, 0)}
    out, record = transit(states, Leg.FIRST, EveStrategy.none(), stream(0))
    assert out == states
    assert (record.touches, record.codes) == ([], b"")


def test_intercept_z_collapses_to_anticorrelated_product():
    rng = stream(8)
    for _ in range(20):
        out, record = transit(
            {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("intercept-z"), rng
        )
        assert record.touches == [0]
        (code,) = record.codes
        assert code >> 1 == 0  # the Z basis
        expected = product_state(code & 1, 1 - (code & 1))
        assert overlap_mag(out[0], expected) == pytest.approx(1.0, abs=1e-12)


def test_intercept_x_uses_x_basis():
    out, record = transit(
        {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("intercept-x"), stream(1)
    )
    assert record.codes[0] >> 1 == 1  # the X basis
    # collapsed to an X-basis product: Z outcomes of both photons are coin flips
    p0, _ = project_qubit(out[0], QubitSlot.C, Basis.Z, 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)


def test_substitute_forwards_fresh_zero_on_each_leg():
    rng = stream(12)
    out, record = transit(
        {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("substitute"), rng
    )
    (code,) = record.codes
    assert code >> 1 == 0  # measured in Z
    # C slot now |0>, partner keeps the anticorrelated residual
    assert overlap_mag(out[0], product_state(0, 1 - (code & 1))) == pytest.approx(
        1.0, abs=1e-12
    )
    out, record = transit(
        {0: make_singlet()}, Leg.SECOND, EveStrategy.from_name("substitute"), rng
    )
    (code,) = record.codes
    assert overlap_mag(out[0], product_state(1 - (code & 1), 0)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_substitution_measures_each_substituted_photon_exactly_once(monkeypatch):
    calls = []
    measure = adversary.measure_qubit
    monkeypatch.setattr(
        adversary, "measure_qubit", lambda *args: calls.append(args[1]) or measure(*args)
    )
    states = {i: make_singlet() for i in range(64)}
    strategy = EveStrategy.from_name("substitute", attack_prob=0.5)
    _, record = transit(states, Leg.SECOND, strategy, stream(8))
    assert 0 < len(record.touches) < 64
    assert calls == [QubitSlot.M] * len(record.touches)


def test_attack_probability_thins_touches():
    states = {i: make_singlet() for i in range(400)}
    strategy = EveStrategy.from_name("intercept-z", attack_prob=0.25)
    _, record = transit(states, Leg.FIRST, strategy, stream(4))
    touched = len(record.touches)
    # 3 sigma around 100 of 400 at p=0.25 is about 26
    assert 60 < touched < 140


def test_attack_probability_validation():
    with pytest.raises(ValueError):
        EveStrategy.from_name("intercept-z", attack_prob=1.5)
    with pytest.raises(ValueError):
        EveStrategy(kind=AttackKind.SUBSTITUTE_FRESH, attack_prob=-0.1)
    with pytest.raises(ValueError):
        EveStrategy.from_name("mitm")
    with pytest.raises(ValueError):
        EveStrategy(kind="intercept-z")  # a name, not an AttackKind
    for attack_prob in ("x", None, 0.5 + 0j, True):
        with pytest.raises(ValueError):
            EveStrategy(attack_prob=attack_prob)
    assert not EveStrategy.from_name("intercept-z", attack_prob=0.0).active


@pytest.mark.parametrize("whole", [0, 1])
def test_an_integer_attack_prob_writes_the_bytes_of_its_float(whole):
    """Equal configs write equal transcripts: attack_prob 1 and 1.0 are one strategy."""
    texts = []
    for attack_prob in (whole, float(whole)):
        config = ProtocolConfig(
            n_pairs=16, check_count_2=2, seed=3, abort_threshold=16,
            eve=EveStrategy(AttackKind.INTERCEPT_RESEND_Z, attack_prob),
        )
        transcript = run_protocol(
            config,
            random_message(config.alice_capacity_bits, np.random.default_rng(0)),
            random_message(config.bob_capacity_bits, np.random.default_rng(1)),
        )
        texts.append(transcript.to_jsonl())
    assert texts[0] == texts[1]
    assert f'"attack_prob":{float(whole)}' in texts[0]


def test_transit_is_deterministic_under_a_fixed_stream():
    states = {i: make_singlet() for i in range(32)}
    strategy = EveStrategy.from_name("intercept-rand", attack_prob=0.7)
    out1, rec1 = transit(states, Leg.FIRST, strategy, stream(99))
    out2, rec2 = transit(states, Leg.FIRST, strategy, stream(99))
    assert (rec1.touches, rec1.codes) == (rec2.touches, rec2.codes)
    for i in states:
        assert np.array_equal(out1[i].amplitudes, out2[i].amplitudes)


def reference_transit(
    pair_states: dict[int, TwoQubitState], leg: Leg, strategy: EveStrategy,
    rng: np.random.Generator,
) -> tuple[dict[int, TwoQubitState], list[int], bytearray]:
    """transit written out.  Pairs go in ascending order.  A pair is attacked
    on one uniform draw below attack_prob, made only when 0 < attack_prob < 1.
    intercept-rand then draws its basis with integers(2), 0 for Z.  One uniform
    draw against the Born probability of outcome 0 picks Eve's outcome.  A
    substitution then keeps the collapsed pair's amplitudes with the photon in
    its outcome and puts them where the photon reads 0.  Returns the states,
    then each touch's pair and its code, 2 for the X basis plus the outcome."""
    slot = QubitSlot.C if leg is Leg.FIRST else QubitSlot.M
    out = dict(pair_states)
    pairs: list[int] = []
    codes = bytearray()
    if strategy.kind is AttackKind.NONE or strategy.attack_prob == 0.0:
        return out, pairs, codes
    for pair in sorted(pair_states):
        if 0.0 < strategy.attack_prob < 1.0 and not rng.random() < strategy.attack_prob:
            continue
        if strategy.kind is AttackKind.INTERCEPT_RESEND_RANDOM:
            basis = (Basis.Z, Basis.X)[int(rng.integers(2))]
        else:
            basis = Basis.X if strategy.kind is AttackKind.INTERCEPT_RESEND_X else Basis.Z
        p0, _ = project_qubit(out[pair], slot, basis, 0)
        outcome = 0 if rng.random() < p0 else 1
        _, state = project_qubit(out[pair], slot, basis, outcome)
        if strategy.kind is AttackKind.SUBSTITUTE_FRESH:
            kept = state.amplitudes.reshape(2, 2)
            fresh = np.zeros((2, 2), dtype=np.complex128)
            if slot is QubitSlot.C:
                fresh[0, :] = kept[outcome, :]
            else:
                fresh[:, 0] = kept[:, outcome]
            state = TwoQubitState(fresh.reshape(4))
        out[pair] = state
        pairs.append(pair)
        codes.append((basis is Basis.X) << 1 | outcome)
    return out, pairs, codes


def transit_inputs() -> dict[int, TwoQubitState]:
    """Singlets, Pauli-encoded pairs and products, keyed by spread-out pairs in no order."""
    singlet = make_singlet()
    states = [singlet, product_state(0, 1), product_state(1, 1)] + [
        apply_pauli(singlet, op, slot) for op in PauliOp for slot in QubitSlot
    ]
    pairs = [int(p) for p in np.random.default_rng(0).permutation(np.arange(0, 120, 3))]
    return {pair: states[i % len(states)] for i, pair in enumerate(pairs)}


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("leg", list(Leg))
@pytest.mark.parametrize("attack_prob", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("kind", list(AttackKind))
def test_transit_equals_the_reference(kind, attack_prob, leg, seed):
    states = transit_inputs()
    strategy = EveStrategy(kind=kind, attack_prob=attack_prob)
    rng, ref_rng = stream(seed), np.random.default_rng(np.random.SeedSequence(seed))
    out, record = transit(states, leg, strategy, rng)
    ref_out, ref_pairs, ref_codes = reference_transit(states, leg, strategy, ref_rng)
    assert (record.touches, record.codes) == (ref_pairs, ref_codes)
    assert out.keys() == ref_out.keys()
    for pair in ref_out:
        assert out[pair].amplitudes.tobytes() == ref_out[pair].amplitudes.tobytes()
    # the same words consumed and the same half-word buffered
    after = (rng.bit(), rng.random(), rng.integers(4))
    assert after == (int(ref_rng.integers(2)), ref_rng.random(), int(ref_rng.integers(4)))
    if kind is not AttackKind.NONE and attack_prob > 0.0:
        assert ref_pairs


# ---------------------------------------------------------------------------
# detection estimation


def test_estimate_detection_matches_enumerated_rates():
    config = ProtocolConfig(n_pairs=16, check_fraction_1=0.5, check_count_2=0)
    stats = estimate_detection(
        EveStrategy.from_name("intercept-z"), config, trials=2500, rng=np.random.default_rng(17)
    )
    assert stats.checked_photons == 2500 * 8
    sigma = np.sqrt(0.25 * 0.75 / stats.checked_photons)
    assert abs(stats.per_photon_rate - 0.25) < 3 * sigma
    expected_abort = 1 - 0.75**8
    sigma_abort = np.sqrt(expected_abort * (1 - expected_abort) / stats.trials)
    assert abs(stats.abort_rate - expected_abort) < 3 * sigma_abort
    assert stats.per_photon_ci[0] <= stats.per_photon_rate <= stats.per_photon_ci[1]
    assert stats.abort_ci[0] <= stats.abort_rate <= stats.abort_ci[1]


def test_estimate_detection_without_eve_never_aborts():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1)
    stats = estimate_detection(EveStrategy.none(), config, trials=200, rng=np.random.default_rng(3))
    assert stats.violations == 0
    assert stats.aborted_runs == 0


def test_estimate_detection_rejects_zero_trials():
    config = ProtocolConfig(n_pairs=8)
    with pytest.raises(ValueError):
        estimate_detection(EveStrategy.none(), config, trials=0, rng=np.random.default_rng(0))


def test_wilson_interval_known_values():
    # roots of (phat - p)^2 = z^2 p(1-p)/n at z = 1.959963984540054,
    # solved independently as a quadratic in p and frozen here
    low, high = wilson_interval(25, 100)
    assert low == pytest.approx(0.17545211362287688, abs=1e-12)
    assert high == pytest.approx(0.34304463548061587, abs=1e-12)
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    with pytest.raises(ValueError):
        wilson_interval(5, 0)
    with pytest.raises(ValueError):
        wilson_interval(7, 5)


def test_wilson_interval_brackets_the_estimate():
    rng = np.random.default_rng(1)
    for _ in range(100):
        total = int(rng.integers(1, 500))
        successes = int(rng.integers(0, total + 1))
        low, high = wilson_interval(successes, total)
        assert 0.0 <= low <= successes / total <= high <= 1.0


# ---------------------------------------------------------------------------
# information estimates


def test_mutual_information_exact_small_cases():
    assert mutual_information_bits(Counter([(0, 0), (0, 1), (0, 2), (0, 3)])) == pytest.approx(0.0)
    assert mutual_information_bits(Counter([(0, 0), (1, 1)] * 50)) == pytest.approx(1.0)
    assert mutual_information_bits(
        Counter([(x, y) for x in range(4) for y in range(4)])
    ) == pytest.approx(0.0, abs=1e-12)
    # a constant column is exactly 0, not the plug-in sum's rounding residue (8.97e-17)
    assert mutual_information_bits(Counter([(0, 0)] * 7 + [(0, 1)] * 18)) == 0.0
    with pytest.raises(InsufficientSamples):
        mutual_information_bits(Counter())


def three_counter_information(samples: list[tuple[int, int]]) -> float:
    """The plug-in sum with the joint and each marginal counted over the samples."""
    n = len(samples)
    joint = Counter(samples)
    left = Counter(x for x, _ in samples)
    right = Counter(y for _, y in samples)
    if len(left) == 1 or len(right) == 1:
        return 0.0
    info = 0.0
    for (x, y), c in joint.items():
        pxy = c / n
        info += pxy * math.log2(pxy * n * n / (left[x] * right[y]))
    return max(0.0, info)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=400))
def test_mutual_information_equals_the_three_counter_sum_exactly(samples):
    assert mutual_information_bits(Counter(samples)) == three_counter_information(samples)


SAMPLE_LISTS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=60)


@settings(max_examples=300, deadline=None)
@given(st.lists(SAMPLE_LISTS, min_size=1, max_size=12).filter(lambda trials: any(trials)))
def test_trial_counts_merged_in_trial_order_give_the_pooled_information_exactly(trials):
    """estimate_information pools its trials this way; the golden CSV's bytes rest on it."""
    merged: Counter = Counter()
    for samples in trials:
        merged.update(Counter(samples))
    pooled = [sample for samples in trials for sample in samples]
    assert mutual_information_bits(merged) == three_counter_information(pooled)


def test_eve_guess_logic_over_eve_touch_records():
    touches = [
        (0, Leg.FIRST, Basis.Z, 0),
        (0, Leg.SECOND, Basis.Z, 0),  # flip seen: high bit 1
        (1, Leg.FIRST, Basis.X, 1),
        (1, Leg.SECOND, Basis.X, 0),  # no flip in X: low bit 0
        (2, Leg.FIRST, Basis.Z, 1),
        (2, Leg.SECOND, Basis.X, 0),  # mixed bases: no inference
        (3, Leg.FIRST, Basis.Z, 1),  # single leg: no inference
    ]
    hits: dict[Leg, dict[int, int]] = {Leg.FIRST: {}, Leg.SECOND: {}}
    for pair, leg, basis, outcome in touches:
        hits[leg][pair] = (basis is Basis.X) << 1 | outcome
    guesses = _eve_guesses(hits[Leg.FIRST], hits[Leg.SECOND])
    assert guesses == {0: 0b10, 1: 0b00}
    assert _eve_guesses({}, {}) == {}


def reference_samples(
    transcript: Transcript,
) -> tuple[list[tuple[int, int]], list[tuple[int, int]], list[tuple[int, int]]]:
    """_run_samples written out over the log's Events: for each pair the last
    record of a kind by one actor counts, and the decoys come from stats."""
    ops: dict[str, dict[int, int]] = {"alice": {}, "bob": {}}
    announced: dict[int, int] = {}
    hits: dict[str, dict[int, tuple[str, int]]] = {"first": {}, "second": {}}
    for event in transcript.events:
        payload = event.payload
        if event.kind == "pauli":
            ops[event.actor][payload["pair"]] = PauliOp[payload["op"]].code
        elif event.kind == "bell_measure":
            announced[payload["pair"]] = BellState[payload["result"].upper()].index
        elif event.kind == "eve_touch":
            hits[payload["leg"]][payload["pair"]] = payload["basis"], payload["outcome"]
    guesses = {}
    for pair, (basis, first) in hits["first"].items():
        if pair in hits["second"] and hits["second"][pair][0] == basis:
            learned = first ^ hits["second"][pair][1] ^ 1
            guesses[pair] = learned << 1 if basis == "Z" else learned
    decoys = set(transcript.stats.get("second_check", {}).get("decoy_indices", []))
    pairs = sorted(announced)
    message = [pair for pair in pairs if pair not in decoys]
    for actor, needed in (("alice", message), ("bob", pairs)):
        for pair in needed:
            if pair not in ops[actor]:
                raise TranscriptInvalid(f"pair {pair} is Bell-measured with no {actor} pauli record")
    return (
        [(guesses.get(pair, 0), ops["alice"][pair]) for pair in message],
        [(announced[pair], ops["alice"][pair]) for pair in message],
        [(announced[pair], ops["bob"][pair]) for pair in pairs],
    )


def run_counts(transcript: Transcript) -> list[list]:
    """_run_samples' three joint counts, each as its (cell, count) items in order."""
    return [list(joint.items()) for joint in _run_samples(transcript)]


def reference_counts(transcript: Transcript) -> list[list]:
    """reference_samples counted the same way: each cell where its samples first show it."""
    return [list(Counter(samples).items()) for samples in reference_samples(transcript)]


def outcome_of(function, transcript: Transcript):
    """What a counts function gives for a transcript: its counts, or its TranscriptInvalid."""
    try:
        return function(transcript)
    except TranscriptInvalid as exc:
        return f"TranscriptInvalid: {exc}"


def completed_run(attack: str, attack_prob: float, seed: int, n_pairs: int,
                  check_count_2: int = 0) -> Transcript:
    """A run that its first check cannot abort: one check photon and a high threshold."""
    config = ProtocolConfig(
        n_pairs=n_pairs, check_fraction_1=1 / n_pairs, check_count_2=check_count_2, seed=seed,
        abort_threshold=n_pairs, eve=EveStrategy.from_name(attack, attack_prob=attack_prob),
    )
    transcript = run_protocol(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(seed)),
        random_message(config.bob_capacity_bits, np.random.default_rng(seed + 1)),
    )
    assert transcript.completed
    return transcript


@settings(max_examples=60, deadline=None)
@given(
    attack=st.sampled_from([kind.value for kind in AttackKind]),
    attack_prob=st.sampled_from([0.25, 1.0]),
    seed=st.integers(0, 2**32),
    n_pairs=st.integers(2, 96),
)
def test_run_samples_equal_the_reference_on_live_runs(attack, attack_prob, seed, n_pairs):
    transcript = completed_run(attack, attack_prob, seed, n_pairs)
    assert run_counts(transcript) == reference_counts(transcript)


RESHUFFLE_BASES = [
    completed_run("intercept-rand", 1.0, 3, 24),
    completed_run("intercept-z", 0.25, 4, 24),
    completed_run("none", 1.0, 5, 24, check_count_2=4),  # decoys in the stats record
]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_run_samples_equal_the_reference_on_reordered_and_duplicated_records(data):
    """The pauli and bell_measure records of a completed run, reordered, some
    dropped and some repeated with another value, go back in before the stats."""
    base = data.draw(st.sampled_from(RESHUFFLE_BASES))
    events = list(base.events)
    moved = [e for e in events if e.kind in ("pauli", "bell_measure")]
    kept = [e for e in events if e.kind not in ("pauli", "bell_measure")]
    records = data.draw(st.lists(st.sampled_from(moved), max_size=2 * len(moved)))
    if data.draw(st.booleans()):
        records = data.draw(st.permutations(moved)) + records
    values = {"pauli": ("op", ["U0", "U1", "U2", "U3"]),
              "bell_measure": ("result", ["psi_minus", "psi_plus", "phi_minus", "phi_plus"])}
    rewritten = []
    for event in records:
        name, choices = values[event.kind]
        value = data.draw(st.sampled_from(choices))
        rewritten.append(Event(0, event.actor, event.kind, {**event.payload, name: value}))
    stats_at = next(i for i, e in enumerate(kept) if e.kind == "stats")
    events = kept[:stats_at] + rewritten + kept[stats_at:]
    transcript = Transcript(
        events=[Event(seq, e.actor, e.kind, e.payload) for seq, e in enumerate(events)],
    )
    assert outcome_of(run_counts, transcript) == outcome_of(reference_counts, transcript)


@pytest.mark.parametrize("actor", ["alice", "bob"])
def test_run_samples_name_the_first_pair_without_its_pauli_record(actor):
    transcript = completed_run("none", 1.0, 5, 24, check_count_2=4)
    decoys = set(transcript.stats["second_check"]["decoy_indices"])
    measured = sorted(e.payload["pair"] for e in transcript.events if e.kind == "bell_measure")
    # Alice's records are needed for the message pairs, Bob's for every announced pair
    needed = [pair for pair in measured if actor == "bob" or pair not in decoys]
    dropped = {needed[3], needed[7]}
    events = [
        e for e in transcript.events
        if not (e.kind == "pauli" and e.actor == actor and e.payload["pair"] in dropped)
    ]
    damaged = Transcript(
        events=[Event(seq, e.actor, e.kind, e.payload) for seq, e in enumerate(events)],
    )
    with pytest.raises(TranscriptInvalid) as raised:
        _run_samples(damaged)
    assert str(raised.value) == f"pair {needed[3]} is Bell-measured with no {actor} pauli record"


def dict_and_counter_run_samples(transcript: Transcript) -> tuple[Counter, Counter, Counter]:
    """_run_samples in its dict-and-Counter form, the reference for its byte columns:
    one loop stores each selected record's value in its class's per-pair dict, and
    each joint count is Counter(zip(...)) of its cells."""
    codes, pairs = transcript.events.select(_SAMPLE_TABLE)
    by_class: list[dict[int, int]] = [{} for _ in range(5)]
    for code, pair in zip(codes, pairs):
        by_class[code >> 2][pair] = code & 3
    alice, bob, announced, first_hits, second_hits = by_class
    decoys = set(transcript.stats.get("second_check", {}).get("decoy_indices", ()))
    guesses = _eve_guesses(first_hits, second_hits)
    message_set = announced.keys() - decoys
    for actor, ops, needed in (("alice", alice, message_set), ("bob", bob, announced.keys())):
        if not ops.keys() >= needed:
            pair = min(needed - ops.keys())
            raise TranscriptInvalid(f"pair {pair} is Bell-measured with no {actor} pauli record")
    message = sorted(message_set)
    every = sorted(announced)
    alice_ops = list(map(alice.__getitem__, message))
    return (
        Counter(zip(map(guesses.get, message, repeat(0)), alice_ops)),
        Counter(zip(map(announced.__getitem__, message), alice_ops)),
        Counter(zip(map(announced.__getitem__, every), map(bob.__getitem__, every))),
    )


def counts_or_error(function, transcript: Transcript):
    """A samples function's three counts as their (cell, count) items in order, or its
    TranscriptInvalid message."""
    try:
        return [list(joint.items()) for joint in function(transcript)]
    except TranscriptInvalid as exc:
        return f"TranscriptInvalid: {exc}"


def any_run(
    attack: str, attack_prob: float, seed: int, n_pairs: int, check_count_2: int
) -> tuple[Session, Transcript]:
    """A run under the attack, completed or aborted at either check: its Session and transcript."""
    config = ProtocolConfig(
        n_pairs=n_pairs, check_fraction_1=1 / n_pairs, check_count_2=check_count_2, seed=seed,
        abort_threshold=n_pairs, eve=EveStrategy.from_name(attack, attack_prob=attack_prob),
    )
    session = Session(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(seed)),
        random_message(config.bob_capacity_bits, np.random.default_rng(seed + 1)),
    )
    return session, session.run()


@settings(max_examples=80, deadline=None)
@given(
    attack=st.sampled_from([kind.value for kind in AttackKind]),
    attack_prob=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
    seed=st.integers(0, 2**32),
    n_pairs=st.integers(3, 96),
    check_count_2=st.integers(0, 4),
)
def test_run_samples_equal_the_dict_and_counter_form_on_live_runs(
    attack, attack_prob, seed, n_pairs, check_count_2
):
    session, transcript = any_run(attack, attack_prob, seed, n_pairs, min(check_count_2, n_pairs - 2))
    expected = counts_or_error(dict_and_counter_run_samples, transcript)
    assert counts_or_error(_run_samples, transcript) == expected
    assert not isinstance(expected, str)
    # each leg's eve_touch records, counted and as pair -> 2 for the X basis plus the outcome
    records: Counter = Counter()
    hits: dict[str, dict[int, int]] = {leg.value: {} for leg in Leg}
    for event in transcript.events:
        if event.kind == "eve_touch":
            payload = event.payload
            records[payload["leg"]] += 1
            hits[payload["leg"]][payload["pair"]] = (payload["basis"] == "X") << 1 | payload["outcome"]
    # each leg transmitted (the second only past the first check) kept one touch a record
    legs = list(Leg)[: 1 + transcript.stats["first_check"]["passed"]]
    touched = {leg.value: len(record.touches) for leg, record in session._touches.items()}
    assert touched == {leg.value: records[leg.value] for leg in legs}
    assert records.keys() <= touched.keys()
    # the estimator counts a completed run from the Session's own columns: the same cells in the same order
    if transcript.completed:
        columns = session.sample_columns()
        assert list(columns[5:]) == [hits[leg.value] for leg in Leg]
        assert [list(joint.items()) for joint in _samples(*columns)] == expected
    else:
        with pytest.raises(ValueError, match="^sample columns need a completed run"):
            session.sample_columns()


DAMAGE_BASES = [
    completed_run("intercept-rand", 1.0, 3, 24),  # eve_touch records on both legs
    completed_run("intercept-x", 0.5, 6, 24),
    completed_run("none", 1.0, 5, 24, check_count_2=4),  # decoys in the stats record
]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_run_samples_equal_the_dict_and_counter_form_on_damaged_logs(data):
    """One pair's pauli, bell_measure or eve_touch record duplicated (its copy
    maybe with another value), dropped or moved, anywhere between the config
    and the stats record."""
    events = list(data.draw(st.sampled_from(DAMAGE_BASES)).events)
    at = data.draw(st.sampled_from(
        [i for i, e in enumerate(events) if e.kind in ("pauli", "bell_measure", "eve_touch")]
    ))
    record = events[at]
    damage = data.draw(st.sampled_from(["duplicate", "drop", "move"]))
    if damage != "duplicate":
        del events[at]
    if damage != "drop":
        payload = dict(record.payload)
        if damage == "duplicate":
            for name, values in _BULK_SCHEMA[record.kind][1].items():
                if values is not None and data.draw(st.booleans()):
                    payload[name] = data.draw(st.sampled_from(values))
        stats_at = next(i for i, e in enumerate(events) if e.kind == "stats")
        events.insert(data.draw(st.integers(1, stats_at)), Event(0, record.actor, record.kind, payload))
    transcript = Transcript(
        events=[Event(seq, e.actor, e.kind, e.payload) for seq, e in enumerate(events)],
    )
    expected = counts_or_error(dict_and_counter_run_samples, transcript)
    assert counts_or_error(_run_samples, transcript) == expected


def test_eve_information_is_exactly_zero_without_an_attack():
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.25, check_count_2=2, seed=6)
    transcript = run_protocol(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(0)),
        random_message(config.bob_capacity_bits, np.random.default_rng(1)),
    )
    assert transcript.completed
    assert eve_information(transcript) == 0.0


def test_eve_information_requires_a_completed_run():
    config = ProtocolConfig(
        n_pairs=64, check_fraction_1=0.5, check_count_2=0, seed=0,
        eve=EveStrategy.from_name("intercept-z"),
    )
    transcript = run_protocol(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(0)),
        random_message(config.bob_capacity_bits, np.random.default_rng(1)),
    )
    assert not transcript.completed  # 32 check photons: abort is essentially certain
    with pytest.raises(ValueError):
        eve_information(transcript)


def test_eve_information_needs_two_message_pairs():
    # one first-check pair and two decoys leave one of the four pairs for Alice's message
    config = ProtocolConfig(n_pairs=4, check_fraction_1=0.25, check_count_2=2, seed=4)
    transcript = run_protocol(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(2)),
        random_message(config.bob_capacity_bits, np.random.default_rng(3)),
    )
    assert transcript.completed
    with pytest.raises(InsufficientSamples, match="^1 message pairs available, need at least 2$"):
        eve_information(transcript)


def completed_intercept_z_run() -> Transcript:
    """A 64-pair run that intercept-z touches on both legs and that still completes."""
    config = ProtocolConfig(
        n_pairs=64, check_fraction_1=1 / 64, check_count_2=0, seed=5, abort_threshold=64,
        eve=EveStrategy.from_name("intercept-z"),
    )
    transcript = run_protocol(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(0)),
        random_message(config.bob_capacity_bits, np.random.default_rng(1)),
    )
    assert transcript.completed
    return transcript


@pytest.mark.parametrize("kind", ["pauli", "bell_measure"])
def test_records_off_their_shape_are_rejected_when_a_transcript_is_built(kind):
    transcript = completed_intercept_z_run()
    # a hand-built copy whose first record of the kind carries an extra field
    events = list(transcript.events)
    at = next(i for i, event in enumerate(events) if event.kind == kind)
    event = events[at]
    events[at] = Event(event.seq, event.actor, kind, {**event.payload, "note": "x"})
    match = f"seq {at}: {kind} record with a field 'note' outside its schema"
    with pytest.raises(TranscriptInvalid, match=match):
        Transcript(events=events)
    text = "".join(
        json.dumps(e.to_record(), sort_keys=True, separators=(",", ":")) + "\n" for e in events
    )
    with pytest.raises(TranscriptInvalid, match=match):
        Transcript.from_jsonl(text)


def test_eve_information_from_a_saved_transcript_matches_the_live_run(tmp_path):
    transcript = completed_intercept_z_run()
    live = eve_information(transcript)
    assert live > 0.0
    path = tmp_path / "run.jsonl"
    transcript.write_jsonl(path)
    assert eve_information(Transcript.read_jsonl(path)) == live


@pytest.mark.parametrize(
    "kind, name, old, new",
    [
        ("eve_touch", "leg", "second", "third"),
        ("pauli", "op", "U1", "U9"),
        ("bell_measure", "result", "psi_minus", "psi_zero"),
    ],
)
def test_reading_a_saved_run_rejects_an_out_of_schema_custody_value(
    tmp_path, kind, name, old, new
):
    """The reader rejects a custody record with a value outside its schema, naming
    the kind and the value, so Eve's information is never read from it."""
    text = completed_intercept_z_run().to_jsonl()
    assert f'"{name}":"{old}"' in text
    path = tmp_path / "damaged.jsonl"
    path.write_text(text.replace(f'"{name}":"{old}"', f'"{name}":"{new}"', 1), encoding="utf-8")
    with pytest.raises(TranscriptInvalid, match=f"{kind} record with {name} '{new}' outside"):
        Transcript.read_jsonl(path)


@pytest.mark.parametrize("actor, other", [("alice", "bob"), ("bob", "alice")])
def test_eve_information_raises_transcript_invalid_on_a_pair_without_its_pauli(
    tmp_path, actor, other
):
    """A saved run with one pauli line re-attributed to the other party reads and
    audits, but a Bell-measured pair then lacks the pauli record its sample needs."""
    text = completed_intercept_z_run().to_jsonl()
    line = next(
        line for line in text.splitlines() if f'"actor":"{actor}","kind":"pauli"' in line
    )
    record = json.loads(line)
    pair, slot = record["payload"]["pair"], record["payload"]["slot"]
    path = tmp_path / "damaged.jsonl"
    path.write_text(
        text.replace(line, line.replace(f'"actor":"{actor}"', f'"actor":"{other}"'), 1),
        encoding="utf-8",
    )
    saved = Transcript.read_jsonl(path)
    assert f"seq {record['seq']}: pauli on pair {pair} slot {slot} held by {actor}, " \
        f"expected {other}" in audit_custody(saved)
    with pytest.raises(
        TranscriptInvalid, match=f"pair {pair} is Bell-measured with no {actor} pauli record"
    ):
        eve_information(saved)


GOLDEN_SEED7 = Path(__file__).parent / "golden" / "transcript_n8_seed7.jsonl"


def write_records(path: Path, records: list[dict]) -> None:
    path.write_text(
        "".join(json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records),
        encoding="utf-8",
    )


@pytest.mark.parametrize(
    "damage, message",
    [
        (lambda r: r["payload"].update(second_check=None), "stats record with a second_check"),
        (lambda r: r["payload"].update(second_check=[]), "stats record with a second_check"),
        (lambda r: r.update(kind="config"), "config record after seq 0"),
        (lambda r: r.update(kind="verdict"), "verdict record before the last record"),
    ],
    ids=["null second_check", "list second_check", "stats as config", "stats as verdict"],
)
def test_reading_a_saved_run_rejects_a_damaged_stats_record(tmp_path, damage, message):
    """eve_information reads the decoys from the stats record; the reader rejects a
    stats record off FORMAT.md or out of place, so Eve's information is never read from it."""
    assert eve_information(Transcript.read_jsonl(GOLDEN_SEED7)) == 0.0
    records = [json.loads(line) for line in GOLDEN_SEED7.read_text(encoding="utf-8").splitlines()]
    damage(next(r for r in records if r["kind"] == "stats"))
    path = tmp_path / "damaged.jsonl"
    write_records(path, records)
    with pytest.raises(TranscriptInvalid, match=message):
        Transcript.read_jsonl(path)


def test_a_saved_run_without_stats_is_not_read(tmp_path):
    """Eve's information reads the decoys from the stats record, which FORMAT.md
    requires before the verdict, so the reader refuses a saved run without it."""
    lines = GOLDEN_SEED7.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines if '"kind":"stats"' not in line]
    records[-1]["seq"] -= 1
    path = tmp_path / "no_stats.jsonl"
    write_records(path, records)
    with pytest.raises(TranscriptInvalid, match="^transcript has no stats record$"):
        Transcript.read_jsonl(path)


def pooled_run_samples(
    strategy: EveStrategy, config: ProtocolConfig, trials: int, rng: np.random.Generator
) -> InformationStats:
    """estimate_information over _run_samples: each trial's seed and messages drawn from
    the stream as the estimator draws them, and each completed run's log re-read."""
    joints = eve, alice, bob = Counter(), Counter(), Counter()
    completed = 0
    for _ in range(trials):
        cfg = replace(config, seed=int(rng.integers(1 << 63)), eve=strategy)
        alice_msg = random_message(cfg.alice_capacity_bits, rng)
        transcript = run_protocol(cfg, alice_msg, random_message(cfg.bob_capacity_bits, rng))
        if transcript.completed:
            completed += 1
            for total, trial in zip(joints, _run_samples(transcript)):
                total.update(trial)
    return InformationStats(
        trials=trials,
        completed_runs=completed,
        message_pairs=sum(alice.values()),
        announced_vs_alice_bits=mutual_information_bits(alice),
        announced_vs_bob_bits=mutual_information_bits(bob),
        eve_guess_vs_alice_bits=mutual_information_bits(eve),
    )


# with decoys; the high abort threshold keeps the first check from ending the attacked runs
ESTIMATOR_CASES = [("none", 1.0), ("intercept-rand", 0.5), ("substitute", 0.25)]
ESTIMATOR_CONFIG = ProtocolConfig(n_pairs=24, check_fraction_1=1 / 24, check_count_2=2, abort_threshold=24)


@pytest.mark.parametrize("attack, attack_prob", ESTIMATOR_CASES)
def test_estimate_information_equals_run_samples_pooled_over_the_same_trials(attack, attack_prob):
    strategy = EveStrategy.from_name(attack, attack_prob)
    stats = estimate_information(strategy, ESTIMATOR_CONFIG, 60, np.random.default_rng(8))
    assert stats == pooled_run_samples(strategy, ESTIMATOR_CONFIG, 60, np.random.default_rng(8))
    if strategy.active:  # the decoy check ended some runs, and Eve learned something in the rest
        assert 0 < stats.completed_runs < stats.trials
        assert stats.eve_guess_vs_alice_bits > 0.0


@pytest.mark.parametrize("attack, attack_prob", ESTIMATOR_CASES)
def test_estimate_information_reads_no_trial_log(monkeypatch, attack, attack_prob):
    def refuse(*args):
        raise AssertionError("the estimator re-read a trial's log")

    monkeypatch.setattr(adversary, "_run_samples", refuse)
    monkeypatch.setattr(EventLog, "select", refuse)
    stats = estimate_information(
        EveStrategy.from_name(attack, attack_prob), ESTIMATOR_CONFIG, 20, np.random.default_rng(9)
    )
    assert stats.completed_runs > 0


def test_undetected_intercept_z_reports_positive_information():
    # one check photon keeps enough runs alive to pool a real estimate
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.125, check_count_2=0)
    stats = estimate_information(
        EveStrategy.from_name("intercept-z"),
        config,
        trials=600,
        rng=np.random.default_rng(21),
    )
    # the surviving-run interceptions expose the bit-flip bit of every op
    assert stats.eve_guess_vs_alice_bits > 0.8
    assert stats.completed_runs > 300


def test_estimate_information_insufficient_completed_runs():
    # 16 check photons and full interception: survival is about 1 percent
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.5, check_count_2=0)
    with pytest.raises(InsufficientSamples, match="^0 completed runs out of 5, need 1$"):
        estimate_information(
            EveStrategy.from_name("intercept-z"),
            config,
            trials=5,
            rng=np.random.default_rng(2),
        )


def test_passive_listener_learns_nothing_appreciable():
    config = ProtocolConfig(n_pairs=64, check_fraction_1=0.125, check_count_2=4)
    stats = estimate_information(
        EveStrategy.none(), config, trials=120, rng=np.random.default_rng(33)
    )
    assert stats.completed_runs == 120
    assert stats.eve_guess_vs_alice_bits == 0.0
    # plug-in MI bias at this sample size stays well under a few millibits
    assert stats.announced_vs_alice_bits < 0.005
    assert stats.announced_vs_bob_bits < 0.005
