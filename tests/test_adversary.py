"""Unit tests for the channel attacks and their estimators.

The detection-rate expectations are computed here by exact branch
enumeration over the Born probabilities, independently of the sampling
code they validate.
"""

from __future__ import annotations

import numpy as np
import pytest

from qduplex.adversary import (
    AttackKind,
    EveRecord,
    EveStrategy,
    EveTouch,
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
)
from qduplex.codec import random_message
from qduplex.qsim import (
    Basis,
    QubitSlot,
    TwoQubitState,
    make_singlet,
    product_state,
    project_qubit,
)
from qduplex.session import ProtocolConfig, Session, run_protocol


def overlap_mag(a: TwoQubitState, b: TwoQubitState) -> float:
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)))


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
    out, record = transit(states, Leg.FIRST, EveStrategy.none(), np.random.default_rng(0))
    assert out == states
    assert record.touches == []


def test_intercept_z_collapses_to_anticorrelated_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        out, record = transit(
            {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("intercept-z"), rng
        )
        (touch,) = record.touches
        assert touch.leg is Leg.FIRST
        assert touch.basis is Basis.Z
        expected = product_state(touch.outcome, 1 - touch.outcome)
        assert overlap_mag(out[0], expected) == pytest.approx(1.0, abs=1e-12)


def test_intercept_x_uses_x_basis():
    out, record = transit(
        {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("intercept-x"), np.random.default_rng(1)
    )
    assert record.touches[0].basis is Basis.X
    # collapsed to an X-basis product: Z outcomes of both photons are coin flips
    p0, _ = project_qubit(out[0], QubitSlot.C, Basis.Z, 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)


def test_substitute_forwards_fresh_zero_on_each_leg():
    rng = np.random.default_rng(12)
    out, record = transit(
        {0: make_singlet()}, Leg.FIRST, EveStrategy.from_name("substitute"), rng
    )
    (touch,) = record.touches
    # C slot now |0>, partner keeps the anticorrelated residual
    assert overlap_mag(out[0], product_state(0, 1 - touch.outcome)) == pytest.approx(
        1.0, abs=1e-12
    )
    out, record = transit(
        {0: make_singlet()}, Leg.SECOND, EveStrategy.from_name("substitute"), rng
    )
    (touch,) = record.touches
    assert overlap_mag(out[0], product_state(1 - touch.outcome, 0)) == pytest.approx(
        1.0, abs=1e-12
    )


def test_attack_probability_thins_touches():
    states = {i: make_singlet() for i in range(400)}
    strategy = EveStrategy.from_name("intercept-z", attack_prob=0.25)
    _, record = transit(states, Leg.FIRST, strategy, np.random.default_rng(4))
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
    assert not EveStrategy.from_name("intercept-z", attack_prob=0.0).active


def test_transit_is_deterministic_under_a_fixed_stream():
    states = {i: make_singlet() for i in range(32)}
    strategy = EveStrategy.from_name("intercept-rand", attack_prob=0.7)
    out1, rec1 = transit(states, Leg.FIRST, strategy, np.random.default_rng(99))
    out2, rec2 = transit(states, Leg.FIRST, strategy, np.random.default_rng(99))
    assert rec1.touches == rec2.touches
    for i in states:
        assert np.array_equal(out1[i].amplitudes, out2[i].amplitudes)


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
    assert mutual_information_bits([(0, 0), (0, 1), (0, 2), (0, 3)]) == pytest.approx(0.0)
    assert mutual_information_bits([(0, 0), (1, 1)] * 50) == pytest.approx(1.0)
    assert mutual_information_bits([(x, y) for x in range(4) for y in range(4)]) == pytest.approx(
        0.0, abs=1e-12
    )
    # a constant column is exactly 0, not the plug-in sum's rounding residue (8.97e-17)
    assert mutual_information_bits([(0, 0)] * 7 + [(0, 1)] * 18) == 0.0
    with pytest.raises(InsufficientSamples):
        mutual_information_bits([])


def test_eve_record_guess_logic():
    record = EveRecord(
        touches=[
            EveTouch(0, Leg.FIRST, Basis.Z, 0),
            EveTouch(0, Leg.SECOND, Basis.Z, 0),  # flip seen: high bit 1
            EveTouch(1, Leg.FIRST, Basis.X, 1),
            EveTouch(1, Leg.SECOND, Basis.X, 0),  # no flip in X: low bit 0
            EveTouch(2, Leg.FIRST, Basis.Z, 1),
            EveTouch(2, Leg.SECOND, Basis.X, 0),  # mixed bases: no inference
            EveTouch(3, Leg.FIRST, Basis.Z, 1),  # single leg: no inference
        ]
    )
    guesses = record.alice_op_guesses()
    assert guesses == {0: 0b10, 1: 0b00}


def test_eve_information_is_exactly_zero_without_an_attack():
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.25, check_count_2=2, seed=6)
    session = Session(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(0)),
        random_message(config.bob_capacity_bits, np.random.default_rng(1)),
    )
    transcript = session.run()
    assert transcript.completed
    assert eve_information(session.eve_record, transcript) == 0.0


def test_eve_information_requires_a_completed_run():
    config = ProtocolConfig(
        n_pairs=64, check_fraction_1=0.5, check_count_2=0, seed=0,
        eve=EveStrategy.from_name("intercept-z"),
    )
    session = Session(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(0)),
        random_message(config.bob_capacity_bits, np.random.default_rng(1)),
    )
    transcript = session.run()
    assert not transcript.completed  # 32 check photons: abort is essentially certain
    with pytest.raises(ValueError):
        eve_information(session.eve_record, transcript)


def test_eve_information_min_pairs_guard():
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.25, check_count_2=1, seed=4)
    session = Session(
        config,
        random_message(config.alice_capacity_bits, np.random.default_rng(2)),
        random_message(config.bob_capacity_bits, np.random.default_rng(3)),
    )
    transcript = session.run()
    with pytest.raises(InsufficientSamples):
        eve_information(session.eve_record, transcript, min_pairs=10_000)


def test_undetected_intercept_z_reports_positive_information():
    # one check photon keeps enough runs alive to pool a real estimate
    config = ProtocolConfig(n_pairs=8, check_fraction_1=0.125, check_count_2=0)
    stats = estimate_information(
        EveStrategy.from_name("intercept-z"),
        config,
        trials=600,
        rng=np.random.default_rng(21),
        min_completed=50,
    )
    # the surviving-run interceptions expose the bit-flip bit of every op
    assert stats.eve_guess_vs_alice_bits > 0.8
    assert stats.completed_runs > 300


def test_estimate_information_insufficient_completed_runs():
    # 16 check photons and full interception: survival is about 1 percent
    config = ProtocolConfig(n_pairs=32, check_fraction_1=0.5, check_count_2=0)
    with pytest.raises(InsufficientSamples):
        estimate_information(
            EveStrategy.from_name("intercept-z"),
            config,
            trials=5,
            rng=np.random.default_rng(2),
            min_completed=5,
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
