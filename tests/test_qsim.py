"""Unit tests for the two-qubit substrate.

Expected values here are frozen from independent hand derivations on the
4-amplitude vectors.  The one exception is the op memo, whose tests compare
each memoized result with the same arithmetic run fresh.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qduplex import qsim
from qduplex.qsim import (
    Basis,
    BellState,
    InternalFault,
    PauliOp,
    QubitSlot,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_probabilities,
    make_singlet,
    measure_qubit,
    product_state,
    project_qubit,
    substitute_fresh,
)

INV_SQRT2 = 1.0 / np.sqrt(2.0)


def overlap_mag(a: TwoQubitState, b: TwoQubitState) -> float:
    return float(np.abs(np.vdot(a.amplitudes, b.amplitudes)))


def test_singlet_amplitudes_exact():
    # (|01> - |10>)/sqrt(2) over |00>,|01>,|10>,|11>
    amps = make_singlet().amplitudes
    assert amps == pytest.approx([0.0, INV_SQRT2, -INV_SQRT2, 0.0], abs=1e-15)


def test_pauli_matrices_exact():
    expected = {
        PauliOp.U0: [[1, 0], [0, 1]],
        PauliOp.U1: [[1, 0], [0, -1]],
        PauliOp.U2: [[0, 1], [1, 0]],
        PauliOp.U3: [[0, 1], [-1, 0]],
    }
    for op, matrix in expected.items():
        assert np.array_equal(op.matrix, np.array(matrix, dtype=complex))


def test_pauli_matrices_unitary_and_self_inverse_up_to_phase():
    for op in PauliOp:
        m = op.matrix
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-15)
        square = m @ m
        assert abs(abs(square[0, 0]) - 1.0) < 1e-15
        assert np.allclose(square, square[0, 0] * np.eye(2), atol=1e-15)


def test_code_and_index_bijections():
    assert [op.code for op in PauliOp] == [0, 1, 2, 3]
    assert [bell.index for bell in BellState] == [0, 1, 2, 3]
    for k in range(4):
        assert PauliOp(k).code == k
        assert BellState(k).index == k


def test_each_pauli_carries_singlet_to_its_indexed_bell_state():
    # the canonical index contract: U_k |singlet> lands on index k exactly
    for op in PauliOp:
        state = apply_pauli(make_singlet(), op, QubitSlot.M)
        probs = bell_probabilities(state)
        assert probs[op.code] == pytest.approx(1.0, abs=1e-12)
        assert overlap_mag(state, TwoQubitState(BellState(op.code).vector)) == pytest.approx(
            1.0, abs=1e-12
        )


def test_bell_vectors_orthonormal():
    for a in BellState:
        for b in BellState:
            inner = np.vdot(a.vector, b.vector)
            assert inner == pytest.approx(1.0 if a is b else 0.0, abs=1e-15)


def test_state_must_be_normalized():
    TwoQubitState(np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ValueError, match="not normalized"):
        TwoQubitState(np.array([1, 1, 0, 0], dtype=complex))
    with pytest.raises(ValueError):
        TwoQubitState(np.array([0.5, 0.5, 0.5, 0.5 + 1e-6], dtype=complex))
    with pytest.raises(ValueError, match="not normalized"):
        TwoQubitState(np.array([np.nan, 0, 0, 0], dtype=complex))


def test_state_requires_four_amplitudes():
    with pytest.raises(ValueError):
        TwoQubitState(np.array([1, 0], dtype=complex))


def test_amplitudes_are_read_only():
    state = make_singlet()
    with pytest.raises(ValueError):
        state.amplitudes[0] = 1.0


def test_product_state_basis_vectors():
    assert np.array_equal(product_state(1, 0).amplitudes, [0, 0, 1, 0])
    assert np.array_equal(product_state(0, 1).amplitudes, [0, 1, 0, 0])
    with pytest.raises(ValueError):
        product_state(2, 0)


@st.composite
def normalized_states(draw):
    values = draw(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False),
            min_size=8,
            max_size=8,
        )
    )
    vec = np.array(values[:4]) + 1j * np.array(values[4:])
    norm = np.linalg.norm(vec)
    if norm < 1e-3:
        vec = np.array([1, 0, 0, 0], dtype=complex)
        norm = 1.0
    return TwoQubitState(vec / norm)


@settings(max_examples=60, deadline=None)
@given(
    normalized_states(),
    st.lists(st.tuples(st.sampled_from(list(PauliOp)), st.sampled_from(list(QubitSlot))), max_size=6),
)
def test_pauli_sequences_preserve_normalization(state, ops):
    for op, slot in ops:
        state = apply_pauli(state, op, slot)
    assert float(np.sum(np.abs(state.amplitudes) ** 2)) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(normalized_states(), st.floats(min_value=0, max_value=2 * np.pi, allow_nan=False))
def test_global_phase_changes_no_distribution(state, theta):
    phased = TwoQubitState(np.exp(1j * theta) * state.amplitudes)
    assert bell_probabilities(phased) == pytest.approx(bell_probabilities(state), abs=1e-12)
    for slot in QubitSlot:
        for basis in Basis:
            assert project_qubit(phased, slot, basis, 0)[0] == pytest.approx(
                project_qubit(state, slot, basis, 0)[0], abs=1e-12
            )


def test_encoding_slot_does_not_matter_from_the_singlet():
    # applying the same op to either photon of any encoded singlet gives
    # states equal up to global phase, hence identical distributions
    for first in PauliOp:
        start = apply_pauli(make_singlet(), first, QubitSlot.M)
        for second in PauliOp:
            via_c = apply_pauli(start, second, QubitSlot.C)
            via_m = apply_pauli(start, second, QubitSlot.M)
            assert overlap_mag(via_c, via_m) == pytest.approx(1.0, abs=1e-12)


def test_flip_op_on_either_slot_gives_phi_minus_deterministically():
    for slot in QubitSlot:
        state = apply_pauli(make_singlet(), PauliOp.U2, slot)
        assert bell_probabilities(state)[BellState.PHI_MINUS.index] == pytest.approx(
            1.0, abs=1e-12
        )


def test_z_measurement_of_singlet_collapses_to_anticorrelated_product():
    p0, collapsed = project_qubit(make_singlet(), QubitSlot.C, Basis.Z, 0)
    assert p0 == pytest.approx(0.5, abs=1e-12)
    assert overlap_mag(collapsed, product_state(0, 1)) == pytest.approx(1.0, abs=1e-12)
    p1, collapsed = project_qubit(make_singlet(), QubitSlot.C, Basis.Z, 1)
    assert p1 == pytest.approx(0.5, abs=1e-12)
    assert overlap_mag(collapsed, product_state(1, 0)) == pytest.approx(1.0, abs=1e-12)


def test_x_outcome_zero_is_plus_eigenstate():
    # C photon prepared in (|0> + |1>)/sqrt(2): X measurement must give 0
    plus_c = TwoQubitState(np.array([INV_SQRT2, 0, INV_SQRT2, 0], dtype=complex))
    prob, _ = project_qubit(plus_c, QubitSlot.C, Basis.X, 0)
    assert prob == pytest.approx(1.0, abs=1e-12)
    minus_c = TwoQubitState(np.array([INV_SQRT2, 0, -INV_SQRT2, 0], dtype=complex))
    prob, _ = project_qubit(minus_c, QubitSlot.C, Basis.X, 1)
    assert prob == pytest.approx(1.0, abs=1e-12)


def test_measurement_collapse_is_repeatable():
    rng = np.random.default_rng(321)
    for _ in range(50):
        state = make_singlet()
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        outcome, collapsed = measure_qubit(state, QubitSlot.C, basis, rng)
        again, _ = measure_qubit(collapsed, QubitSlot.C, basis, rng)
        assert again == outcome


def test_singlet_anticorrelation_invariant():
    # at least 10^4 seeded trials, zero violations in either shared basis
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        basis = Basis.Z if rng.integers(2) == 0 else Basis.X
        first, collapsed = measure_qubit(make_singlet(), QubitSlot.C, basis, rng)
        second, _ = measure_qubit(collapsed, QubitSlot.M, basis, rng)
        assert first != second


def test_bell_probabilities_of_product_state():
    # |01> = (psi+ + psi-)/sqrt(2): equal weight on the two psi states
    probs = bell_probabilities(product_state(0, 1))
    assert probs[BellState.PSI_MINUS.index] == pytest.approx(0.5, abs=1e-12)
    assert probs[BellState.PSI_PLUS.index] == pytest.approx(0.5, abs=1e-12)
    assert probs[BellState.PHI_MINUS.index] == pytest.approx(0.0, abs=1e-12)
    assert probs[BellState.PHI_PLUS.index] == pytest.approx(0.0, abs=1e-12)


def test_bell_measure_deterministic_on_bell_states():
    rng = np.random.default_rng(0)
    for bell in BellState:
        state = TwoQubitState(bell.vector)
        for _ in range(5):
            assert bell_measure(state, rng) is bell


def test_bell_measure_sampling_tracks_probabilities():
    rng = np.random.default_rng(77)
    counts = {bell: 0 for bell in BellState}
    for _ in range(4000):
        counts[bell_measure(product_state(0, 1), rng)] += 1
    assert counts[BellState.PHI_MINUS] == 0
    assert counts[BellState.PHI_PLUS] == 0
    # 3 sigma for p=1/2, n=4000 is about 95
    assert abs(counts[BellState.PSI_MINUS] - 2000) < 150


def test_measure_replays_bit_exact_with_equal_seeds():
    def run(seed: int) -> list[int]:
        rng = np.random.default_rng(seed)
        outcomes = []
        for _ in range(200):
            state = make_singlet()
            basis = Basis.Z if rng.integers(2) == 0 else Basis.X
            slot = QubitSlot.C if rng.integers(2) == 0 else QubitSlot.M
            outcome, _ = measure_qubit(state, slot, basis, rng)
            outcomes.append(outcome)
        return outcomes

    assert run(9) == run(9)
    assert run(9) != run(10)


class FixedDraws:
    """A stream stub whose random() returns the given draws in order."""

    def __init__(self, *draws: float) -> None:
        self._draws = iter(draws)

    def random(self) -> float:
        return next(self._draws)


def test_bell_measure_gives_a_draw_on_rounding_slack_to_an_outcome_with_mass():
    # the Bell masses of these states sum to just under 1 (a singlet's to
    # 0.9999999999999996, a |01>'s to 0.9999999999999998), and the singlet's
    # psi_plus mass is a rounding residue of ~5e-34 that adds nothing
    slack = (0.9999999999999996, 0.9999999999999997, 0.9999999999999999)
    cases = [
        (make_singlet(), BellState.PSI_MINUS),
        (apply_pauli(make_singlet(), PauliOp.U2, QubitSlot.M), BellState.PHI_MINUS),
        (product_state(0, 1), BellState.PSI_PLUS),
    ]
    for state, last_with_mass in cases:
        total = 0.0
        for p in bell_probabilities(state):
            total += p
        draws = [d for d in slack if d >= total]
        assert draws  # each state has a slack band, and these draws land in it
        stream = FixedDraws(*draws)
        for _ in draws:
            assert bell_measure(state, stream) is last_with_mass


def test_vanishing_branch_is_an_internal_fault():
    class AlwaysOne:
        def random(self):
            return 1.0  # forces the zero-probability branch

    with pytest.raises(InternalFault):
        measure_qubit(product_state(0, 1), QubitSlot.C, Basis.Z, AlwaysOne())


def test_project_rejects_bad_outcome():
    with pytest.raises(ValueError):
        project_qubit(make_singlet(), QubitSlot.C, Basis.Z, 2)


# ---------------------------------------------------------------------------
# the op memo: a remembered result is the result a fresh computation gives

fresh = qsim._exact.__wrapped__  # the same arithmetic, bypassing the memo


def test_memoized_ops_equal_fresh_computation_on_random_walks():
    walks = np.random.default_rng(606)
    stream, twin = np.random.default_rng(17), np.random.default_rng(17)
    for _ in range(400):
        state = make_singlet()
        for _ in range(8):
            step = int(walks.integers(4))
            slot = QubitSlot.C if walks.integers(2) == 0 else QubitSlot.M
            basis = Basis.Z if walks.integers(2) == 0 else Basis.X
            if step == 0:
                op = PauliOp(int(walks.integers(4)))
                got = apply_pauli(state, op, slot)
                assert got.key == fresh(qsim._pauli, state.key, op, slot).key
                state = got
            elif step == 1:
                branches = []
                for outcome in (0, 1):
                    prob, post = project_qubit(state, slot, basis, outcome)
                    want_prob, want_post = fresh(qsim._project, state.key, slot, basis, outcome)
                    assert prob == want_prob
                    assert (post is None) == (want_post is None)
                    if post is not None:
                        assert post.key == want_post.key
                        branches.append(post)
                state = branches[int(walks.integers(len(branches)))]
            elif step == 2:
                outcome, collapsed = measure_qubit(state, slot, basis, stream)
                p0, want = fresh(qsim._project, state.key, slot, basis, 0)
                want_outcome = 0 if twin.random() < p0 else 1
                if want_outcome == 1:
                    _, want = fresh(qsim._project, state.key, slot, basis, 1)
                assert outcome == want_outcome
                assert collapsed.key == want.key
                state = collapsed
            else:
                probs = bell_probabilities(state)
                want_probs, _ = fresh(qsim._bell, state.key)
                assert probs.tobytes() == want_probs.tobytes()
                result = bell_measure(state, stream)
                # the unmemoized sampling loop: accumulate in BellState order
                draw, acc, want_bell = twin.random(), 0.0, None
                for bell in BellState:
                    acc += want_probs[bell.index]
                    if draw < acc:
                        want_bell = bell
                        break
                assert result is want_bell
                state = make_singlet()  # the pair is consumed


def test_memo_stays_bounded_and_correct_past_its_limit():
    rng = np.random.default_rng(11)
    op, slot = PauliOp.U3, QubitSlot.C
    states = []
    for _ in range(qsim.MEMO_LIMIT + 256):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        state = TwoQubitState(vec / np.linalg.norm(vec))
        assert apply_pauli(state, op, slot).key == fresh(qsim._pauli, state.key, op, slot).key
        assert qsim._exact.cache_info().currsize <= qsim.MEMO_LIMIT
        states.append(state)
    for state in states[:64] + states[-64:]:  # long evicted, and still held
        assert apply_pauli(state, op, slot).key == fresh(qsim._pauli, state.key, op, slot).key
        p0, _ = project_qubit(state, slot, Basis.X, 0)
        assert p0 == fresh(qsim._project, state.key, slot, Basis.X, 0)[0]
    assert qsim._exact.cache_info().currsize <= qsim.MEMO_LIMIT


def test_mutating_returned_bell_probabilities_changes_no_later_call():
    state = product_state(0, 1)
    first = bell_probabilities(state)
    expected = first.copy()
    first[:] = [0.0, 0.0, 0.0, 1.0]
    assert np.array_equal(bell_probabilities(state), expected)
    stream = np.random.default_rng(5)
    assert all(bell_measure(state, stream) in (BellState.PSI_MINUS, BellState.PSI_PLUS) for _ in range(50))


def test_byte_equal_states_give_byte_equal_results():
    vec = np.array([0.6, 0.0, 0.0, 0.8j])
    a, b = TwoQubitState(vec), TwoQubitState(vec.copy())
    assert a is not b and a.key == b.key
    for slot in QubitSlot:
        for op in PauliOp:
            assert apply_pauli(a, op, slot).key == apply_pauli(b, op, slot).key
        for basis in Basis:
            for outcome in (0, 1):
                pa, sa = project_qubit(a, slot, basis, outcome)
                pb, sb = project_qubit(b, slot, basis, outcome)
                assert pa == pb and sa.key == sb.key
    assert bell_probabilities(a).tobytes() == bell_probabilities(b).tobytes()
    twin_a, twin_b = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(20):
        assert bell_measure(a, twin_a) is bell_measure(b, twin_b)


@pytest.mark.parametrize("enum_type", [PauliOp, QubitSlot, Basis, BellState])
def test_qsim_enums_hash_by_identity(enum_type):
    """The memo keys hash these enums at C speed; equality was identity already."""
    assert enum_type.__hash__ is object.__hash__
    for member in enum_type:
        assert hash(member) == object.__hash__(member)
        assert {member: 1}[enum_type(member.value)] == 1


def test_apply_pauli_returns_the_shared_memoized_state_for_equal_inputs():
    vec = np.array([0.6, 0.0, 0.0, 0.8j])
    a, b = TwoQubitState(vec), TwoQubitState(vec.copy())
    for slot in QubitSlot:
        for op in PauliOp:
            assert apply_pauli(a, op, slot) is apply_pauli(b, PauliOp(op.code), QubitSlot(slot.value))
    assert apply_pauli(make_singlet(), PauliOp.U1, QubitSlot.M) is apply_pauli(
        make_singlet(), PauliOp.U1, QubitSlot.M
    )


def test_singlet_is_one_shared_immutable_state():
    assert make_singlet() is make_singlet()
    assert make_singlet().key == make_singlet().amplitudes.tobytes()


def rebuilt_with_fresh_zero(state: TwoQubitState, slot: QubitSlot, outcome: int) -> bytes:
    """The substitution arithmetic as it ran in the adversary before it became a qsim op."""
    m = state.amplitudes.reshape(2, 2)
    fresh = np.zeros((2, 2), dtype=np.complex128)
    if slot is QubitSlot.C:
        fresh[0, :] = m[outcome, :]
    else:
        fresh[:, 0] = m[:, outcome]
    return TwoQubitState(fresh.reshape(4)).key


def test_substitution_matches_its_old_arithmetic_and_is_a_memo_hit_on_repeat():
    rng = np.random.default_rng(11)
    starts = [make_singlet(), apply_pauli(make_singlet(), PauliOp.U3, QubitSlot.M)]
    for _ in range(4):
        vec = rng.normal(size=4) + 1j * rng.normal(size=4)
        starts.append(TwoQubitState(vec / np.linalg.norm(vec)))
    for start in starts:
        for slot in QubitSlot:
            for outcome in (0, 1):
                _, collapsed = project_qubit(start, slot, Basis.Z, outcome)
                if collapsed is None:
                    continue
                fresh = substitute_fresh(collapsed, slot, outcome)
                assert fresh.key == rebuilt_with_fresh_zero(collapsed, slot, outcome)
                hits = qsim._exact.cache_info().hits
                assert substitute_fresh(collapsed, slot, outcome) is fresh
                assert qsim._exact.cache_info().hits == hits + 1
