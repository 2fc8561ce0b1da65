"""Correctness checks for the benchmark's workloads.

Every expected value here is computed apart from the program: Born-rule
probabilities and Bell outcomes from this file's own Pauli matrices and
Bell vectors, bands from binomial and chi-square distributions, payload
bits from the bytes the benchmark generated.  Nothing in this module
imports qduplex, so a fault in the program cannot also move its check.

Each check returns a list of problems; an empty list means it holds.
"""

from __future__ import annotations

import math

import numpy as np

_R = 1.0 / math.sqrt(2.0)

# Encoding operations by their wire name: U0 = I, U1 = Z, U2 = X, U3 = iY.
PAULI = {
    "U0": np.array([[1, 0], [0, 1]], dtype=complex),
    "U1": np.array([[1, 0], [0, -1]], dtype=complex),
    "U2": np.array([[0, 1], [1, 0]], dtype=complex),
    "U3": np.array([[0, 1], [-1, 0]], dtype=complex),
}

# Bell states over |c m> = |00>, |01>, |10>, |11>, by wire name; index order
# psi- = 0, psi+ = 1, phi- = 2, phi+ = 3.
BELL = {
    "psi_minus": np.array([0, _R, -_R, 0], dtype=complex),
    "psi_plus": np.array([0, _R, _R, 0], dtype=complex),
    "phi_minus": np.array([_R, 0, 0, -_R], dtype=complex),
    "phi_plus": np.array([_R, 0, 0, _R], dtype=complex),
}

SINGLET = BELL["psi_minus"]

_EYE = PAULI["U0"]

# Outcome-0 and outcome-1 eigenvectors of the two measurement bases.
_BASIS = {
    "Z": (np.array([1, 0], dtype=complex), np.array([0, 1], dtype=complex)),
    "X": (np.array([_R, _R], dtype=complex), np.array([_R, -_R], dtype=complex)),
}

# Two-sided tail of every binomial band, in standard deviations, and the
# upper tail of every chi-square gate.  Both make a spurious failure far
# rarer than one in a million checks.
BAND_SIGMAS = 5.0
CHI2_TAIL = 1e-9


def bell_outcome_table() -> dict[tuple[str, str, str], str]:
    """Bell outcome for (Alice's op on M, Bob's op, Bob's slot) on the singlet."""
    table = {}
    for alice_op, a in PAULI.items():
        for bob_op, b in PAULI.items():
            for slot in ("C", "M"):
                state = np.kron(_EYE, a) @ SINGLET
                state = (np.kron(b, _EYE) if slot == "C" else np.kron(_EYE, b)) @ state
                probs = {name: abs(np.vdot(v, state)) ** 2 for name, v in BELL.items()}
                name = max(probs, key=probs.get)
                if abs(probs[name] - 1.0) > 1e-12:
                    raise ArithmeticError("encoded singlet is not a Bell state")
                table[(alice_op, bob_op, slot)] = name
    return table


def intercept_resend_violation_rate() -> float:
    """Per-photon first-check violation rate under intercept-resend in a random basis.

    Eve measures the C photon of a singlet in Z or X with equal odds and
    forwards the collapsed photon; Bob then measures C and Alice M in one
    basis chosen with equal odds.  A violation is equal outcomes.  The sum
    runs over every branch with its Born probability.
    """
    rate = 0.0
    for eve_basis in _BASIS.values():
        for e in eve_basis:
            collapsed = np.kron(np.outer(e, e.conj()), _EYE) @ SINGLET
            p_eve = float(np.vdot(collapsed, collapsed).real)
            collapsed = collapsed / math.sqrt(p_eve)
            for check_basis in _BASIS.values():
                for v in check_basis:
                    amp = np.vdot(np.kron(v, v), collapsed)
                    rate += 0.5 * p_eve * 0.5 * abs(amp) ** 2
    return rate


def binomial_band(p: float, n: int, sigmas: float = BAND_SIGMAS) -> tuple[float, float]:
    half = sigmas * math.sqrt(p * (1.0 - p) / n)
    return p - half, p + half


def chi2_sf(x: float, dof: int) -> float:
    """Upper tail of the chi-square distribution, by the regularized gamma series."""
    a, y = dof / 2.0, x / 2.0
    if y <= 0.0:
        return 1.0
    term = total = 1.0 / a
    k = 1
    while term > total * 1e-17:
        term *= y / (a + k)
        total += term
        k += 1
    lower = math.exp(a * math.log(y) - y - math.lgamma(a)) * total
    return max(0.0, 1.0 - lower)


def chi2_isf(tail: float, dof: int) -> float:
    """The x with chi2_sf(x, dof) == tail, by bisection."""
    lo, hi = 0.0, 1.0
    while chi2_sf(hi, dof) > tail:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, dof) > tail:
            lo = mid
        else:
            hi = mid
    return hi


# G = 2 n ln2 MI(bits) of two independent uniform 4-symbol variables
# follows chi-square with (4 - 1) * (4 - 1) degrees of freedom.
MI_GATE = chi2_isf(CHI2_TAIL, 9)


def detection_round(stats, trials: int, check_photons: int) -> list[str]:
    """One estimate_detection call: the counts its config fixes."""
    problems = []
    if stats.trials != trials:
        problems.append(f"trials {stats.trials} != {trials}")
    if stats.checked_photons != trials * check_photons:
        problems.append(f"checked_photons {stats.checked_photons} != {trials} x {check_photons}")
    if not 0 <= stats.violations <= stats.checked_photons:
        problems.append(f"violations {stats.violations} outside 0..{stats.checked_photons}")
    if not 0 <= stats.aborted_runs <= trials:
        problems.append(f"aborted_runs {stats.aborted_runs} outside 0..{trials}")
    return problems


def detection_rates(
    violations: int, photons: int, aborted: int, trials: int, check_photons: int
) -> list[str]:
    """Pooled violation and abort rates inside binomial bands around the Born-rule values."""
    problems = []
    per_photon = intercept_resend_violation_rate()
    abort = 1.0 - (1.0 - per_photon) ** check_photons
    for label, hits, n, p in (
        ("per-photon violation rate", violations, photons, per_photon),
        ("abort rate", aborted, trials, abort),
    ):
        lo, hi = binomial_band(p, n)
        if not lo <= hits / n <= hi:
            problems.append(f"{label} {hits / n:.5f} outside [{lo:.5f}, {hi:.5f}] (n={n})")
    return problems


def information_round(
    stats, trials: int, message_pairs_per_trial: int, bob_pairs_per_trial: int
) -> list[str]:
    """One quiet-channel estimate_information call: counts and leakage gates."""
    problems = []
    if stats.completed_runs != trials:
        problems.append(f"completed_runs {stats.completed_runs} != {trials}")
    if stats.message_pairs != trials * message_pairs_per_trial:
        problems.append(
            f"message_pairs {stats.message_pairs} != {trials} x {message_pairs_per_trial}"
        )
    for label, mi, n in (
        ("announced vs alice", stats.announced_vs_alice_bits, trials * message_pairs_per_trial),
        ("announced vs bob", stats.announced_vs_bob_bits, trials * bob_pairs_per_trial),
    ):
        g = 2.0 * n * math.log(2.0) * mi
        if not 0.0 <= g < MI_GATE:
            problems.append(f"{label}: G = {g:.3f} outside [0, {MI_GATE:.3f}) at n={n}")
    if not 0.0 <= stats.eve_guess_vs_alice_bits <= 1e-12:
        problems.append(f"eve_guess_vs_alice_bits {stats.eve_guess_vs_alice_bits!r} without an attack")
    return problems


def payload_bits(payload: bytes) -> str:
    return "".join(f"{byte:08b}" for byte in payload)


def decoded_payload(label: str, decoded: dict, payload: bytes) -> list[str]:
    """A verdict's decoded-message record against the bytes that were sent."""
    if decoded.get("pad_bits") != 0 or decoded.get("bits") != payload_bits(payload):
        return [f"{label}: decoded bits differ from the {len(payload)}-byte payload sent"]
    return []


def bell_announcements(records: list[dict], table: dict[tuple[str, str, str], str]) -> list[str]:
    """Every Bell result, measured and announced, against the encodings on its pair."""
    alice_ops: dict[int, str] = {}
    bob_ops: dict[int, tuple[str, str]] = {}
    measured: dict[int, str] = {}
    announced: dict[int, str] = {}
    for record in records:
        kind, payload = record["kind"], record["payload"]
        if kind == "pauli":
            if record["actor"] == "alice":
                alice_ops[payload["pair"]] = payload["op"]
            else:
                bob_ops[payload["pair"]] = (payload["op"], payload["slot"])
        elif kind == "bell_measure":
            measured[payload["pair"]] = payload["result"]
        elif kind == "message" and payload.get("type") == "bell_results":
            announced.update((i, name) for i, name in payload["results"])
    problems = []
    if not measured:
        problems.append("no bell_measure records")
    if announced != measured:
        problems.append("announced Bell results differ from the measured ones")
    for pair, result in sorted(measured.items()):
        if pair not in alice_ops or pair not in bob_ops:
            problems.append(f"pair {pair}: Bell result without both encodings")
            continue
        bob_op, slot = bob_ops[pair]
        expected = table[(alice_ops[pair], bob_op, slot)]
        if result != expected:
            problems.append(f"pair {pair}: Bell result {result}, expected {expected}")
    return problems
