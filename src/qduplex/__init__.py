"""Desk-scale simulator of two-way secure direct messaging over EPR pair blocks.

The package splits along the protocol's own seams: qsim holds the exact
two-qubit quantum substrate, codec the bit/operation coding rules, session
the two-party protocol engine and transcripts, records the transcript's
records, their JSONL lines and the custody rules, adversary the channel
attacks and their estimators, and cli the experiment runner.
"""

__version__ = "0.1.0"

from .adversary import (
    AttackKind,
    DetectionStats,
    EveRecord,
    EveStrategy,
    EveTouch,
    InformationStats,
    InsufficientSamples,
    Leg,
    estimate_detection,
    estimate_information,
    eve_information,
    transit,
    wilson_interval,
)
from .codec import (
    MessageBits,
    bits_for_op,
    decode_alice,
    decode_bob,
    expected_bell,
    op_for_bits,
    pack_bits,
    random_message,
    unpack_bits,
)
from .qsim import (
    Basis,
    BellState,
    InternalFault,
    PauliOp,
    QubitSlot,
    RandomStream,
    TwoQubitState,
    apply_pauli,
    bell_measure,
    bell_probabilities,
    make_singlet,
    measure_qubit,
    outcome_probabilities,
    product_state,
    project_qubit,
)
from .session import (
    Aborted,
    CapacityExceeded,
    Completed,
    ConfigInvalid,
    Event,
    EventLog,
    MAX_PAIRS,
    Phase,
    ProtocolConfig,
    ProtocolError,
    Session,
    Transcript,
    TranscriptInvalid,
    audit_custody,
    run_protocol,
)
