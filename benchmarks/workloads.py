"""The benchmark's workloads: inputs from a seed, one round of work, checks.

A round is a fixed number of operations, so every run attempts whole
rounds of the same operations whatever its seed or length.  Rounds call
the program through module attributes (``adversary.estimate_detection``,
``cli.main``, ...) looked up at call time, so a traced run sees every call.
Each round times only the program's work; the benchmark's own checks run
outside that time.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from qduplex import adversary, cli, session


@dataclass
class Round:
    pairs: int  # EPR pairs prepared
    ops: int  # operations attempted
    failed: int
    seconds: float  # host time of the program's work
    ref_s: float = 0.0  # host time of the reference kernel next to this round


class Workload:
    name = ""
    ops_per_round = 1
    min_rounds = 1

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []

    def rng(self, *path: int) -> np.random.Generator:
        stream = WORKLOADS.index(type(self))
        return np.random.default_rng(np.random.SeedSequence([self.seed, stream, *path]))

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_round(self, k: int) -> Round:
        raise NotImplementedError

    def pooled_problems(self) -> list[str]:
        """Checks on the whole run's pooled output, after the last round."""
        return []

    def _checked(self, pairs: int, seconds: float, problems: list[str]) -> Round:
        self.problems.extend(problems)
        failed = self.ops_per_round if problems else 0
        return Round(pairs=pairs, ops=self.ops_per_round, failed=failed, seconds=seconds)


class DetectIntercept16(Workload):
    """Acceptance criterion 5's shape: intercept-resend in a random basis, 16 pairs."""

    name = "detect-intercept-16"
    ops_per_round = 100  # trials
    CHECK_PHOTONS = 8  # ceil(16 * 0.5)

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config = session.ProtocolConfig(n_pairs=16, check_fraction_1=0.5, check_count_2=0)
        self.strategy = adversary.EveStrategy.from_name("intercept-rand", 1.0)
        self.photons = self.violations = self.trials = self.aborted = 0

    def warm_up(self) -> None:
        adversary.estimate_detection(self.strategy, self.config, 10, self.rng(1))

    def run_round(self, k: int) -> Round:
        rng = self.rng(0, k)
        start = time.perf_counter()
        stats = adversary.estimate_detection(self.strategy, self.config, self.ops_per_round, rng)
        seconds = time.perf_counter() - start
        problems = checks.detection_round(stats, self.ops_per_round, self.CHECK_PHOTONS)
        if not problems:
            self.photons += stats.checked_photons
            self.violations += stats.violations
            self.trials += stats.trials
            self.aborted += stats.aborted_runs
        return self._checked(self.config.n_pairs * self.ops_per_round, seconds, problems)

    def pooled_problems(self) -> list[str]:
        if not self.trials:
            return ["no round passed its own checks"]
        return checks.detection_rates(
            self.violations, self.photons, self.aborted, self.trials, self.CHECK_PHOTONS
        )


class InfoQuiet1024(Workload):
    """Acceptance criterion 6's shape: no Eve, 1024 pairs, 1000 message pairs a trial."""

    name = "info-quiet-1024"
    ops_per_round = 4  # trials
    MESSAGE_PAIRS = 1000  # 1024 - ceil(1024 / 64) checked - 8 decoys
    BOB_PAIRS = 1008  # decoys still carry Bob's bits

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.config = session.ProtocolConfig(
            n_pairs=1024, check_fraction_1=1 / 64, check_count_2=8
        )
        self.strategy = adversary.EveStrategy.none()

    def warm_up(self) -> None:
        adversary.estimate_information(self.strategy, self.config, 1, self.rng(1))

    def run_round(self, k: int) -> Round:
        rng = self.rng(0, k)
        start = time.perf_counter()
        stats = adversary.estimate_information(self.strategy, self.config, self.ops_per_round, rng)
        seconds = time.perf_counter() - start
        problems = checks.information_round(
            stats, self.ops_per_round, self.MESSAGE_PAIRS, self.BOB_PAIRS
        )
        return self._checked(self.config.n_pairs * self.ops_per_round, seconds, problems)


class RoundtripTranscript4096(Workload):
    """One full CLI exchange at 4096 pairs with both capacities filled, through a transcript."""

    name = "roundtrip-transcript-4096"
    min_rounds = 2  # exchange 1 replays exchange 0
    PAIRS = 4096
    FLAGS = ("--check-fraction", "0.015625", "--decoys", "8")
    ALICE_BYTES = 1006  # 2 * (4096 - 64 checked - 8 decoys) bits
    BOB_BYTES = 1008  # 2 * (4096 - 64) bits

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self.transcript_path = workdir / "roundtrip.jsonl"
        self.csv_path = workdir / "roundtrip.csv"
        self.bell_table = checks.bell_outcome_table()
        self.first_transcript: bytes | None = None

    def _exchange(self, argv: list[str]):
        """cli.main, then reading the transcript back and auditing it: the timed work."""
        self.transcript_path.unlink(missing_ok=True)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        transcript = session.Transcript.read_jsonl(self.transcript_path)
        violations = session.audit_custody(transcript)
        seconds = time.perf_counter() - start
        return code, out.getvalue(), transcript, violations, seconds

    def _argv(self, pairs: int, seed: int, alice: str, bob: str) -> list[str]:
        return [
            "--mode", "roundtrip", "--pairs", str(pairs), *self.FLAGS, "--seed", str(seed),
            "--alice-msg", alice, "--bob-msg", bob,
            "--transcript", str(self.transcript_path), "--out", str(self.csv_path),
        ]

    def warm_up(self) -> None:
        seed = int(self.rng(1).integers(1 << 63))
        self._exchange(self._argv(256, seed, "random", "random"))

    def run_round(self, k: int) -> Round:
        rng = self.rng(0, 0 if k == 1 else k)
        seed = int(rng.integers(1 << 63))
        alice, bob = rng.bytes(self.ALICE_BYTES), rng.bytes(self.BOB_BYTES)
        code, stdout, transcript, violations, seconds = self._exchange(
            self._argv(self.PAIRS, seed, alice.hex(), bob.hex())
        )
        problems = self.exchange_problems(code, stdout, transcript, violations, alice, bob)
        raw = self.transcript_path.read_bytes()
        if k == 0:
            self.first_transcript = raw
        elif k == 1 and raw != self.first_transcript:
            problems.append("replayed exchange wrote a different transcript")
        return self._checked(self.PAIRS, seconds, problems)

    def exchange_problems(self, code, stdout, transcript, violations, alice, bob) -> list[str]:
        if code != 0:
            return [f"cli exited {code}"]
        problems = [f"custody: {v}" for v in violations[:3]]
        printed = dict(re.findall(r"^(alice -> bob|bob -> alice): ([0-9a-f]+) \(match\)$",
                                  stdout, re.MULTILINE))
        if printed.get("alice -> bob") != alice.hex() or printed.get("bob -> alice") != bob.hex():
            problems.append("printed payloads differ from the payloads sent")
        records = [e.to_record() for e in transcript.events]
        verdict = records[-1]["payload"]
        if verdict.get("outcome") != "completed":
            return problems + [f"verdict {verdict.get('outcome')!r}"]
        problems += checks.decoded_payload("bob's copy of alice's message", verdict["bob_decoded"], alice)
        problems += checks.decoded_payload("alice's copy of bob's message", verdict["alice_decoded"], bob)
        problems += checks.bell_announcements(records, self.bell_table)
        return problems


WORKLOADS = (DetectIntercept16, InfoQuiet1024, RoundtripTranscript4096)
BY_NAME = {w.name: w for w in WORKLOADS}
