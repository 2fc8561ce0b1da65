"""Per-layer tracing of qduplex, installed from outside the package.

Tracer.install() wraps the public entry points of each layer (qsim, codec,
session, adversary, cli) in timing spans.  A name that other modules
imported with ``from .x import name`` is replaced in every qduplex module
that holds it, because those call sites never look the name up in its
home module again; methods are replaced on their class.  uninstall()
puts every original back.

Spans are folded into per-function totals as they close (calls,
inclusive time, self time, work units), so memory stays flat however long
the run.  A span's self time is its duration minus the durations of the
spans it directly encloses; a layer's self time is the sum of the self
times of its spans, so time spent in another layer's code is never
counted twice.  Functions of a layer that are only called from inside the
same layer (qsim.project_qubit, qsim.bell_probabilities) stay unwrapped:
their time is already inside the enclosing span of that layer.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

from qduplex import adversary, cli, codec, qsim, session

_SESSION_PHASES = {
    "prepare_pairs": "prepare",
    "first_check": "first_check",
    "alice_encode": "alice_encode",
    "bob_encode_measure_announce": "bell_announce",
    "second_check": "second_check",
    "decode_both": "decode",
    "_finish": "finish",
}

PHASES = (
    "prepare",
    "transmit_first",
    "first_check",
    "alice_encode",
    "transmit_second",
    "bell_announce",
    "second_check",
    "decode",
    "finish",
)

QSIM_COUNTED = ("make_singlet", "apply_pauli", "measure_qubit", "bell_measure")

# Every per-layer metric a traced run prints: name, unit, better direction.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    *((f"qsim.{fn}.calls", "calls/run", "lower") for fn in QSIM_COUNTED),
    *((f"qsim.{fn}.us_per_call", "us", "lower") for fn in QSIM_COUNTED),
    ("qsim.self_us_per_pair", "us/pair", "lower"),
    ("codec.random_message.us_per_bit", "us/bit", "lower"),
    ("codec.pack_bits.us_per_bit", "us/bit", "lower"),
    ("codec.from_pairs.us_per_pair", "us/pair", "lower"),
    ("codec.self_us_per_pair", "us/pair", "lower"),
    ("session.init.self_us_per_run", "us/run", "lower"),
    *((f"session.{phase}.self_us_per_pair", "us/pair", "lower") for phase in PHASES),
    ("session.self_us_per_pair", "us/pair", "lower"),
    ("session.events_per_pair", "events/pair", "lower"),
    ("session.runs_attempted", "runs", "higher"),
    ("session.runs_completed", "runs", "higher"),
    ("session.completed_share", "share", "higher"),
    ("session.to_jsonl.us_per_event", "us/event", "lower"),
    ("session.from_jsonl.us_per_event", "us/event", "lower"),
    ("session.audit_custody.us_per_event", "us/event", "lower"),
    ("session.transcript_bytes_per_pair", "B/pair", "lower"),
    ("adversary.transit.self_us_per_photon", "us/photon", "lower"),
    ("adversary.eve_touches", "touches/run", "lower"),
    ("adversary.estimator.self_us_per_trial", "us/trial", "lower"),
    ("adversary.mutual_information_bits.us_per_sample", "us/sample", "lower"),
    ("cli.main.self_ms_per_call", "ms", "lower"),
    ("trace.untraced_norm_pairs_per_s", "pairs/s", "higher"),
    ("trace.traced_norm_pairs_per_s", "pairs/s", "higher"),
    ("trace.overhead_share", "share", "lower"),
    ("host.pairs_per_s", "pairs/s", "higher"),
    ("host.ref_kernel_ms", "ms", "lower"),
)


@dataclass
class FnStats:
    calls: int = 0
    incl_ns: int = 0
    self_ns: int = 0
    units: int = 0  # work the calls handled: bits, pairs, events, photons, samples or trials


@dataclass
class RunTally:
    """What each traced Session.run did, and the qsim calls its config implies."""

    attempted: int = 0
    completed: int = 0
    pairs: int = 0
    events: int = 0
    touches: int = 0
    serialized_bytes: int = 0
    serialized_pairs: int = 0
    expected_calls: dict[str, int] = field(default_factory=lambda: dict.fromkeys(QSIM_COUNTED, 0))


def _expected_qsim_calls(config, first_check_passed: bool) -> dict[str, int]:
    """qsim calls one run must make, from its config and its first-check verdict.

    Alice prepares every pair; Bob and Alice each measure every first-check
    photon; a run that passes encodes twice and Bell-measures each survivor.
    An intercept-resend or substitution Eve at attack probability 1 measures
    every photon on both legs (the second leg only when the run got there).
    """
    n = config.n_pairs
    sampled = math.ceil(n * config.check_fraction_1)
    survivors = n - sampled if first_check_passed else 0
    kind = config.eve.kind.value
    if kind == "none" or config.eve.attack_prob == 0.0:
        eve_measurements = 0
    elif config.eve.attack_prob == 1.0:
        eve_measurements = n + survivors
    else:
        raise ValueError("qsim call counts are only fixed at attack probability 0 or 1")
    return {
        "make_singlet": n,
        "measure_qubit": 2 * sampled + eve_measurements,
        "apply_pauli": 2 * survivors,
        "bell_measure": survivors,
    }


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, FnStats] = defaultdict(FnStats)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        self.runs = RunTally()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping

    def _wrap(self, fn, key, units=None, after=None):
        stack, stats, layer_self = self._stack, self.stats, self.layer_self_ns

        def traced(*args, **kwargs):
            name = key(args) if callable(key) else key
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                entry = stats[name]
                entry.calls += 1
                entry.incl_ns += elapsed
                entry.self_ns += own
                layer_self[name.partition(".")[0]] += own
            if units is not None:
                entry.units += units(args, result)
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _function(self, module, attr: str, key: str, units=None, after=None) -> None:
        original = getattr(module, attr)
        traced = self._wrap(original, key, units, after)
        for name, mod in list(sys.modules.items()):
            if name != "qduplex" and not name.startswith("qduplex."):
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, traced)

    def _method(self, cls, attr: str, key, units=None, after=None) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrap(raw.__func__, key, units, after))
        else:
            replacement = self._wrap(raw, key, units, after)
        self._patches.append((cls, attr, raw))
        setattr(cls, attr, replacement)

    # -- what gets wrapped

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        for fn in (*QSIM_COUNTED, "product_state"):
            self._function(qsim, fn, f"qsim.{fn}")

        for fn in ("op_for_bits", "bits_for_op", "expected_bell", "decode_alice", "decode_bob"):
            self._function(codec, fn, f"codec.{fn}")
        self._function(codec, "pack_bits", "codec.pack_bits", lambda a, r: 8 * len(a[0]))
        self._function(codec, "unpack_bits", "codec.unpack_bits")
        self._function(codec, "random_message", "codec.random_message", lambda a, r: a[0])
        self._method(codec.MessageBits, "from_bits", "codec.from_bits")
        self._method(codec.MessageBits, "from_pairs", "codec.from_pairs", lambda a, r: len(a[1]))
        self._method(codec.MessageBits, "pairs", "codec.pairs")

        S = session.Session
        self._method(S, "__init__", "session.init")
        for method, phase in _SESSION_PHASES.items():
            self._method(S, method, f"session.{phase}")
        self._method(S, "transmit", lambda a: f"session.transmit_{a[1].value}")
        self._method(S, "run", "session.run", after=self._after_run)
        self._function(session, "run_protocol", "session.run_protocol")
        T = session.Transcript
        self._method(T, "to_jsonl", "session.to_jsonl", lambda a, r: len(a[0].events),
                     self._after_to_jsonl)
        self._method(T, "write_jsonl", "session.write_jsonl")
        self._method(T, "from_jsonl", "session.from_jsonl", lambda a, r: len(r.events))
        self._method(T, "read_jsonl", "session.read_jsonl")
        self._function(session, "audit_custody", "session.audit_custody",
                       lambda a, r: len(a[0].events))

        self._function(adversary, "transit", "adversary.transit", lambda a, r: len(a[0]),
                       self._after_transit)
        self._function(adversary, "estimate_detection", "adversary.estimator",
                       lambda a, r: a[2])
        self._function(adversary, "estimate_information", "adversary.estimator",
                       lambda a, r: a[2])
        self._function(adversary, "mutual_information_bits",
                       "adversary.mutual_information_bits", lambda a, r: len(a[0]))
        for fn in ("eve_information", "wilson_interval"):
            self._function(adversary, fn, f"adversary.{fn}")

        self._function(cli, "main", "cli.main")
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- hooks that read what a call returned

    def _after_run(self, args, transcript) -> None:
        config = args[0].config
        runs = self.runs
        runs.attempted += 1
        runs.completed += transcript.completed
        runs.pairs += config.n_pairs
        runs.events += len(transcript.events)
        passed = transcript.stats["first_check"]["passed"]
        for fn, count in _expected_qsim_calls(config, passed).items():
            runs.expected_calls[fn] += count

    def _after_transit(self, args, result) -> None:
        self.runs.touches += len(result[1].touches)

    def _after_to_jsonl(self, args, text) -> None:
        self.runs.serialized_bytes += len(text.encode("utf-8"))
        self.runs.serialized_pairs += args[0].config["n_pairs"]

    # -- results

    def reconcile(self, pairs_prepared: int) -> list[str]:
        """Wrapped call counts against the counts the traced runs' configs imply."""
        problems = []
        for fn, expected in self.runs.expected_calls.items():
            seen = self.stats[f"qsim.{fn}"].calls
            if seen != expected:
                problems.append(f"qsim.{fn}: {seen} traced calls, runs imply {expected}")
        if self.runs.pairs != pairs_prepared:
            problems.append(
                f"traced runs prepared {self.runs.pairs} pairs, the workload counted {pairs_prepared}"
            )
        return problems

    def metrics(self, untraced_pairs_per_s: float, traced_pairs_per_s: float) -> dict[str, float]:
        """Every per-layer metric the tracer itself measures (all of PER_LAYER but host.*)."""
        stats, runs = self.stats, self.runs
        pairs = max(runs.pairs, 1)
        n_runs = max(runs.attempted, 1)

        def per(ns: int, count: int, scale: float = 1e3) -> float:
            return ns / scale / count if count else 0.0

        def incl_per_unit(name: str) -> float:
            return per(stats[name].incl_ns, stats[name].units)

        out: dict[str, float] = {}
        for fn in QSIM_COUNTED:
            out[f"qsim.{fn}.calls"] = stats[f"qsim.{fn}"].calls / n_runs
        for fn in QSIM_COUNTED:
            out[f"qsim.{fn}.us_per_call"] = per(stats[f"qsim.{fn}"].incl_ns, stats[f"qsim.{fn}"].calls)
        out["qsim.self_us_per_pair"] = per(self.layer_self_ns["qsim"], pairs)
        out["codec.random_message.us_per_bit"] = incl_per_unit("codec.random_message")
        out["codec.pack_bits.us_per_bit"] = incl_per_unit("codec.pack_bits")
        out["codec.from_pairs.us_per_pair"] = incl_per_unit("codec.from_pairs")
        out["codec.self_us_per_pair"] = per(self.layer_self_ns["codec"], pairs)
        out["session.init.self_us_per_run"] = per(stats["session.init"].self_ns, runs.attempted)
        for phase in PHASES:
            out[f"session.{phase}.self_us_per_pair"] = per(stats[f"session.{phase}"].self_ns, pairs)
        out["session.self_us_per_pair"] = per(self.layer_self_ns["session"], pairs)
        out["session.events_per_pair"] = runs.events / pairs
        out["session.runs_attempted"] = runs.attempted
        out["session.runs_completed"] = runs.completed
        out["session.completed_share"] = runs.completed / n_runs
        for fn in ("to_jsonl", "from_jsonl", "audit_custody"):
            out[f"session.{fn}.us_per_event"] = incl_per_unit(f"session.{fn}")
        out["session.transcript_bytes_per_pair"] = (
            runs.serialized_bytes / runs.serialized_pairs if runs.serialized_pairs else 0.0
        )
        out["adversary.transit.self_us_per_photon"] = per(
            stats["adversary.transit"].self_ns, stats["adversary.transit"].units
        )
        out["adversary.eve_touches"] = runs.touches / n_runs
        out["adversary.estimator.self_us_per_trial"] = per(
            stats["adversary.estimator"].self_ns, stats["adversary.estimator"].units
        )
        out["adversary.mutual_information_bits.us_per_sample"] = incl_per_unit(
            "adversary.mutual_information_bits"
        )
        out["cli.main.self_ms_per_call"] = per(stats["cli.main"].self_ns, stats["cli.main"].calls, 1e6)
        out["trace.untraced_norm_pairs_per_s"] = untraced_pairs_per_s
        out["trace.traced_norm_pairs_per_s"] = traced_pairs_per_s
        out["trace.overhead_share"] = (
            1.0 - traced_pairs_per_s / untraced_pairs_per_s if untraced_pairs_per_s else 0.0
        )
        return out

    def dump(self) -> dict:
        """Every wrapped function's totals and every layer's self time, for the trace file."""
        return {
            "functions": {
                name: {"calls": s.calls, "incl_ns": s.incl_ns, "self_ns": s.self_ns, "units": s.units}
                for name, s in sorted(self.stats.items())
            },
            "layer_self_ns": dict(sorted(self.layer_self_ns.items())),
            "runs": {
                "attempted": self.runs.attempted,
                "completed": self.runs.completed,
                "pairs": self.runs.pairs,
                "events": self.runs.events,
                "eve_touches": self.runs.touches,
                "expected_qsim_calls": self.runs.expected_calls,
            },
        }
