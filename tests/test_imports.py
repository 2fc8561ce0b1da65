"""Every module of the package uses each name it imports, every name it defines at
module level is read by another module, README's library example or the benchmark,
the top level exports exactly the names of that example, the modules a run
goes through name no numpy Generator or bit generator state, qsim draws
nothing itself, session.py reaches the custody ledger only through
records.py's recorder and shape_codes, session.py and adversary.py spell no
value of the wire table, which records.py spells once, adversary.py reads a
live run only through Session.run and Session.sample_columns and imports
nothing from records.py, every file the package opens is opened with an
encoding or in a binary mode, and O_NONBLOCK is spelled once, in the opener
that both the transcript reader and the CLI's file reads use."""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable
from pathlib import Path

import pytest

import qduplex
from qduplex import pack_bits
from qduplex.records import _WIRE

PACKAGE = sorted(Path(qduplex.__file__).parent.glob("*.py"))
MODULES = [path for path in PACKAGE if path.name != "__init__.py"]
CHECKOUT = Path(__file__).resolve().parents[1]
BENCHMARKS = sorted((CHECKOUT / "benchmarks").glob("*.py"))


def library_example() -> str:
    """The fenced Python block of README's Library section."""
    readme = (CHECKOUT / "README.md").read_text(encoding="utf-8")
    match = re.search(r"^## Library\n\n```python\n(.*?)^```$", readme, re.M | re.S)
    assert match is not None, "README has no Library section that opens with a Python block"
    return match.group(1)


def annotation_names(tree: ast.AST) -> set[str]:
    """Every name read inside the tree's string annotations."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            annotations.append(node.returns)
    names = set()
    for annotation in annotations:
        for part in ast.walk(annotation):
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                names |= used_names(ast.parse(part.value, mode="eval"))
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Every name the tree reads, those inside string annotations included."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | annotation_names(tree)


def unused_imports(source: str) -> list[str]:
    """Each name an import binds and the source never reads, with its line.
    Imports from __future__ are not names the code reads, so they are skipped."""
    tree = ast.parse(source)
    used = used_names(tree)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in used:
                    unused.append(f"{name} (line {node.lineno})")
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_imports_are_found_and_string_annotations_count_as_uses():
    assert unused_imports(
        "from __future__ import annotations\n"
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    from .session import Transcript\n"
        "def f(t: 'list[Transcript]') -> None: ...\n"
    ) == []
    assert unused_imports("import os.path\nimport sys as system\nfrom json import dumps, loads\n"
                          "loads('1')\n") == ["os (line 1)", "system (line 2)", "dumps (line 3)"]


def module_definitions(tree: ast.Module) -> list[tuple[str, int]]:
    """Each function, class and plain name a module's top-level statements define, with its
    line; dunder names such as __all__ and __version__ are not definitions the code reads."""
    defined = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name) and isinstance(part.ctx, ast.Store):
                        defined.append((part.id, node.lineno))
    return [(name, line) for name, line in defined if not name.startswith("__")]


def package_reads(tree: ast.Module, strings: bool = False) -> set[str]:
    """Every name a source reads: a name it loads, an attribute it takes, a name it
    imports from another module, a name inside a string annotation, and with
    strings every string constant, as code that looks a name up by its string does."""
    reads = annotation_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            reads.add(node.value)
    return reads


def unreferenced_definitions(
    package: dict[str, str], examples: Iterable[str] = (), benchmarks: Iterable[str] = ()
) -> list[str]:
    """Each module-level function, class or assigned name of the package's modules
    that no module, example or benchmark source reads, as "module: name (line n)".

    __init__.py is not read: a name it only re-exports is read by nothing.  In a
    benchmark source every string constant counts as a read too.
    """
    trees = {name: ast.parse(source) for name, source in package.items() if name != "__init__.py"}
    reads = set().union(
        *map(package_reads, trees.values()),
        *(package_reads(ast.parse(source)) for source in examples),
        *(package_reads(ast.parse(source), strings=True) for source in benchmarks),
    )
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in module_definitions(tree)
        if name not in reads
    ]


def test_package_reads_every_name_a_module_defines():
    assert unreferenced_definitions(
        {path.name: path.read_text(encoding="utf-8") for path in PACKAGE},
        examples=[library_example()],
        benchmarks=[path.read_text(encoding="utf-8") for path in BENCHMARKS],
    ) == []


def test_unreferenced_definitions_are_found_in_a_fabricated_package():
    sources = {
        "a.py": (
            "from __future__ import annotations\n"
            "__all__ = ['f']\n"
            "LIMIT = 4\n"
            "_TABLE, _SPARE = {}, ()\n"
            "_ROWS: list = []\n"
            "_TABLE['spare'] = ()\n"
            "def f(x: 'Kept') -> int:\n"
            "    _TABLE['k'] = LIMIT\n"
            "    return x.size\n"
            "def _unused():\n"
            "    _unused_local = 1\n"
            "class Kept:\n"
            "    size = 1\n"
            "class Gone:\n"
            "    pass\n"
        ),
        "b.py": "from .a import f\nf.size = 2\n",
        "c.py": "def exported(): ...\ndef example(): ...\ndef traced(): ...\n",
        "__init__.py": "from .a import Gone\nfrom .c import exported\n",
    }
    example = "from pkg import example\n"
    benchmark = "import pkg.c\nwrap(pkg.c, 'traced')\n"
    assert unreferenced_definitions(sources, [example], [benchmark]) == [
        "a.py: _SPARE (line 4)", "a.py: _ROWS (line 5)", "a.py: _unused (line 10)",
        "a.py: Gone (line 14)", "c.py: exported (line 1)",
    ]
    # without the benchmark, the name it gives only as a string is unread
    assert unreferenced_definitions(sources, [example])[-1] == "c.py: traced (line 3)"


def test_top_level_exports_exactly_the_library_example_names():
    def imported(source: str) -> set[str]:
        return {
            alias.name
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }

    init = (Path(qduplex.__file__).parent / "__init__.py").read_text(encoding="utf-8")
    assert imported(init) == imported(library_example()) == {
        "ProtocolConfig", "Transcript", "eve_information", "pack_bits", "run_protocol",
    }


def test_library_example_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_example(), "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.splitlines() == [repr(pack_bits(b"hi")), repr(pack_bits(b"yo")), "0.0"]
    assert [path.name for path in tmp_path.iterdir()] == ["run.jsonl"]


_GENERATOR_NAMES = {"default_rng", "bit_generator", "state"}


def generator_reads(source: str) -> list[str]:
    """Each default_rng, bit_generator or .state a source names, with its line:
    a run's draws come from Streams of raw words, never a Generator's state."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _GENERATOR_NAMES:
            found.append(f".{node.attr} (line {node.lineno})")
        elif isinstance(node, ast.Name) and node.id in _GENERATOR_NAMES - {"state"}:
            found.append(f"{node.id} (line {node.lineno})")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in _GENERATOR_NAMES]
    return found


@pytest.mark.parametrize("name", ["session.py", "adversary.py", "qsim.py", "stream.py"])
def test_a_run_reads_no_generator_and_no_bit_generator_state(name):
    path = Path(qduplex.__file__).parent / name
    assert generator_reads(path.read_text(encoding="utf-8")) == []


def test_generator_reads_are_found():
    assert generator_reads(
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "rng = np.random.default_rng(0)\n"
        "words = rng.bit_generator.state['state']\n"
        "state = {}\n"
        "states = rng.states\n"
    ) == ["default_rng (line 2)", ".default_rng (line 3)", ".state (line 4)", ".bit_generator (line 4)"]


def sampler_draws(source: str) -> list[str]:
    """Each .random() call a source makes and each line that names RandomStream:
    qsim's samplers take their uniform draws as values, so qsim draws none itself."""
    found = [
        f".random() (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "random"
    ]
    for lineno, line in enumerate(source.splitlines(), 1):
        if re.search(r"\bRandomStream\b", line):
            found.append(f"RandomStream (line {lineno})")
    return found


def test_qsim_draws_nothing_itself():
    path = Path(qduplex.__file__).parent / "qsim.py"
    assert sampler_draws(path.read_text(encoding="utf-8")) == []


def test_sampler_draws_are_found():
    assert sampler_draws(
        "from typing import Protocol\n"
        "class RandomStream(Protocol): ...\n"
        "def measure(state, rng: 'RandomStream'):\n"
        "    return state if rng.random() < 0.5 else None\n"
        "np.random.default_rng\n"
        "random()\n"
    ) == [".random() (line 4)", "RandomStream (line 2)", "RandomStream (line 3)"]


def calls_without_byteorder(source: str) -> list[str]:
    """Each from_bytes or to_bytes call a source makes without its byteorder, with its
    line: before Python 3.11 the byteorder has no default, so such a call raises there."""
    return [
        f".{node.func.attr}() (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("from_bytes", "to_bytes")
        and len(node.args) < 2
        and not any(keyword.arg == "byteorder" for keyword in node.keywords)
    ]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_bytes_int_conversion_names_its_byteorder(path):
    assert calls_without_byteorder(path.read_text(encoding="utf-8")) == []


def test_calls_without_byteorder_are_found():
    assert calls_without_byteorder(
        "a = int.from_bytes(b'\\x01')\n"
        "b = int.from_bytes(b'\\x01', 'big')\n"
        "c = int.from_bytes(b'\\x01', byteorder='little')\n"
        "d = (5).to_bytes(2)\n"
        "e = (5).to_bytes(2, 'big')\n"
        "f = (5).to_bytes(length=2, byteorder='big')\n"
        "g = (5).to_bytes()\n"
        "h = (5).to_bytes(2, signed=True)\n"
    ) == [".from_bytes() (line 1)", ".to_bytes() (line 4)", ".to_bytes() (line 7)", ".to_bytes() (line 8)"]


# records.py's shape tables and custody step, and EventLog's columns and appends
_RECORDS_INTERNALS = {
    "_SHAPE_ID", "_SHAPE_STEP", "_RECORD_STEP", "_apply_custody", "_run_step", "_record_shape"
}
_LOG_INTERNALS = {"_pairs", "_shapes", "_add", "_extend"}


def records_internals_read(source: str) -> list[str]:
    """Each custody internal a source imports from records.py and each EventLog
    internal it reads as an attribute, with its line: a module that runs the
    protocol hands the recorder shape codes and leaves the ledger to records.py."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level, node.module) in ((1, "records"), (0, "qduplex.records")):
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in _RECORDS_INTERNALS]
        elif isinstance(node, ast.Attribute) and node.attr in _LOG_INTERNALS:
            found.append(f".{node.attr} (line {node.lineno})")
    return found


def test_session_reads_no_custody_internal_of_records():
    path = Path(qduplex.__file__).parent / "session.py"
    assert records_internals_read(path.read_text(encoding="utf-8")) == []


def test_records_internals_read_are_found():
    assert records_internals_read(
        "from .records import _SHAPE_ID, EventLog\n"
        "from .records import (\n    _Recorder,\n    _run_step,\n)\n"
        "from qduplex.records import _RECORD_STEP\n"
        "from .codec import _SHAPE_STEP\n"
        "from records import _apply_custody\n"
        "log._extend(shapes, log._pairs)\n"
        "pairs = self._pair_ints\n"
    ) == [
        "_SHAPE_ID (line 1)", "_run_step (line 2)", "_RECORD_STEP (line 6)",
        "._extend (line 9)", "._pairs (line 9)",
    ]


# the strings _WIRE spells an entry's value with: the basis, op and Bell-state names,
# which are _BULK_SCHEMA's values of those fields
_WIRE_STRINGS = {value for _, spelling in _WIRE.values() for value in spelling or () if type(value) is str}


def wire_spellings(source: str) -> list[str]:
    """Each .name attribute a source reads and each string constant it holds that
    _WIRE spells, with its line: only records.py spells a transcript value, so a
    run's codes reach the wire unnamed and no spelling follows a qsim member's name."""
    found = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "name"
        or isinstance(node, ast.Constant) and type(node.value) is str and node.value in _WIRE_STRINGS
    ]
    return [
        f".name (line {node.lineno})" if isinstance(node, ast.Attribute) else f"{node.value!r} (line {node.lineno})"
        for node in sorted(found, key=lambda node: (node.lineno, node.col_offset))
    ]


@pytest.mark.parametrize("name", ["session.py", "adversary.py"])
def test_a_run_spells_no_wire_value(name):
    assert wire_spellings((Path(qduplex.__file__).parent / name).read_text(encoding="utf-8")) == []


def test_records_spells_each_wire_value_once():
    """records.py writes each string _WIRE spells once, so _WIRE and _BULK_SCHEMA share one
    spelling; the identity of their tuples cannot show this, as CPython merges equal constants."""
    found = wire_spellings((Path(qduplex.__file__).parent / "records.py").read_text(encoding="utf-8"))
    assert sorted(item.partition(" (line")[0] for item in found) == sorted(map(repr, _WIRE_STRINGS))


def test_wire_spellings_are_found():
    assert {"Z", "X", "U0", "U3", "psi_minus", "phi_plus"} <= _WIRE_STRINGS
    assert wire_spellings(
        "ops = tuple(op.name for op in PauliOp)\n"
        "bell = BellState.PSI_MINUS.name.lower()\n"
        "entry = [i, 'psi_plus']; doc = 'U0 is the identity'\n"
        "bases = {'basis': 'Z', 'X': 1}\n"
        "code = op.value; name = 'U2'[1:]\n"
        "slot, outcome = 'C', 1\n"
    ) == [
        ".name (line 1)", ".name (line 2)", "'psi_plus' (line 3)", "'Z' (line 4)", "'X' (line 4)", "'U2' (line 5)",
    ]


# what adversary.py may read of a Session: the run and the completed run's sample columns
_SESSION_READS = {"run", "sample_columns"}


def session_attributes() -> set[str]:
    """Every attribute a Session has: its methods and what its methods assign to self."""
    tree = ast.parse((Path(qduplex.__file__).parent / "session.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Session")
    names = {n.name for n in cls.body if isinstance(n, ast.FunctionDef)}
    for node in ast.walk(cls):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            if isinstance(node.value, ast.Name) and node.value.id == "self":
                names.add(node.attr)
    return names


def session_internals_read(source: str) -> list[str]:
    """Each Session attribute a source reads other than run and sample_columns, with
    its line: the estimator counts a live run from the columns sample_columns returns,
    not from the private columns and kept touches they are cut from."""
    attributes = session_attributes() - _SESSION_READS
    reads = [
        node for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr in attributes
    ]
    return [f".{node.attr} (line {node.lineno})" for node in sorted(reads, key=lambda n: (n.lineno, n.col_offset))]


def test_session_attributes_cover_the_columns_the_samples_are_cut_from():
    assert {"_alice_codes", "_bob_codes", "_bell_codes", "_decoy_at", "_touches", "survivors"} <= (
        session_attributes() - _SESSION_READS
    )


def test_adversary_reads_a_live_run_only_through_its_sample_columns():
    source = (Path(qduplex.__file__).parent / "adversary.py").read_text(encoding="utf-8")
    assert session_internals_read(source) == []
    assert ".sample_columns()" in source


def test_session_internals_read_are_found():
    assert session_internals_read(
        "codes = session._alice_codes\n"
        "ops, bell = s._bob_codes, s._bell_codes[k]\n"
        "session.sample_columns()\n"
        "transcript = session.run()\n"
        "cut = session._decoy_at\n"
        "hits = session._touches[Leg.FIRST]\n"
        "pairs = session.survivors; x = session._codes\n"
    ) == [
        "._alice_codes (line 1)", "._bob_codes (line 2)", "._bell_codes (line 2)",
        "._decoy_at (line 5)", "._touches (line 6)", ".survivors (line 7)",
    ]


def records_imports(source: str) -> list[str]:
    """Each import of records.py or of a name from it that a source makes, with its line:
    adversary.py counts a saved transcript through session.replay, so only records.py
    and session.py know the record format."""
    found = []
    imports = (node for node in ast.walk(ast.parse(source)) if isinstance(node, (ast.Import, ast.ImportFrom)))
    for node in sorted(imports, key=lambda node: node.lineno):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".records", "qduplex.records"):
                found += [f"{a.name} (line {node.lineno})" for a in node.names]
            elif module in (".", "qduplex"):
                found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name == "records"]
        else:
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name == "qduplex.records"]
    return found


def test_adversary_imports_nothing_from_records():
    source = (Path(qduplex.__file__).parent / "adversary.py").read_text(encoding="utf-8")
    assert records_imports(source) == []


def test_records_imports_are_found():
    assert records_imports(
        "from .records import TranscriptInvalid, shape_codes\n"
        "from . import records\n"
        "from .session import replay\n"
        "import qduplex.records as log\n"
        "def f():\n"
        "    from qduplex.records import EventLog\n"
        "from . import codec, records as r\n"
        "from .recordsx import y\n"
        "import records\n"
    ) == [
        "TranscriptInvalid (line 1)", "shape_codes (line 1)", "records (line 2)",
        "qduplex.records (line 4)", "EventLog (line 6)", "records (line 7)",
    ]


def opens_without_encoding(source: str) -> list[str]:
    """Each open(), .open(), .read_text() or .write_text() call a source makes with
    neither an encoding= nor a constant binary mode, with its line: such a call reads
    or writes in the locale's encoding, which would change the transcript and CSV bytes.
    os.open, which opens a descriptor, is not such a call."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            name, mode_at = "open", 1
        elif isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "write_text"):
            if func.attr == "open" and isinstance(func.value, ast.Name) and func.value.id == "os":
                continue
            name, mode_at = f".{func.attr}", 0 if func.attr == "open" else None
        else:
            continue
        keywords = {keyword.arg: keyword.value for keyword in node.keywords}
        mode = node.args[mode_at] if mode_at is not None and len(node.args) > mode_at else keywords.get("mode")
        binary = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and "b" in mode.value
        if "encoding" not in keywords and not binary:
            found.append(f"{name}() (line {node.lineno})")
    return found


@pytest.mark.parametrize("path", PACKAGE, ids=lambda path: path.name)
def test_every_open_names_its_encoding_or_a_binary_mode(path):
    assert opens_without_encoding(path.read_text(encoding="utf-8")) == []


def test_opens_without_encoding_are_found():
    assert opens_without_encoding(
        "a = open(path)\n"
        "b = open(path, 'rb')\n"
        "c = open(path, 'w', encoding='utf-8', newline='')\n"
        "d = open(path, mode='wb')\n"
        "e = open(path, 'w')\n"
        "f = Path(p).read_text()\n"
        "g = Path(p).read_text(encoding='utf-8')\n"
        "h = out.write_text(text)\n"
        "i = out.write_text(text, encoding='utf-8')\n"
        "j = Path(p).open('rb')\n"
        "k = Path(p).open()\n"
        "fd = os.open(name, os.O_RDONLY)\n"
        "m = open(path, fmode)\n"
    ) == [
        "open() (line 1)", "open() (line 5)", ".read_text() (line 6)", ".write_text() (line 8)",
        ".open() (line 11)", "open() (line 13)",
    ]


def nonblocking_reads(source: str) -> list[str]:
    """Each O_NONBLOCK a source reads or imports, with its line: the package opens a
    file that may be a FIFO only through session._open_nonblocking."""
    lines = [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (isinstance(node, ast.Attribute) and node.attr == "O_NONBLOCK")
        or (isinstance(node, ast.Name) and node.id == "O_NONBLOCK")
        or (isinstance(node, ast.alias) and node.name == "O_NONBLOCK")
    ]
    return [f"O_NONBLOCK (line {line})" for line in sorted(lines)]


def test_the_package_spells_o_nonblocking_once():
    found = {path.name: nonblocking_reads(path.read_text(encoding="utf-8")) for path in PACKAGE}
    assert {name: len(reads) for name, reads in found.items() if reads} == {"session.py": 1}


def test_nonblocking_reads_are_found():
    assert nonblocking_reads(
        "import os\n"
        "from os import O_NONBLOCK, O_RDONLY\n"
        "fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)\n"
        "flags = O_NONBLOCK\n"
        "text = 'O_NONBLOCK'  # O_NONBLOCK\n"
        "fh = open(path, 'rb', opener=lambda name, flags: os.open(name, flags | os.O_NONBLOCK))\n"
    ) == ["O_NONBLOCK (line 2)", "O_NONBLOCK (line 3)", "O_NONBLOCK (line 4)", "O_NONBLOCK (line 6)"]
