"""Every definition in the package is reached by something.

Each non-dunder ``def``/``class`` name in ``src/cgschur/*.py`` must occur
as a whole word in the package outside every definition of that name, in
the benchmark (``bench/*.py``), or in the paper criteria
(``tests/test_acceptance.py``).  A mention inside a definition of the
same name does not count, so same-named methods that only call each
other are caught.  A name that only unit tests reach is dead surface
unless ``KEEP`` records why it stays.  Likewise each field of a
``NamedTuple`` in the package must be read: ``.field`` occurs in the
package outside its declaration line or in those users, or the class
reads ``self._fields``; ``KEEP`` exempts a field as ``"Class.field"``.
The benchmark's tracer must also still find the kernel methods it counts.
SRing keeps its private state itself: no module but ``sring.py`` reads
or writes an attribute named like one of SRing's private fields.
Every backticked ``module.attr`` or ``Class.attr`` reference in README.md
to a module or class of the package must resolve, so a deleted name
cannot linger in the documentation.  And the package keeps to the
standard library and exact arithmetic: an AST scan finds no absolute
import outside ``sys.stdlib_module_names``, no float literal, no name
``float`` and no true division ``/``.
"""

from __future__ import annotations

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Iterator

import cgschur

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cgschur").glob("*.py"))
USERS = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

KEEP = {
    "coset_count": "states the constant intersection of A-sets with ideal cosets, "
                   "checked over the corpus by test_coset_counts_constant",
}


def _definitions(text: str) -> dict[str, list[range]]:
    """Name -> the line ranges of its definitions in one source text."""
    spans: dict[str, list[range]] = {}
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
            if not (name.startswith("__") and name.endswith("__")):
                spans.setdefault(name, []).append(range(node.lineno, node.end_lineno + 1))
    return spans


def _unreached(src_texts: list[str], user_texts: list[str]) -> set[str]:
    """Defined names that nothing outside their own definitions mentions."""
    spans = [_definitions(text) for text in src_texts]
    defined = set().union(*spans)

    def mentioned(name: str) -> bool:
        word = re.compile(rf"\b{re.escape(name)}\b")
        for text, own in zip(src_texts, spans):
            for lineno, line in enumerate(text.splitlines(), 1):
                if word.search(line) and not any(lineno in r for r in own.get(name, ())):
                    return True
        return any(word.search(text) for text in user_texts)

    return {name for name in defined if not mentioned(name)}


def _package_unreached() -> set[str]:
    return _unreached([p.read_text(encoding="utf-8") for p in SRC],
                      [p.read_text(encoding="utf-8") for p in USERS])


def test_every_definition_is_reached():
    unreached = sorted(_package_unreached() - set(KEEP))
    assert not unreached, f"defined but never reached: {unreached}"


def _record_fields(text: str) -> Iterator[tuple[str, str, int, bool]]:
    """(class, field, declaration line, whether the class body reads
    self._fields) for each field of each NamedTuple class in one text."""
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ClassDef) and any(
                isinstance(base, ast.Name) and base.id == "NamedTuple" for base in node.bases):
            all_read = "self._fields" in (ast.get_source_segment(text, node) or "")
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    yield node.name, stmt.target.id, stmt.lineno, all_read


def _unread_fields(src_texts: list[str], user_texts: list[str]) -> set[str]:
    """Class.field for every record field whose `.field` occurs nowhere in
    the package outside its declaration line, nor in the users."""
    unread = set()
    for text in src_texts:
        for cls, field, lineno, all_read in _record_fields(text):
            word = re.compile(rf"\.{re.escape(field)}\b")
            if all_read or any(word.search(t) for t in user_texts) or any(
                    word.search(line) for other in src_texts
                    for n, line in enumerate(other.splitlines(), 1)
                    if not (other is text and n == lineno)):
                continue
            unread.add(f"{cls}.{field}")
    return unread


def _package_unread_fields() -> set[str]:
    return _unread_fields([p.read_text(encoding="utf-8") for p in SRC],
                          [p.read_text(encoding="utf-8") for p in USERS])


def test_every_record_field_is_read():
    unread = sorted(_package_unread_fields() - set(KEEP))
    assert not unread, f"record fields that nothing reads: {unread}"


def test_keep_lists_only_unreached_names():
    stale = sorted(set(KEEP) - _package_unreached() - _package_unread_fields())
    assert not stale, f"KEEP lists names that are reached or no longer defined: {stale}"


def test_unread_fields_are_found():
    record = "class R(NamedTuple):\n    a: int\n    b: int\n"
    assert _unread_fields([record + "\nR(1, 2).a\n"], []) == {"R.b"}
    assert _unread_fields([record], ["r.b", "r.a"]) == set()
    assert _unread_fields([record + "    def f(self):\n        return self._fields\n"], []) == set()


MUTUAL = """
class A:
    def f(self):
        return B().f()


class B:
    def f(self):
        return 1
"""


def test_same_named_methods_calling_each_other_are_unreached():
    # A whole-word count set three mentions of f against its two
    # definitions, so A.f and B.f passed although only they call f.
    assert _unreached([MUTUAL], []) == {"A", "f"}
    assert _unreached([MUTUAL + "\nA().f()\n"], []) == set()
    assert _unreached([MUTUAL], ["A().f()"]) == set()


def _private_fields(text: str, cls: str) -> set[str]:
    """The private field names of class cls in one text: the names its body
    annotates, its cached properties and the `self._x =` targets of its
    methods."""
    node = next(n for n in ast.parse(text).body if isinstance(n, ast.ClassDef) and n.name == cls)
    names = set()
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
        elif isinstance(stmt, ast.FunctionDef) and any(
                isinstance(dec, ast.Name) and dec.id == "cached_property"
                for dec in stmt.decorator_list):
            names.add(stmt.name)
    for sub in ast.walk(node):
        targets = sub.targets if isinstance(sub, ast.Assign) else (
            [sub.target] if isinstance(sub, (ast.AugAssign, ast.AnnAssign)) else [])
        names |= {t.attr for target in targets for t in ast.walk(target)
                  if isinstance(t, ast.Attribute) and isinstance(t.value, ast.Name)
                  and t.value.id == "self"}
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def _attributes_named(text: str, names: set[str]) -> set[str]:
    """The names among names that one text reads or writes as `x.name`."""
    return {node.attr for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.Attribute) and node.attr in names}


def test_no_module_but_sring_touches_a_private_sring_field():
    home = ROOT / "src" / "cgschur" / "sring.py"
    fields = _private_fields(home.read_text(encoding="utf-8"), "SRing")
    assert {"_subgroup", "_verdict", "_class_perms", "_class_sizes"} <= fields, fields
    found = {path.name: sorted(_attributes_named(path.read_text(encoding="utf-8"), fields))
             for path in SRC if path != home}
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}


def test_private_field_access_is_found():
    text = ("class S:\n    _a: int | None = None\n    b: int = 0\n\n"
            "    @cached_property\n    def _c(self):\n        return 1\n\n"
            "    def f(self):\n        self._d, self.e = 1, 2\n        self._a += 1\n")
    assert _private_fields(text, "S") == {"_a", "_c", "_d"}
    other = "x._a = y._c\nz.b, z._e = 1, ring._d_rows\n"
    assert _attributes_named(other, {"_a", "_c", "_d"}) == {"_a", "_c"}


# Runs in a fresh child, in the order of bench/worker.py (`import cgschur`)
# or bench/traced_cli.py (`import cgschur.cli`): first import, then the
# tracer, then the library modules the run goes on to use.
TRACER_CHILD = """
import importlib, json, sys
first, bench = sys.argv[1:]
sys.path.insert(0, bench)
importlib.import_module(first)
from spans import SPANNED, Tracer
from cgschur.cgring import CGRing, make_cg_ring
from cgschur.galois import GaloisRing

def wrapped():
    return sorted(f"{m}.{f}" for m, names in SPANNED.items() if m in sys.modules
                  for f in names if hasattr(getattr(sys.modules[m], f), "__wrapped__"))

patched = [(GaloisRing, "mul"), (GaloisRing, "add"), (CGRing, "mul"), (CGRing, "add"),
           (CGRing, "neg"), (CGRing, "mul_table")]
before = {key: vars(key[0])[key[1]] for key in patched}
tracer = Tracer("t")
tracer.install()
from cgschur import classify, duality
assert all(vars(cls)[attr] is not before[cls, attr] for cls, attr in patched)
assert classify.dual_sring is duality.dual_sring
make_cg_ring([(2, 2, 2), (3, 2, 1)]).mul(5, 7)
counts = tracer.snapshot()
assert counts["cgring.mul_calls"] == counts["cgring.mul_fallthrough_calls"] == 1
print(json.dumps(wrapped()))
tracer.uninstall()
assert all(vars(cls)[attr] is before[cls, attr] for cls, attr in patched)
print(json.dumps(wrapped()))
"""


# A public name read from the package while the tracer is installed.
STALE_CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
import cgschur
from spans import Tracer
tracer = Tracer("t")
tracer.install()
assert hasattr(cgschur.verify_sring, "__wrapped__")
tracer.uninstall()
assert cgschur.verify_sring is cgschur.sring.verify_sring
assert not hasattr(cgschur.verify_sring, "__wrapped__")
"""


def _run_child(script: str, *args: str) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this package."""
    src = str(Path(cgschur.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_bench_tracer_installs():
    # The tracer wraps the modules it finds in sys.modules at install, so
    # `import cgschur` must put every library module there, run or not.
    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for first in ("cgschur", "cgschur.cli"):
        proc = _run_child(TRACER_CHILD, first, str(ROOT / "bench"))
        assert proc.returncode == 0, (first, proc.stderr)
        installed, uninstalled = map(json.loads, proc.stdout.splitlines())
        # cgschur.cli is loaded only by the command line, as before the
        # package loaded lazily.
        assert installed == sorted(f"{m}.{f}" for m, names in spans.SPANNED.items()
                                   if m != "cgschur.cli" or first == "cgschur.cli"
                                   for f in names), first
        assert uninstalled == [], first


def test_package_names_are_not_kept_from_a_traced_pass():
    # The package once kept each public name on first read, so a name read
    # while the tracer was installed stayed the traced wrapper after it was
    # uninstalled.
    proc = _run_child(STALE_CHILD, str(ROOT / "bench"))
    assert proc.returncode == 0, proc.stderr


# A backticked dotted name, perhaps with call arguments, outside code blocks.
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\([^`]*\))?`")


def _namespaces() -> dict[str, object]:
    """cgschur, its modules and its classes by name.  A class is an
    instance where one is built here, so that attributes set in __init__
    (SRing.classes, CGRing.size) resolve too."""
    from cgschur.cgring import CGRing, parse_ring_spec
    from cgschur.galois import GaloisRing
    from cgschur.sring import SRing, cyclotomic

    ring = parse_ring_spec("GR(4)xGR(9)")
    built = {CGRing: ring, GaloisRing: ring.components[0], SRing: cyclotomic(ring, ring.units())}
    spaces: dict[str, object] = {"cgschur": cgschur}
    for path in SRC:
        if path.stem.startswith("__"):
            continue
        module = importlib.import_module(f"cgschur.{path.stem}")
        spaces[path.stem] = module
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                spaces[name] = built.get(obj, obj)
    return spaces


def _unresolved(text: str, spaces: dict[str, object]) -> tuple[set[str], int]:
    """The references to a namespace that do not resolve, and the number
    of references to a namespace checked."""
    text = re.sub(r"```.*?```", "", text, flags=re.S)
    missing, checked = set(), 0
    for dotted in REFERENCE.findall(text):
        head, *attrs = dotted.split(".")
        if head not in spaces:
            continue  # ring.one, sys.modules, ...: not a name of the package
        checked += 1
        obj = spaces[head]
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.add(dotted)
                break
            obj = getattr(obj, attr)
    return missing, checked


def test_readme_references_resolve():
    missing, checked = _unresolved((ROOT / "README.md").read_text(encoding="utf-8"), _namespaces())
    assert not missing, f"README.md names what the package does not define: {sorted(missing)}"
    assert checked >= 20, checked


def test_unresolved_readme_references_are_found():
    spaces = _namespaces()
    text = ("`CGRing.projection_row(Q)` and `IdealRingMap.section_map`, but `SRing.classes`,"
            " `cgschur.sring.labels`, `ring.one` and\n```\n`CGRing.gone`\n```\n")
    assert _unresolved(text, spaces) == (
        {"CGRing.projection_row", "IdealRingMap.section_map"}, 4)


def _inexact_or_foreign(text: str) -> list[tuple[int, str]]:
    """What breaks "standard library only, no floats" in one source text,
    as (line, what) in line order: an absolute import of a module outside
    the standard library, a float literal, the name float, or a true
    division."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            roots = [alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.partition(".")[0]]
        else:
            roots = []
        found += [(node.lineno, f"import {root}") for root in roots
                  if root not in sys.stdlib_module_names]
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "name float"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "true division"))
    return sorted(found)


def test_package_is_stdlib_only_and_float_free():
    found = {path.name: _inexact_or_foreign(path.read_text(encoding="utf-8")) for path in SRC}
    assert not any(found.values()), {name: hits for name, hits in found.items() if hits}


def test_inexact_or_foreign_source_is_found():
    text = ("from __future__ import annotations\nimport numpy.linalg\nfrom . import galois\n"
            "from os import path\nx = 7 // 2\ny = x / 2\nx /= 2\nz = 0.5 + float(x)\n")
    assert _inexact_or_foreign(text) == [
        (2, "import numpy"), (6, "true division"), (7, "true division"),
        (8, "float literal 0.5"), (8, "name float")]
