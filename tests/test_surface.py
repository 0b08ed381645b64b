"""Every definition in the package is reached by something.

Each non-dunder ``def``/``class`` name in ``src/cgschur/*.py`` must occur
as a whole word in the package beyond its own definitions, in the
benchmark (``bench/*.py``), or in the paper criteria
(``tests/test_acceptance.py``).  A name that only unit tests reach is
dead surface unless ``KEEP`` records why it stays.  The benchmark's
tracer must also still find the kernel methods it counts.
"""

from __future__ import annotations

import ast
import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "cgschur").glob("*.py"))
USERS = sorted((ROOT / "bench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]

KEEP = {
    "coset_count": "states the constant intersection of A-sets with ideal cosets, "
                   "checked over the corpus by test_coset_counts_constant",
}


def _definitions() -> dict[str, int]:
    """Name -> number of definitions across the package."""
    counts: dict[str, int] = {}
    for path in SRC:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = node.name
                if not (name.startswith("__") and name.endswith("__")):
                    counts[name] = counts.get(name, 0) + 1
    return counts


def _unreached() -> set[str]:
    """Defined names that nothing outside their own definitions mentions."""
    src_texts = [p.read_text(encoding="utf-8") for p in SRC]
    user_texts = [p.read_text(encoding="utf-8") for p in USERS]

    def occurrences(name: str, texts: list[str]) -> int:
        word = re.compile(rf"\b{re.escape(name)}\b")
        return sum(len(word.findall(text)) for text in texts)

    return {
        name for name, defs in _definitions().items()
        if occurrences(name, src_texts) <= defs and not occurrences(name, user_texts)
    }


def test_every_definition_is_reached():
    unreached = sorted(_unreached() - set(KEEP))
    assert not unreached, f"defined but never reached: {unreached}"


def test_keep_lists_only_unreached_names():
    stale = sorted(set(KEEP) - _unreached())
    assert not stale, f"KEEP lists names that are reached or no longer defined: {stale}"


def test_bench_tracer_installs():
    import cgschur  # noqa: F401  (loads every module the tracer spans)
    from cgschur.cgring import CGRing, make_cg_ring
    from cgschur.galois import GaloisRing
    from cgschur.sring import verify_sring

    spec = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    patched = [(GaloisRing, "mul"), (GaloisRing, "add"), (CGRing, "mul"), (CGRing, "add"),
               (CGRing, "neg"), (CGRing, "mul_table")]
    before = {key: key[0].__dict__[key[1]] for key in patched}
    tracer = spans.Tracer("t")
    tracer.install()
    try:
        assert all(cls.__dict__[attr] is not before[cls, attr] for cls, attr in patched)
        make_cg_ring([(2, 2, 2), (3, 2, 1)]).mul(5, 7)
        counts = tracer.snapshot()
        assert counts["cgring.mul_calls"] == counts["cgring.mul_fallthrough_calls"] == 1
    finally:
        tracer.uninstall()
    assert all(cls.__dict__[attr] is before[cls, attr] for cls, attr in patched)
    assert cgschur.sring.verify_sring is verify_sring
