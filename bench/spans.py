"""Spans and call counters recorded from outside the cgschur package.

A traced pass replaces public cgschur functions at every module attribute
that binds them, so calls from one layer into another (for example
``cgschur.construct.verify_sring``) are recorded as child spans.  The
arithmetic methods get counting wrappers only: a span per ``mul`` would
cost more than the multiplication.  Spans are kept in memory and handed
to the caller when the pass ends.
"""

from __future__ import annotations

import functools
import itertools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# Public functions that get a span, by module; the span is named
# "<module>.<function>" and counted under the same name.
SPANNED = {
    "cgschur.sring": ("verify_sring", "schur_closure", "cyclotomic"),
    "cgschur.duality": ("dual_sring", "character_table"),
    "cgschur.construct": ("all_subgroups", "build_nonpure_dense_sring", "subgroup_generated"),
    "cgschur.classify": (
        "decompose_pure", "reassemble", "check_nondense_structure", "classify_rational",
    ),
    "cgschur.cli": ("main",),
}


class Tracer:
    """Span stack and counters for one traced pass of one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._restore: list[tuple[object, str, object]] = []
        self._cells: dict[str, list[int]] = {}

    @contextmanager
    def span(self, name: str):
        sid = next(self._ids)
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))

    # -- installing wrappers ----------------------------------------------

    def install(self) -> None:
        """Wrap the functions in SPANNED and count the kernel methods."""
        from cgschur.cgring import CGRing
        from cgschur.galois import GaloisRing

        modules = [m for name, m in sys.modules.items() if name.startswith("cgschur")]
        for modname, names in SPANNED.items():
            home = sys.modules.get(modname)
            if home is None:  # cgschur.cli is loaded only by the CLI
                continue
            layer = modname.split(".")[-1]
            for fname in names:
                self._wrap_function(modules, getattr(home, fname), f"{layer}.{fname}")

        gal_mul = self._count(GaloisRing, "mul", "galois.mul_calls")
        self._count(GaloisRing, "add", "galois.add_calls")
        self._count(CGRing, "add", "cgring.add_calls")
        self._count(CGRing, "neg", "cgring.neg_calls")
        self._wrap_method(CGRing, "mul_table", "cgring.mul_table")

        # A CGRing.mul call falls through when it reaches GaloisRing.mul,
        # that is when no product table answered it.
        cg_mul = CGRing.__dict__["mul"]
        calls = self._cells.setdefault("cgring.mul_calls", [0])
        fallthrough = self._cells.setdefault("cgring.mul_fallthrough_calls", [0])

        def counted_mul(ring, a, b):
            calls[0] += 1
            before = gal_mul[0]
            out = cg_mul(ring, a, b)
            if gal_mul[0] != before:
                fallthrough[0] += 1
            return out

        self._set(CGRing, "mul", counted_mul)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _spanned(self, func, name: str):
        span, counts = self.span, self.counts

        @functools.wraps(func)
        def traced(*args, **kwargs):
            counts[name] += 1
            with span(name):
                return func(*args, **kwargs)

        return traced

    def _wrap_function(self, modules, func, name: str) -> None:
        traced = self._spanned(func, name)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is func:
                    self._set(mod, attr, traced)

    def _wrap_method(self, cls, attr: str, name: str) -> None:
        self._set(cls, attr, self._spanned(cls.__dict__[attr], name))

    def _count(self, cls, attr: str, name: str) -> list[int]:
        func = cls.__dict__[attr]
        cell = self._cells.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return func(*args)

        self._set(cls, attr, counted)
        return cell

    # -- reading results ----------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """All counters: call counts of spanned functions and kernel methods."""
        out = dict(self.counts)
        out.update({name: cell[0] for name, cell in self._cells.items()})
        return out

    def dump(self) -> list[dict]:
        """The recorded spans as documents, for writing out when the run ends."""
        return [{"run": self.run_id, "id": sid, "parent": parent, "name": name,
                 "start": start, "end": end}
                for sid, parent, name, start, end in self.spans]

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        for cell in self._cells.values():
            cell[0] = 0


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time covered by its child spans.

    Spans are recorded by one thread, so children never overlap and their
    durations add up to the covered part of the parent.
    """
    covered: dict[int, float] = defaultdict(float)
    for _sid, parent, _name, start, end in spans:
        covered[parent] += end - start
    return {sid: (end - start) - covered[sid] for sid, _p, _n, start, end in spans}


def self_time_by_name(spans, within: set[int] | None = None) -> dict[str, float]:
    """Total self time per span name, optionally only below the given spans."""
    selfs = self_times(spans)
    parent_of = {sid: parent for sid, parent, *_ in spans}
    out: dict[str, float] = defaultdict(float)
    for sid, _parent, name, _start, _end in spans:
        if within is not None:
            node = sid
            while node and node not in within:
                node = parent_of.get(node, 0)
            if not node:
                continue
        out[name] += selfs[sid]
    return dict(out)
