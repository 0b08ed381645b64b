"""Exact construction, verification, duality, and decomposition of
Schur rings over finite products of Galois rings of coprime
characteristics.

Importing the package runs none of its modules, so a command line call
compiles only what its verb runs.  Each library module is put in
``sys.modules`` at once, as when the package imported them all, but its
body runs only on first use (``importlib.util.LazyLoader``); code that
finds the modules there, such as a tracer that wraps their functions,
sees every one.  A submodule such as ``cgschur.sring`` is read on first
use and then kept here; a public name is read from its home module on
each use, so it is never a stale copy of a name rebound there.
"""

import sys
from importlib import import_module
from importlib.util import LazyLoader, find_spec, module_from_spec

# home module -> the public names it holds
_EXPORTS = {
    "cgring": ("CGRing", "ideal_ring", "make_cg_ring", "parse_ring_spec", "quotient"),
    "classify": ("Decomposition", "FalsificationError", "check_nondense_structure",
                 "check_quotient_purity", "classify_rational", "decompose_pure", "reassemble"),
    "construct": ("ConstructionError", "all_subgroups", "build_nonpure_dense_sring",
                  "subgroup_generated"),
    "duality": ("character_table", "check_duality", "dual_sring", "perp_of_ideal",
                "separation_check"),
    "galois": ("GaloisRing", "make_galois_ring"),
    "sring": ("PartitionError", "SRing", "StructureError", "cyclotomic", "is_tensor_over",
              "quotient_sring", "restrict", "schur_closure", "sring_from_doc", "tensor",
              "verify_sring", "wreath_pairs"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)

for _module in _EXPORTS:
    _spec = find_spec(f"{__name__}.{_module}")
    _spec.loader = LazyLoader(_spec.loader)
    sys.modules[_spec.name] = module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules[_spec.name])
del _module, _spec


def __getattr__(name: str):
    if name in _EXPORTS:  # the import runs a lazy module's body
        globals()[name] = import_module(f"{__name__}.{name}")
        return globals()[name]
    if name in _HOME:  # not kept, so a name rebound at home is seen here
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
