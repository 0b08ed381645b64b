"""Command line interface.

Every invocation prints one JSON document with sorted keys, so equal
inputs give byte-identical output.  Exit codes: 0 success, 1 a check,
classification, or construction failed, 2 bad usage or malformed input.
Schur ring files are JSON objects with "ring" and "classes" keys; the
file name "-" reads the document from stdin.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Sequence

from .cgring import CGRing, parse_ring_spec
from .classify import (
    KIND_NOT_APPLICABLE,
    FalsificationError,
    check_nondense_structure,
    check_quotient_purity,
    classify_rational,
    decompose_pure,
)
from .construct import (
    ConstructionError,
    all_subgroups,
    build_nonpure_dense_sring,
    subgroup_generated,
)
from .duality import check_duality, dual_sring
from .galois import DEFAULT_MAX_RING_SIZE
from .sring import (
    SRing,
    StructureError,
    cyclotomic,
    quotient_sring,
    restrict,
    schur_closure,
    sring_from_doc,
    tensor,
    verify_sring,
    wreath_pairs,
)

ENV_MAX_RING_SIZE = "CGSCHUR_MAX_RING_SIZE"

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2


# -- output and input helpers --------------------------------------------------


def _canonical(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _emit(doc: dict, fmt: str) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2) if fmt == "pretty" else _canonical(doc))


def _read_doc(path: str) -> dict:
    if path == "-":
        text = sys.stdin.read()
    else:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("the input document must be a JSON object")
    for key in ("ring", "classes"):
        if key not in doc:
            raise ValueError(f"the input document has no {key!r} key")
    return doc


def _load_sring(path: str, max_size: int) -> SRing:
    return sring_from_doc(_read_doc(path), max_size=max_size)


def _parse_elements(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ValueError(f"expected comma separated integers, got {text!r}") from None


# -- subcommand handlers -------------------------------------------------------
#
# Each handler returns the document to print and whether every check,
# classification or construction it ran succeeded; main prints the
# document and turns the flag into the exit code.


def _cmd_ring(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    ring = parse_ring_spec(args.spec, max_size=max_size)
    components = [
        {
            "p": c.p,
            "n": c.n,
            "d": c.d,
            "size": c.size,
            "characteristic": c.char,
            "teichmuller_order": c.p**c.d - 1,
            "principal_unit_order": c.p ** ((c.n - 1) * c.d),
        }
        for c in ring.components
    ]
    return {
        "spec": ring.spec(),
        "size": ring.size,
        "characteristic": ring.char,
        "unit_count": len(ring.units()),
        "components": components,
        "ideals": [{"divisor": m, "size": ring.ideal_size(m)} for m in sorted(ring.divisors())],
    }, True


def _cmd_sring(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    if args.action == "cyc":
        ring = parse_ring_spec(args.spec, max_size=max_size)
        K = subgroup_generated(ring, _parse_elements(args.group))
        return cyclotomic(ring, K).to_doc(), True
    if args.action == "closure":
        ring = parse_ring_spec(args.spec, max_size=max_size)
        seeds = [frozenset(_parse_elements(s)) for s in args.seed]
        return schur_closure(ring, seeds).to_doc(), True
    if args.action == "verify":
        doc = _read_doc(args.file)
        ring = parse_ring_spec(doc["ring"], max_size=max_size)
        report = verify_sring(ring, doc["classes"])
        return report.to_doc(), report.ok
    if args.action == "tensor":
        left = _load_sring(args.left, max_size)
        right = _load_sring(args.right, max_size)
        return tensor(left, right).to_doc(), True
    A = _load_sring(args.file, max_size)
    if args.action == "quotient":
        return quotient_sring(A, args.modulus).to_doc(), True
    if args.action == "restrict":
        return restrict(A, args.modulus).to_doc(), True
    if args.action == "wreath":
        pairs = wreath_pairs(A)
        return {
            "pairs": [
                {"outer": w.outer, "inner": w.inner, "nontrivial": w.nontrivial}
                for w in pairs
            ],
            "nontrivial": any(w.nontrivial for w in pairs),
        }, True
    if args.action == "pure":
        return {
            "pure": A.is_pure(),
            "dense": A.is_dense(),
            "lower_ideal": A.lower_ideal(),
            "unit_classes": [
                {"class": k, "lower_ideal": A.ring.lower_ideal(A.classes[k])}
                for k in A.unit_class_indices()
            ],
        }, True
    if args.action == "rational":
        primes = _parse_elements(args.primes) if args.primes else None
        return {"rational": A.is_rational(primes)}, True
    raise ValueError(f"unknown sring action {args.action!r}")


def _cmd_dual(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    words = args.target
    if words[0] == "check":
        if len(words) != 2:
            raise ValueError("usage: dual check FILE")
        report = check_duality(_load_sring(words[1], max_size))
        return report.to_doc(), report.ok
    if len(words) != 1:
        raise ValueError("usage: dual [check] FILE")
    A = _load_sring(words[0], max_size)
    doc = dual_sring(A).to_doc()
    import hashlib  # loads OpenSSL, which only this digest needs
    doc["dual_of"] = hashlib.sha256(_canonical(A.to_doc()).encode()).hexdigest()
    return doc, True


def _cmd_construct(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    instance, built, report = build_nonpure_dense_sring(
        args.p, args.d, args.q, args.e, max_size=max_size
    )
    if args.out and report.ok:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(_canonical(built.to_doc()) + "\n")
    return {
        "instance": instance.to_doc(),
        "sring": built.to_doc(),
        "report": report.to_doc(),
    }, report.ok


def _cmd_classify(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    A = _load_sring(args.file, max_size)
    if args.action == "pure":
        dec = decompose_pure(A)
        return dec.to_doc(), dec.kind != KIND_NOT_APPLICABLE
    if args.action == "rational":
        dec = classify_rational(A)
        return dec.to_doc(), dec.kind != KIND_NOT_APPLICABLE
    if args.action == "nondense":
        report = check_nondense_structure(A)
        return report.to_doc(), report.ok
    if args.action == "quotient":
        quo_report = check_quotient_purity(A, args.modulus)
        return quo_report.to_doc(), quo_report.ok
    raise ValueError(f"unknown classify action {args.action!r}")


def _cmd_enumerate(args: argparse.Namespace, max_size: int) -> tuple[dict, bool]:
    ring = parse_ring_spec(args.spec, max_size=max_size)
    groups = all_subgroups(ring, frozenset(ring.units()))
    if args.action == "subgroups":
        return {
            "ring": ring.spec(),
            "count": len(groups),
            "subgroups": [sorted(K) for K in groups],
        }, True
    rows = []
    for K in groups:
        A = cyclotomic(ring, K)
        rows.append({
            "subgroup": sorted(K),
            "rank": A.rank,
            "pure": A.is_pure(),
            "dense": A.is_dense(),
            "lower_ideal": A.lower_ideal(),
            "classes": [sorted(X) for X in A.classes],
        })
    return {"ring": ring.spec(), "count": len(rows), "srings": rows}, True


_HANDLERS = {
    "ring": _cmd_ring,
    "sring": _cmd_sring,
    "dual": _cmd_dual,
    "construct": _cmd_construct,
    "classify": _cmd_classify,
    "enumerate": _cmd_enumerate,
}


# -- parser --------------------------------------------------------------------


def _common_flags() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "pretty"), default="json",
                        help="output style (default: json, one line)")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="cgschur",
        description="Exact Schur ring computations over products of Galois rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="VERB")

    ring = sub.add_parser("ring", help="ring reports")
    ring_sub = ring.add_subparsers(dest="action", required=True, metavar="ACTION")
    info = ring_sub.add_parser("info", parents=[common],
                               help="orders, unit structure, ideal lattice")
    info.add_argument("spec", help="ring spec such as GR(4,2)xGR(9)")

    sring = sub.add_parser("sring", help="build and check Schur rings")
    ss = sring.add_subparsers(dest="action", required=True, metavar="ACTION")
    cyc = ss.add_parser("cyc", parents=[common],
                        help="orbit partition of the unit subgroup the generators close to")
    cyc.add_argument("spec")
    cyc.add_argument("--group", required=True, help="comma separated unit generators")
    closure = ss.add_parser("closure", parents=[common],
                            help="least dense Schur ring whose A-sets include the seeds")
    closure.add_argument("spec")
    closure.add_argument("--seed", action="append", default=[],
                         help="comma separated elements; repeatable")
    verify = ss.add_parser("verify", parents=[common], help="axiom check with witnesses")
    verify.add_argument("file")
    quot = ss.add_parser("quotient", parents=[common], help="image in R/mR")
    quot.add_argument("file")
    quot.add_argument("--modulus", type=int, required=True)
    restr = ss.add_parser("restrict", parents=[common],
                          help="induced Schur ring on the ideal mR")
    restr.add_argument("file")
    restr.add_argument("--modulus", type=int, required=True)
    tens = ss.add_parser("tensor", parents=[common], help="tensor product over the product ring")
    tens.add_argument("left")
    tens.add_argument("right")
    wre = ss.add_parser("wreath", parents=[common], help="all wreath certificates")
    wre.add_argument("file")
    pure = ss.add_parser("pure", parents=[common], help="purity and density report")
    pure.add_argument("file")
    rat = ss.add_parser("rational", parents=[common], help="rationality report")
    rat.add_argument("file")
    rat.add_argument("--primes", help="check only these primes, comma separated")

    dual = sub.add_parser("dual", parents=[common],
                          help="dual Schur ring; 'dual check FILE' verifies the duality laws")
    dual.add_argument("target", nargs="+", metavar="[check] FILE")

    con = sub.add_parser("construct", parents=[common], help="named constructions")
    con.add_argument("name", choices=("t210809a",), help="construction token")
    con.add_argument("--p", type=int, required=True)
    con.add_argument("--d", type=int, required=True)
    con.add_argument("--q", type=int, required=True)
    con.add_argument("--e", type=int, required=True)
    con.add_argument("--out", help="also write the bare Schur ring document to this file")

    cls = sub.add_parser("classify", help="decomposition and structure reports")
    cs = cls.add_subparsers(dest="action", required=True, metavar="ACTION")
    for name, text in (
        ("pure", "tensor decomposition of a pure Schur ring"),
        ("rational", "wreath layering or rank-2 split of a rational Schur ring"),
        ("nondense", "structure forced by a missing maximal A-ideal"),
    ):
        pc = cs.add_parser(name, parents=[common], help=text)
        pc.add_argument("file")
    cq = cs.add_parser("quotient", parents=[common], help="purity of the image in R/mR")
    cq.add_argument("file")
    cq.add_argument("--modulus", type=int, required=True)

    enum = sub.add_parser("enumerate", help="exhaustive unit subgroup scans")
    es = enum.add_subparsers(dest="action", required=True, metavar="ACTION")
    esub = es.add_parser("subgroups", parents=[common], help="all unit subgroups")
    esub.add_argument("spec")
    ecyc = es.add_parser("cyc", parents=[common],
                         help="every cyclotomic Schur ring with a summary row")
    ecyc.add_argument("spec")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        max_size = int(os.environ.get(ENV_MAX_RING_SIZE, DEFAULT_MAX_RING_SIZE))
    except ValueError:
        max_size = 0
    if max_size < 1:
        print(f"error: {ENV_MAX_RING_SIZE} must be a positive integer", file=sys.stderr)
        return EXIT_USAGE
    try:
        doc, ok = _HANDLERS[args.command](args, max_size)
        _emit(doc, args.format)
    except (ConstructionError, StructureError, FalsificationError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILED
    except (KeyError, TypeError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if ok else EXIT_FAILED
