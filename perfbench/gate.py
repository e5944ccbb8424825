"""The correctness gate: one verdict per CLI call, from its exit code,
standard output and standard error against the op's expectation.

An op fails on an unexpected exit code, a traceback, a reported point
outside the expected set, a `proved-complete` report that misses an
expected point, or a wrong verdict, value or type.  A `candidates-only`
report that misses points is honest: it is not a failure, it lowers
`proved_complete_ratio` and `point_recall` instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

import corpus
import qi

PROVED = "proved-complete"


@dataclass
class Verdict:
    failure: Optional[str]          # None when the answer is right
    completeness: str = ""          # find ops only
    found: int = 0                  # expected points reported (find ops)
    expected: int = 0               # points expected (find ops)


def _point(text: str):
    return qi.normalize([qi.parse(x) for x in text.split(":")])


def _find(e: Dict, doc: Dict) -> Verdict:
    expected = {_point(p) for p in e["points"]}
    reported = {_point(p["point"]) for p in doc["points"]}
    status = doc["completeness"]
    found = len(expected & reported)
    failure = None
    if reported - expected:
        failure = "reported a point outside the expected set"
    elif status == PROVED and found < len(expected):
        failure = "proved-complete report misses an expected point"
    return Verdict(failure, status, found, len(expected))


def _auto(kind: str, e: Dict, doc: Dict) -> Optional[str]:
    if kind == "character":
        ok = qi.parse(doc["character_value"]) == qi.parse(e["value"])
        return None if ok else f"character {doc['character_value']}, expected {e['value']}"
    genera = sorted(c["genus"] for c in doc["curves"])
    if genera != e["genera"] or doc["n"] != e["n"]:
        return f"fixed locus genera {genera} n={doc['n']}, expected {e['genera']} n={e['n']}"
    if kind == "fixed-locus":
        if doc["square"]["n"] != e["square_n"]:
            return f"square n={doc['square']['n']}, expected {e['square_n']}"
        return None
    if doc["character"] != e["character"] or doc["type_tuple"] != e["type"]:
        return (f"classified {doc['character']} {doc['type_tuple']}, "
                f"expected {e['character']} {e['type']}")
    return None


def _lattice_reduce(e: Dict, doc: Dict) -> Optional[str]:
    r = e["reduced"]
    if doc["reduced"] != [r[0][0], r[0][1], r[1][0], r[1][1]]:
        return f"reduced to {doc['reduced']}, expected {r}"
    u = doc["transform"]
    if corpus.congruent(e["input"], u) != r or u[0][0] * u[1][1] - u[0][1] * u[1][0] != 1:
        return "transform does not realize the reduction in SL2(Z)"
    return None


def check(op: corpus.Op, rc: Optional[int], out: str, err: str) -> Verdict:
    e = op.expect
    if "Traceback (most recent call last)" in err:
        return Verdict("traceback")
    if rc != e["rc"]:
        return Verdict(f"exit code {rc}, expected {e['rc']}: {err.strip()[:120]}")
    if op.kind == "refuse":
        return Verdict(None if "singular" in err else "refusal does not name the singularity")
    try:
        return _check_document(op.kind, e, json.loads(out))
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return Verdict(f"malformed output: {exc!r}")


def _check_document(kind: str, e: Dict, doc: Dict) -> Verdict:
    if kind == "find":
        return _find(e, doc)
    if kind == "smooth":
        failure = None if doc["smooth"] is e["smooth"] else "wrong smoothness verdict"
    elif kind == "test":
        failure = None if doc["outer_galois_point"] is e["galois"] else "wrong Galois verdict"
        if failure is None and e["galois"] and "generator" not in doc:
            failure = "Galois point reported without its generator"
    elif kind in ("character", "fixed-locus", "classify"):
        failure = _auto(kind, e, doc)
    elif kind == "lattice-reduce":
        failure = _lattice_reduce(e, doc)
    elif kind == "lattice-compare":
        failure = None if doc["isomorphic"] is e["isomorphic"] else "wrong isomorphism verdict"
    elif kind == "moduli-dim":
        ok = doc["dimension"] == e["dimension"] and doc["centralizer_dimension"] == e["centralizer"]
        failure = None if ok else f"dimension {doc['dimension']}, expected {e['dimension']}"
    elif kind == "moduli-npns":
        failure = None if doc["dimension"] == e["dimension"] else "wrong npns dimension"
    elif kind == "demo":
        failure = None if doc["all_pass"] is True else "demo reports a failed check"
    else:
        failure = f"no check for op kind {kind}"
    return Verdict(failure)
