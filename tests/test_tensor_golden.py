"""Golden bytes of the tensor layer: sha256 digests of seeded tensor
products, mapping cones and structure tensors.

The basis layout of C (x) D, the Koszul and interchange signs and the block
placement of the cone are all visible in these outputs, so a change that
is meant to restate them must leave every digest alone.  A rejected
structure tensor is recorded by its exception type and message.  After an
intended change, rewrite ``tensor_golden.json`` with

    PYTHONPATH=src python tests/test_tensor_golden.py --record
"""

import hashlib
import json
import random
import signal
import sys
from pathlib import Path

from lspectra.abelian import IntMatrix
from lspectra.chain import IntComplex, cone, tensor
from lspectra.poincare import (
    StructuredComplex,
    poincare_check,
    representative,
    tensor_structured,
)

from helpers import hidden_e_tensor_f_plus_h

GOLDEN = Path(__file__).with_name("tensor_golden.json")
TENSOR_CASES = 400
CONE_CASES = 300


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode("utf-8")).hexdigest()


def _two_term(rng):
    """Z^r1 --d--> Z^r0 in degrees lo+1 -> lo, ranks 0..3, entries in [-4, 4]."""
    lo = rng.randint(-2, 1)
    r0, r1 = rng.randint(0, 3), rng.randint(0, 3)
    d = IntMatrix([[rng.randint(-4, 4) for _ in range(r1)] for _ in range(r0)], shape=(r0, r1))
    return IntComplex({lo: r0, lo + 1: r1}, {lo + 1: d})


def _level_one_z4():
    cx = IntComplex({1: 1, 0: 1}, {1: [[4]]})
    return StructuredComplex(
        cx, "quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]], (1, 1): [[1]]}
    )


def chain_cases():
    """({"tensor": [...], "cone": [...]}) digests of the seeded complexes."""
    rng = random.Random(20261018)
    tensors, cones = [], []
    for i in range(TENSOR_CASES):
        T = tensor(_two_term(rng), _two_term(rng))
        if i % 2:
            T = tensor(T, _two_term(rng))
        tensors.append(_digest(T.to_json()))
        if i < CONE_CASES:
            if i % 3:
                c = rng.randint(-3, 3)
                f = {k: IntMatrix.identity(T.rank(k)).scale(c) for k in T.degrees()}
            else:
                f = {}
            cones.append(_digest(cone(f, T, T).to_json()))
    return {"tensor": tensors, "cone": cones}


def structured_cases():
    """{"s x t": digest} of each structure tensor or its rejection.

    The Poincare check, whose mapping cone is the other user of the block
    layout, is part of the digest on the built-in pairs; on the hidden pairs
    it is recorded as a plain boolean by ``hidden_poincare_cases``.
    """
    lefts = {"E": representative("E"), "unit": representative("unit")}
    rights = {"F": representative("F"), "hyperbolic": representative("hyperbolic"),
              "level-1 Z/4": _level_one_z4()}
    rights.update({f"hidden {k}": hidden_e_tensor_f_plus_h(random.Random(k)) for k in range(6)})
    out = {}
    for s_name, s in lefts.items():
        for t_name, t in rights.items():
            try:
                T = tensor_structured(s, t)
                doc = {"complex": T.to_json()}
                if t_name in ("F", "hyperbolic"):
                    doc["poincare"] = poincare_check(T)
            except ValueError as exc:
                doc = {"error": f"{type(exc).__name__}: {exc}"}
            out[f"{s_name} x {t_name}"] = _digest(doc)
    return out


def _hidden_pair(s_name, k):
    return tensor_structured(representative(s_name), hidden_e_tensor_f_plus_h(random.Random(k)))


def hidden_poincare_cases():
    """{"s x hidden k": verdict} of the Poincare check on the hidden pairs."""
    return {f"{s_name} x hidden {k}": poincare_check(_hidden_pair(s_name, k))
            for s_name in ("E", "unit") for k in range(6)}


def record():
    return {**chain_cases(), "tensor_structured": structured_cases(),
            "poincare_hidden": hidden_poincare_cases()}


def test_chain_outputs_match_golden():
    golden = json.loads(GOLDEN.read_text())
    results = chain_cases()
    for family in ("tensor", "cone"):
        assert len(results[family]) == len(golden[family])
        changed = [i for i, (a, b) in enumerate(zip(results[family], golden[family])) if a != b]
        assert not changed, (family, changed[:10])


def test_structure_tensors_match_golden():
    golden = json.loads(GOLDEN.read_text())["tensor_structured"]
    results = structured_cases()
    assert sorted(results) == sorted(golden)
    changed = [pair for pair in golden if results[pair] != golden[pair]]
    assert not changed, changed


def test_poincare_verdicts_on_hidden_pairs_match_golden():
    golden = json.loads(GOLDEN.read_text())["poincare_hidden"]
    assert hidden_poincare_cases() == golden
    assert len(golden) == 12


def test_poincare_check_on_unit_x_hidden_1_finishes():
    # it once ran for minutes in the Smith form of its mapping cone's homology
    def expire(signum, frame):
        raise TimeoutError("poincare_check(unit x hidden 1) ran past 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        assert poincare_check(_hidden_pair("unit", 1)) is True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_tensor_golden.py --record")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
