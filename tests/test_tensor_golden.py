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
import sys
from pathlib import Path

from lspectra.abelian import IntMatrix
from lspectra.chain import IntComplex, cone, tensor
from lspectra.poincare import (
    PoincareStructure,
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
        cx, PoincareStructure("quadratic", 1, {(0, 0): [[1]], (0, 1): [[1]], (1, 1): [[1]]})
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
    layout, is recorded on the built-in pairs only: on the hidden summands
    its homology runs into the unbounded Smith-form coefficient growth.
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


def record():
    return {**chain_cases(), "tensor_structured": structured_cases()}


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


if __name__ == "__main__":  # pragma: no cover
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: test_tensor_golden.py --record")
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
