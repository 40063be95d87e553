"""Checkers for the answers the workloads collect.

Each checker takes the text ``pintbasis.cli.main`` printed and what the
input promised, and returns None when the answer is right or a one-line
reason when it is wrong.  The references share no Newton-polygon code with
the constructions: brute-force saturation (``oracle.saturate``), or Ore's
closed-form index together with resultant-based integrality and the
discriminant identity.
"""

import json
import re

from pintbasis import oracle
from pintbasis.basis import BasisElement, PIntegralBasis
from pintbasis.intpoly import IntPoly, parse_poly

_VERDICT = re.compile(r"verify .* at p=(\d+): (\S+) \(path ([^,]+), ind=(\d+)\)$")


def _elements(payload):
    return [BasisElement(parse_poly(e["numerator"]), e["denom_exp"])
            for e in payload["elements"]]


def check_oracle(text, f, p, reference):
    """The basis equals the saturation basis element for element.
    ``reference`` is ``oracle.saturate(IntPoly(f), p)``."""
    payload = json.loads(text)
    if payload["index_valuation"] != reference.index_valuation:
        return (f"index {payload['index_valuation']} != oracle "
                f"{reference.index_valuation}")
    if tuple(_elements(payload)) != tuple(reference.elements):
        return "elements differ from the saturation basis"
    return None


def check_ore(text, f, p, index):
    """Index equals Ore's closed form, every element is integral, and
    v_p(disc f) = 2 * index + v_p(disc of the elements)."""
    payload = json.loads(text)
    if payload["index_valuation"] != index:
        return f"index {payload['index_valuation']} != Ore's {index}"
    poly = IntPoly(f)
    els = _elements(payload)
    if len(els) != poly.degree:
        return f"{len(els)} elements for degree {poly.degree}"
    for el in els:
        if not oracle.is_integral(poly, el, p):
            return f"element with denominator p^{el.denom_exp} is not integral"
    basis = PIntegralBasis(p, tuple(els), index)
    if not oracle.disc_identity_check(poly, p, basis):
        return "discriminant identity fails"
    return None


def check_verdict(text, rc, index):
    """``verify`` exited 0 with status ok; for family inputs the printed
    index equals Ore's closed form."""
    lines = text.strip().splitlines()
    m = _VERDICT.match(lines[-1]) if lines else None
    if rc != 0 or m is None or m.group(2) != "ok":
        return f"verify exit {rc}: {lines[-1] if lines else '(no output)'}"
    if index is not None and int(m.group(4)) != index:
        return f"verify printed ind={m.group(4)} != Ore's {index}"
    return None


def check(expect, text, rc, oracle_cache):
    """Dispatch on the workload's expectation tuple (see inputs.py)."""
    kind = expect[0]
    if kind == "verdict":
        return check_verdict(text, rc, expect[1])
    if rc != 0:
        return f"exit {rc}: {text.strip()[-200:]}"
    if kind == "oracle":
        _, f, p = expect
        if (f, p) not in oracle_cache:
            oracle_cache[f, p] = oracle.saturate(IntPoly(f), p)
        return check_oracle(text, f, p, oracle_cache[f, p])
    _, f, p, index = expect
    return check_ore(text, f, p, index)
