"""Regenerate the frozen input lists under perfbench/data.

Both lists are chosen by what the program does today (which inputs the
generic route rejects, which it accepts), so they are committed as text and
the workloads read them; a later change to routing cannot change a workload.
Run from the repository root:

    python3 perfbench/freeze.py
"""

import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pintbasis.basis import p_integral_basis_regular  # noqa: E402
from pintbasis.errors import NotRegularError  # noqa: E402
from pintbasis.factor import is_irreducible  # noqa: E402
from pintbasis.intpoly import IntPoly  # noqa: E402
from pintbasis.quartic import quartic_p_integral_basis  # noqa: E402

import inputs  # noqa: E402

IRREGULAR_SEED = 2009
IRREGULAR_PER_CASE = 12
IRREGULAR_DRAWS = 12000
REGULAR_SEED = 777
REGULAR_COUNT = 40


def _perturb(rng, p):
    """A small multiple of a random power p^e, e >= 1."""
    return rng.randint(-6, 6) * p ** rng.choice((1, 1, 2, 2, 3, 4))


def _draw(rng, p):
    """(a, b, c): p-power multiples, or a double or triple root mod p
    perturbed by p-power multiples (these reach the shift iteration)."""
    kind = rng.choice(("powers", "double", "triple"))
    if kind == "powers":
        return tuple(_perturb(rng, p) + (rng.randint(-3, 3) if rng.random() < 0.5 else 0)
                     for _ in range(3))
    s = rng.randint(1, 6)
    if kind == "double":  # (x-s)^2 (x^2+2sx+t)
        t = rng.randint(-6, 6)
        base = (t - 3 * s * s, 2 * s**3 - 2 * s * t, s * s * t)
    else:  # (x-s)^3 (x+3s)
        base = (-6 * s * s, 8 * s**3, -3 * s**4)
    return tuple(v + _perturb(rng, p) for v in base)


def irregular_quartics():
    """Quartics x^4+ax^2+bx+c that the generic route rejects as not
    p-regular and the quartic pipeline answers, at most IRREGULAR_PER_CASE of
    each quartic case (the case label the pipeline records in meta)."""
    rng = random.Random(IRREGULAR_SEED)
    per_case = {}
    rows = []
    seen = set()
    for _ in range(IRREGULAR_DRAWS):
        p = rng.choice((2, 3, 5, 7))
        a, b, c = _draw(rng, p)
        if (a, b, c, p) in seen or a * a == 4 * c:
            continue
        seen.add((a, b, c, p))
        if not inputs.quartic_irreducible(a, b, c) or inputs.quartic_disc(a, b, c) % p:
            continue
        f = IntPoly.monic_quartic(a, b, c)
        try:
            p_integral_basis_regular(f, p)
            continue
        except NotRegularError:
            pass
        basis = quartic_p_integral_basis(a, b, c, p)
        case = basis.meta.get("case", "?")
        if per_case.get(case, 0) >= IRREGULAR_PER_CASE:
            continue
        per_case[case] = per_case.get(case, 0) + 1
        rows.append((a, b, c, p, case))
    return rows


def regular_inputs():
    """The first REGULAR_COUNT p-regular inputs of degree 4..6 drawn as in
    acceptance criterion 3 (seed 777, coefficients in [-50, 50])."""
    rng = random.Random(REGULAR_SEED)
    rows = []
    while len(rows) < REGULAR_COUNT:
        n = rng.choice([4, 5, 6])
        coeffs = [rng.randint(-50, 50) for _ in range(n)] + [1]
        p = rng.choice(inputs.CORPUS_PRIMES)
        f = IntPoly(coeffs)
        if f.discriminant() == 0 or is_irreducible(f) is not True:
            continue
        try:
            p_integral_basis_regular(f, p)
        except NotRegularError:
            continue
        rows.append((p, *coeffs))
    return rows


def main():
    data = HERE / "data"
    data.mkdir(exist_ok=True)
    irregular = irregular_quartics()
    with open(data / "quartic_irregular.txt", "w") as fh:
        fh.write("# a b c p  # quartic case; written by perfbench/freeze.py\n")
        for a, b, c, p, case in sorted(irregular, key=lambda r: (r[4], r[3], r[:3])):
            fh.write(f"{a} {b} {c} {p}  # {case}\n")
    with open(data / "verify_regular.txt", "w") as fh:
        fh.write("# p c0 c1 ... cn (lowest degree first); written by perfbench/freeze.py\n")
        for row in regular_inputs():
            fh.write(" ".join(map(str, row)) + "\n")


if __name__ == "__main__":
    main()
