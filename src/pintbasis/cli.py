"""Command-line front end.

Commands:
  classify  -f POLY -p P                  factorization case of a quartic
  polygon   -f POLY -p P [--phi POLY] [--svg PATH] [--json]
  basis     -f POLY -p P [--method auto|generic|quartic|order2] [--json]
  factor    -f POLY -p P [--json]         decomposition type (e, f pairs)
  verify    -f POLY -p P                  construction vs the Round 2 oracle
  verify    --corpus N [--seed S] [-p P]  reproducible random corpus check
  oracle    -f POLY -p P [--json]         Round 2 oracle only

(f, p) alone decides every answer; --seed only draws the --corpus sample.
All commands but polygon reject, with exit code 2, an f with a rational
root or a repeated factor and any reducible x^4+ax^2+bx+c.

Exit codes: 0 ok, 1 verification mismatch, 2 bad input or precondition
(message prefixed "error:"), 3 program fault: a broken internal invariant,
reported as InconsistentError or as an ArithmeticError from the exact
arithmetic (message prefixed "internal error:").
"""

import argparse
import functools
import json
import sys

from .arith import check_prime
from .errors import InconsistentError, NotRegularError, PintbasisError
from .factor import factor_mod_p, is_irreducible_quartic, sanity_check_irreducible
from .intpoly import IntPoly, parse_poly
from .newton import (
    is_p_regular,
    newton_polygon,
    phi_expand,
    polygon_to_json,
    polygon_to_svg,
    principal_part,
)
from .oracle import _disc_identity, _round2, is_ring_closed, round2
from .basis import _decomposition, _regular_basis, decomposition_type
from .quartic import _quartic_basis, classify, make_context


def _parse_f(args):
    f = parse_poly(args.f)
    if not f.monic or f.degree < 2:
        raise PintbasisError("f must be monic of degree >= 2")
    return f


def _quartic_coeffs(f):
    if f.degree != 4 or f[3] != 0:
        return None
    return f[2], f[1], f[0]


def cmd_classify(args, out):
    f = _parse_f(args)
    abc = _quartic_coeffs(f)
    if abc is None:
        raise PintbasisError("classify expects a quartic x^4+ax^2+bx+c")
    sanity_check_irreducible(f)
    case = classify(*abc, args.p)
    out(case.value)
    return 0


def cmd_polygon(args, out):
    f = _parse_f(args)
    if args.phi:
        phis = [parse_poly(args.phi)]
    else:
        phis = [phi for phi, _ in factor_mod_p(f, args.p)]
    payload = []
    for i, phi in enumerate(phis):
        polygon = newton_polygon(phi_expand(f, phi), args.p)
        principal = principal_part(polygon)
        payload.append({"phi": phi.render("x"), "polygon": polygon_to_json(polygon),
                        "principal": polygon_to_json(principal)})
        if args.svg:
            path = args.svg if len(phis) == 1 else f"{args.svg}.{i}.svg"
            with open(path, "w") as fh:
                fh.write(polygon_to_svg(polygon))
    if args.json:
        out(json.dumps(payload if len(payload) > 1 else payload[0], indent=2))
    else:
        for entry in payload:
            out(f"phi = {entry['phi']}")
            for side in entry["principal"]["sides"]:
                out(
                    f"  side slope {side['slope']}  length {side['length']}  "
                    f"degree {side['degree']}  ramification {side['ramification']}"
                )
            if not entry["principal"]["sides"]:
                out("  principal polygon is empty")
    return 0


def _compute_basis(f, p, method):
    """(basis, path, report) for an f the caller has passed through the
    irreducibility guard; report is the p-regularity report of the lifts of
    f mod p (is_p_regular), None when the method did not need it.  The
    factorization and the report run once per command, shared by the
    generic route and the decomposition type."""
    abc = _quartic_coeffs(f)
    if method == "quartic" or method == "order2":
        if abc is None:
            raise PintbasisError(f"--method {method} expects a quartic x^4+ax^2+bx+c")
        basis = _quartic_basis(make_context(*abc, p))
        if method == "order2" and not basis.meta.get("order2"):
            raise PintbasisError("input does not route through a second-order polygon")
        return basis, basis.meta.get("case", "quartic"), None
    report = is_p_regular(f, p)
    # generic takes the p-regular path only; auto falls back to the quartic
    # pipeline, which covers the order-2 cases internally
    try:
        return _regular_basis(f, p, report), "generic", report
    except NotRegularError:
        if method == "generic" or abc is None:
            raise
        basis = _quartic_basis(make_context(*abc, p))
        path = "quartic+order2" if basis.meta.get("order2") else "quartic"
        return basis, path, report


def cmd_basis(args, out):
    f = _parse_f(args)
    sanity_check_irreducible(f)
    basis, path, report = _compute_basis(f, args.p, args.method)
    if args.json:
        try:  # report is None when the quartic methods did not factor f
            dec = _decomposition(f, args.p, report or is_p_regular(f, args.p))
        except PintbasisError:
            dec = None
        payload = basis.to_json(dec)
        payload["path"] = path
        out(json.dumps(payload, indent=2))
    else:
        out(basis.render())
        out(f"index valuation: {basis.index_valuation}   (path: {path}"
            + (f", rows: {','.join(basis.meta['rows'])}" if basis.meta.get("rows") else "")
            + ")")
    return 0


def cmd_factor(args, out):
    f = _parse_f(args)
    dec = decomposition_type(f, args.p)
    if args.json:
        out(json.dumps({
            "complete": dec.complete,
            "entries": [
                {"phi": e.phi.render("x"), "slope": str(e.slope),
                 "residual_factor": e.field.render(e.residual_factor),
                 "multiplicity": e.multiplicity, "e": e.e, "f": e.f}
                for e in dec.entries
            ]}, indent=2))
    else:
        for e in dec.entries:
            ef = f"e={e.e} f={e.f}" if e.e else "e,f unknown (multiple residual factor)"
            out(f"phi={e.phi.render('x')}  slope {e.slope}  "
                f"residual factor {e.field.render(e.residual_factor)}^{e.multiplicity}  {ef}")
        out("complete" if dec.complete else "incomplete")
    return 0


def _verify_one(f, p, disc, out, label=""):
    """Check the construction against Round 2 on an f that has passed the
    irreducibility guard, with disc f in hand.  When the two bases are
    equal, the checks that would run twice run once: the disc identity is
    the same call for both, and Round 2 built the multiplication table of
    its order, which raises on a product that is not p-integral, so the
    basis spans a ring.  Otherwise every check runs on the construction."""
    basis, path, report = _compute_basis(f, p, "auto")
    oracle = _round2(f, p, disc)
    ok = basis.elements == oracle.elements
    identity = _disc_identity(f, p, basis, disc)
    checks = {
        "construction == oracle": ok,
        "disc identity": identity,
        "ring closed": ok or is_ring_closed(f, basis, p),
        "oracle disc identity": identity if ok else _disc_identity(f, p, oracle, disc),
    }
    dec = _decomposition(f, p, report)
    if dec.complete:
        checks["sum e*f = deg f"] = sum(e.e * e.f for e in dec.entries) == f.degree
    good = all(checks.values())
    status = "ok" if good else "MISMATCH"
    out(f"{label}verify {f.render()} at p={p}: {status} "
        f"(path {path}, ind={basis.index_valuation})")
    if not good:
        for name, val in checks.items():
            if not val:
                out(f"  FAILED: {name}")
        out(f"  constructed: {basis.render()}")
        out(f"  oracle:      {oracle.render()}")
    return good


def _corpus_quartic(rng, p):
    """An irreducible x^4+ax^2+bx+c that is (x-r)^2 (x^2+2rx+t) mod p, so
    p divides disc f; r and t are drawn mod p and each coefficient lifted to
    [-B, B], B = max(200, p//2), which keeps the exact quartic guard cheap."""
    bound = max(200, p // 2)

    def lift(residue):
        low = -bound + (residue + bound) % p  # the least lift in [-B, B]
        return low + p * rng.randint(0, (bound - low) // p)

    while True:
        r, t = rng.randrange(p), rng.randrange(p)
        a, b, c = (lift(x % p) for x in (t - 3 * r * r, 2 * r * (r * r - t), r * r * t))
        if is_irreducible_quartic(a, b, c):
            return IntPoly.monic_quartic(a, b, c)


def cmd_verify(args, out):
    if args.corpus:
        import random

        rng = random.Random(args.seed)
        bad = 0
        for done in range(1, args.corpus + 1):
            p = args.p or rng.choice([2, 3, 5, 7, 13])
            f = _corpus_quartic(rng, p)
            if not _verify_one(f, p, f.discriminant(), out, label=f"[{done}] "):
                bad += 1
        out(f"corpus: {args.corpus - bad}/{args.corpus} ok")
        return 1 if bad else 0
    f = _parse_f(args)
    disc = sanity_check_irreducible(f)
    if disc is None:  # the exact quartic test decided without disc f
        disc = f.discriminant()
    return 0 if _verify_one(f, args.p, disc, out) else 1


def cmd_oracle(args, out):
    f = _parse_f(args)
    sanity_check_irreducible(f)
    basis = round2(f, args.p)
    if args.json:
        out(json.dumps(basis.to_json(), indent=2))
    else:
        out(basis.render())
        out(f"index valuation: {basis.index_valuation}")
    return 0


@functools.cache
def build_parser():
    """The argument parser; it does not depend on the input, so it is built
    once per process."""
    parser = argparse.ArgumentParser(
        prog="pintbasis",
        description="p-integral bases of number fields via Newton polygons",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("-f", required=True, help="monic integer polynomial, e.g. 'x^4+2x^2-4x+2'")
        sp.add_argument("-p", type=int, required=True, help="prime")

    def common_json(sp):
        common(sp)
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("classify", help="factorization case of a quartic mod p")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("polygon", help="Newton polygon data (text/JSON/SVG)")
    common_json(sp)
    sp.add_argument("--phi", help="monic lift to use (default: all factors of f mod p)")
    sp.add_argument("--svg", help="write an SVG rendering to this path")
    sp.set_defaults(func=cmd_polygon)

    sp = sub.add_parser("basis", help="p-integral basis")
    common_json(sp)
    sp.add_argument("--method", choices=["auto", "generic", "quartic", "order2"],
                    default="auto")
    sp.set_defaults(func=cmd_basis)

    sp = sub.add_parser("factor", help="decomposition type of p (e, f invariants)")
    common_json(sp)
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("verify", help="construction vs the Round 2 oracle")
    sp.add_argument("-f", help="polynomial (omit with --corpus)")
    sp.add_argument("-p", type=int, help="prime (with --corpus: fix the prime)")
    sp.add_argument("--corpus", type=int, default=0,
                    help="verify N pseudorandom irreducible quartics")
    sp.add_argument("--seed", type=int, default=20259, help="seed of the --corpus sample")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("oracle", help="p-maximal order by Round 2 (Pohst-Zassenhaus)")
    common_json(sp)
    sp.set_defaults(func=cmd_oracle)
    return parser


def main(argv=None, stdout=None):
    stdout = stdout if stdout is not None else sys.stdout

    def out(line):
        print(line, file=stdout)

    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    if args.command == "verify" and not args.corpus and not args.f:
        out("verify needs -f POLY or --corpus N")
        return 2
    if args.command == "verify" and not args.corpus and args.p is None:
        out("verify needs -p P")
        return 2
    try:
        if args.p is not None:
            check_prime(args.p)
        return args.func(args, out)
    except (InconsistentError, ArithmeticError) as exc:
        out(f"internal error: {exc}")
        return 3
    except (PintbasisError, ValueError) as exc:
        out(f"error: {exc}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
