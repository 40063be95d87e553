"""Command-line front end.

Commands:
  classify  -f POLY -p P                  factorization case of a quartic
  polygon   -f POLY -p P [--phi POLY] [--svg PATH] [--json]
  basis     -f POLY -p P [--method auto|generic|quartic|order2] [--json]
  factor    -f POLY -p P [--json]         decomposition type (e, f pairs)
  verify    -f POLY -p P                  construction checked by Round 2 from it
  verify    --corpus N [--seed S] [-p P]  reproducible random corpus check
  oracle    -f POLY -p P [--json]         Round 2 oracle only, from Z[theta]

verify checks that the construction spans a ring (its multiplication table),
that the ring is p-maximal (one Pohst-Zassenhaus step from it adds nothing)
and that its index satisfies the discriminant identity.

(f, p) alone decides every answer; --seed only draws the --corpus sample.
All commands but polygon reject, with exit code 2, an f with a rational
root or a repeated factor and any reducible quartic.

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
from .factor import is_irreducible_quartic, sanity_check_irreducible
from .intpoly import IntPoly, parse_poly
from .newton import (
    LocalAnalysis,
    is_p_regular,
    newton_polygon,
    phi_expand,
    polygon_to_json,
    polygon_to_svg,
    principal_part,
)
from .oracle import _disc_identity, _round2, _table, round2
from .basis import _decomposition, _regular_basis, decomposition_type
from .quartic import _quartic_basis, classify, make_context


def _parse_f(args):
    f = parse_poly(args.f)
    if not f.monic or f.degree < 2:
        raise PintbasisError("f must be monic of degree >= 2")
    return f


def _is_quartic(f):
    return f.degree == 4 and f[3] == 0


def cmd_classify(args, out):
    f = _parse_f(args)
    if not _is_quartic(f):
        raise PintbasisError("classify expects a quartic x^4+ax^2+bx+c")
    sanity_check_irreducible(f)
    case = classify(f[2], f[1], f[0], args.p)
    out(case.value)
    return 0


def cmd_polygon(args, out):
    f = _parse_f(args)
    if args.phi:
        phis = [parse_poly(args.phi)]
    else:
        phis = [phi for phi, _ in LocalAnalysis(f, args.p).factors]
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


def _compute_basis(f, p, method, disc):
    """(basis, path, analysis) for an f the caller has passed through the
    irreducibility guard, with disc f when the caller holds it (else None).
    The analysis of (f, p) factors f mod p and analyses each lift once per
    command, for the generic route, the quartic route and the decomposition
    type alike."""
    if method == "quartic" or method == "order2":
        if not _is_quartic(f):
            raise PintbasisError(f"--method {method} expects a quartic x^4+ax^2+bx+c")
        analysis = LocalAnalysis(f, p, disc)
        basis = _quartic_basis(make_context(analysis))
        if method == "order2" and not basis.meta.get("order2"):
            raise PintbasisError("input does not route through a second-order polygon")
        return basis, basis.meta.get("case", "quartic"), analysis
    report = is_p_regular(f, p, disc)
    # generic takes the p-regular path only; auto falls back to the quartic
    # pipeline, which covers the order-2 cases internally
    try:
        return _regular_basis(report), "generic", report.analysis
    except NotRegularError:
        if method == "generic" or not _is_quartic(f):
            raise
        basis = _quartic_basis(make_context(report.analysis))
        path = "quartic+order2" if basis.meta.get("order2") else "quartic"
        return basis, path, report.analysis


def cmd_basis(args, out):
    f = _parse_f(args)
    basis, path, analysis = _compute_basis(f, args.p, args.method, sanity_check_irreducible(f))
    if args.json:
        payload = basis.to_json(_decomposition(analysis.report()))
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
                {"phi": e.phi.render("x"), "slope": e.slope,
                 "residual_factor": e.field.render(e.residual_factor),
                 "multiplicity": e.multiplicity, "e": e.e, "f": e.f}
                for e in dec.entries
            ]}, indent=2))
    else:
        for e in dec.entries:
            ef = f"e={e.e} f={e.f}" if e.e else "e,f unknown (multiple residual factor)"
            factor = e.field.render(e.residual_factor)
            if sum(1 for c in e.residual_factor if c) > 1:
                factor = f"({factor})"
            out(f"phi={e.phi.render('x')}  slope {e.slope}  "
                f"residual factor {factor}^{e.multiplicity}  {ef}")
        out("complete" if dec.complete else "incomplete")
    return 0


def _verify_one(f, p, disc, out, label=""):
    """Check the construction on an f that has passed the irreducibility
    guard, with the guard's disc f or None, by one Pohst-Zassenhaus step
    from it (Cohen, GTM 138, Thm 6.1.3).  Its multiplication table shows that
    the basis spans a ring.  Round 2 started from that ring, on the same
    table, adds nothing exactly when the ring is p-maximal.  The disc
    identity checks the index the construction claims.  Round 2 from
    Z[theta] runs only on a mismatch, to print the p-maximal order."""
    basis, path, analysis = _compute_basis(f, p, "auto", disc)
    table = _table(f, basis, p)
    checks = {"ring closed": table is not None}
    if table is not None:
        maximal = _round2(f, p, analysis.disc, (basis, table))
        checks["p-maximal"] = maximal.elements == basis.elements
    checks["disc identity"] = _disc_identity(f, p, basis, analysis.disc)
    _decomposition(analysis.report())  # raises when a complete sum e*f != deg f
    good = all(checks.values())
    status = "ok" if good else "MISMATCH"
    out(f"{label}verify {f.render()} at p={p}: {status} "
        f"(path {path}, ind={basis.index_valuation})")
    if not good:
        for name, val in checks.items():
            if not val:
                out(f"  FAILED: {name}")
        out(f"  constructed: {basis.render()}")
        out(f"  oracle:      {_round2(f, p, analysis.disc).render()}")
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
    if args.corpus is not None:
        import random

        rng = random.Random(args.seed)
        bad = 0
        for done in range(1, args.corpus + 1):
            p = args.p or rng.choice([2, 3, 5, 7, 13])
            f = _corpus_quartic(rng, p)
            if not _verify_one(f, p, None, out, label=f"[{done}] "):
                bad += 1
        out(f"corpus: {args.corpus - bad}/{args.corpus} ok")
        return 1 if bad else 0
    f = _parse_f(args)
    return 0 if _verify_one(f, args.p, sanity_check_irreducible(f), out) else 1


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

    sp = sub.add_parser("verify", help="construction checked by Round 2 from it")
    sp.add_argument("-f", help="polynomial (omit with --corpus)")
    sp.add_argument("-p", type=int, help="prime (with --corpus: fix the prime)")
    sp.add_argument("--corpus", type=int,
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
    if args.command == "verify" and args.corpus is not None and args.corpus < 1:
        out("error: verify --corpus N needs N >= 1")
        return 2
    if args.command == "verify" and args.corpus is None and not args.f:
        out("error: verify needs -f POLY or --corpus N")
        return 2
    if args.command == "verify" and args.corpus is None and args.p is None:
        out("error: verify needs -p P")
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
