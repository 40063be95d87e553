import io
import json
from collections import Counter

from pintbasis.cli import build_parser, main
from pintbasis.intpoly import IntPoly, parse_poly


def run(argv):
    buf = io.StringIO()
    code = main(argv, stdout=buf)
    return code, buf.getvalue()


def test_classify():
    code, out = run(["classify", "-f", "x^4+x^2+50", "-p", "5"])
    assert code == 0 and out.strip() == "B1"


def test_basis_text():
    code, out = run(["basis", "-f", "x^4+x^2+50", "-p", "5"])
    assert code == 0
    assert "(θ³+θ)/5" in out
    assert "index valuation: 1" in out


def test_basis_json_schema():
    code, out = run(["basis", "-f", "x^4+2x^2+4", "-p", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2
    assert payload["index_valuation"] == 2
    assert payload["elements"][2] == {"numerator": "x^2", "denom_exp": 1}


def test_basis_methods_agree():
    for method in ("auto", "generic", "quartic"):
        code, out = run(["basis", "-f", "x^4+x^2+50", "-p", "5", "--method", method, "--json"])
        assert code == 0
        assert json.loads(out)["index_valuation"] == 1


def test_basis_order2_method():
    code, out = run(["basis", "-f", "x^4+4x^2-4", "-p", "2", "--method", "order2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["index_valuation"] == 3
    code, _ = run(["basis", "-f", "x^4-2", "-p", "2", "--method", "order2"])
    assert code == 2  # not a second-order case


def test_polygon_json_and_svg(tmp_path):
    svg = tmp_path / "poly.svg"
    code, out = run(["polygon", "-f", "x^4+2x+4", "-p", "2", "--phi", "x", "--json",
                     "--svg", str(svg)])
    assert code == 0
    payload = json.loads(out)
    assert payload["principal"]["sides"][0]["slope"] == "-1"
    assert payload["principal"]["sides"][1]["slope"] == "-1/3"
    assert svg.read_text().startswith("<svg")


def test_factor_command():
    code, out = run(["factor", "-f", "x^4-2", "-p", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["complete"] is True
    assert payload["entries"][0]["e"] == 4 and payload["entries"][0]["f"] == 1


# factor text for residuals over F_p and over F_{p^k}, k = 2 and 4: linear
# factors with a t-coefficient, an irreducible quadratic over F_9, a
# multiple factor, an (f, p) with three lifts, and an f that is its own lift
# (a side of slope -infinity).  The factor column is the text form, where a
# factor of more than one term is parenthesized; factor --json omits the
# parentheses.
FACTOR_GOLDEN = {
    ("x^4+2x^2+10", "3"): [
        ("x^2+1", "-1", "(y + (t))", 1, 1, 2),
        ("x^2+1", "-1", "(y + (2*t))", 1, 1, 2),
    ],
    ("x^4+3x^2+18", "3"): [("x", "-1/2", "(y^2 + y + 2)", 1, 2, 2)],
    ("x^4+6x^3+5x^2+24x+13", "3"): [
        ("x^2+1", "-1", "(y^2 + (2*t+1)*y + (2*t+1))", 1, 1, 4)],
    ("x^4-50x^2-55x-1", "2"): [
        ("x^4+x+1", "-1", "(y + (t^2+1))", 1, 1, 4),
    ],
    ("x^4+x^2+50", "5"): [
        ("x", "-1", "(y^2 + 2)", 1, 1, 2),
        ("x+2", "-1", "(y + 1)", 1, 1, 1),
        ("x-2", "-1", "(y + 4)", 1, 1, 1),
    ],
    ("x^6+4", "2"): [("x", "-1/3", "(y + 1)", 2, None, None)],
    ("x^2+1", "3"): [("x^2+1", "-inf", "y", 1, 1, 2)],
}


def test_factor_renders_residuals_golden():
    for (f, p), entries in FACTOR_GOLDEN.items():
        complete = all(e is not None for *_, e, _ in entries)
        lines = []
        for phi, slope, factor, m, e, deg in entries:
            ef = f"e={e} f={deg}" if e else "e,f unknown (multiple residual factor)"
            lines.append(f"phi={phi}  slope {slope}  residual factor {factor}^{m}  {ef}")
        lines.append("complete" if complete else "incomplete")
        assert run(["factor", "-f", f, "-p", p]) == (0, "\n".join(lines) + "\n"), (f, p)
        payload = {"complete": complete, "entries": [
            {"phi": phi, "slope": slope,
             "residual_factor": factor.removeprefix("(").removesuffix(")"),
             "multiplicity": m, "e": e, "f": deg}
            for phi, slope, factor, m, e, deg in entries]}
        expected = json.dumps(payload, indent=2) + "\n"
        assert run(["factor", "-f", f, "-p", p, "--json"]) == (0, expected), (f, p)


def test_verify_single():
    code, out = run(["verify", "-f", "x^4+2x^2+4", "-p", "2"])
    assert code == 0
    assert "ok" in out and "ind=2" in out


def test_verify_corpus_reproducible():
    code1, out1 = run(["verify", "--corpus", "5", "--seed", "7"])
    code2, out2 = run(["verify", "--corpus", "5", "--seed", "7"])
    assert code1 == code2 == 0
    assert out1 == out2
    code3, out3 = run(["verify", "--corpus", "5", "--seed", "8"])
    assert out3 != out1


def test_oracle_command():
    code, out = run(["oracle", "-f", "x^4+x^2+50", "-p", "5"])
    assert code == 0 and "(θ³+θ)/5" in out


def test_error_paths():
    code, out = run(["basis", "-f", "x^4++1", "-p", "2"])
    assert code == 2
    code, out = run(["basis", "-f", "x^4-2", "-p", "4"])
    assert code == 2 and "prime" in out
    code, out = run(["classify", "-f", "x^5-2", "-p", "2"])
    assert code == 2
    code, out = run(["classify", "-f", "x^4-2x^2+1", "-p", "3"])
    assert code == 2  # reducible
    # verify rejects reducible f with the guard's messages, as the other
    # commands do; the 2+2 test covers quartics with an x^3 term,
    # (x^2+1)(x^2+3x-1) and (x^2+x+3)(x^2+2x+5)
    for command in ("basis", "factor", "verify", "oracle"):
        for f, p in (("x^4+4x^2+4", "2"), ("x^4+3x^3+3x-1", "3"),
                     ("x^4+3x^3+10x^2+11x+15", "3")):
            assert run([command, "-f", f, "-p", p]) == (
                2, f"error: {parse_poly(f).render()} factors over Q\n"), (command, f)
        assert run([command, "-f", "x^5-3x^4+x^2-2x-3", "-p", "2"]) == (
            2, "error: x^5-3*x^4+x^2-2*x-3 has a rational root\n"), command
    # a lift other than f that divides f over Z: (x^3+x+1)(x^3+x^2+1) at
    # p = 2 passes the guard, and the analysis of (f, p) rejects it
    for command in ("basis", "factor", "verify"):
        assert run([command, "-f", "x^6+x^5+x^4+3x^3+x^2+x+1", "-p", "2"]) == (
            2, "error: x^6+x^5+x^4+3*x^3+x^2+x+1 factors over Q\n"), command
    # verify's own usage checks answer like every other bad input
    for n in ("0", "-1"):  # a corpus needs at least one input
        assert run(["verify", "--corpus", n]) == (
            2, "error: verify --corpus N needs N >= 1\n"), n
    assert run(["verify", "-p", "2"]) == (2, "error: verify needs -f POLY or --corpus N\n")
    assert run(["verify", "-f", "x^2+1"]) == (2, "error: verify needs -p P\n")


def test_composite_p_is_rejected():
    """Strong pseudoprimes to the bases 2..37 and 2..41 among them, exit 2
    from every command that takes p, and raise ValueError from every library
    route, each of which builds a LocalAnalysis, the one place p is checked
    outside cli.main; Mersenne primes of 127 and 521 bits are accepted."""
    import pytest
    from test_arith import STRONG_PSEUDOPRIMES

    from pintbasis.basis import decomposition_type, p_integral_basis_regular
    from pintbasis.newton import LocalAnalysis, is_p_regular
    from pintbasis.quartic import classify, quartic_p_integral_basis

    f = parse_poly("x^4+x^2+50")
    routes = (LocalAnalysis, is_p_regular, p_integral_basis_regular, decomposition_type)
    for n in STRONG_PSEUDOPRIMES:
        for command in ("classify", "polygon", "basis", "factor", "verify", "oracle"):
            assert run([command, "-f", "x^2+1", "-p", str(n)]) == (
                2, f"error: {n} is not prime\n"), (command, n)
        for route in routes:
            with pytest.raises(ValueError, match=f"^{n} is not prime$"):
                route(f, n)
        for route in (classify, quartic_p_integral_basis):
            with pytest.raises(ValueError, match=f"^{n} is not prime$"):
                route(1, 0, 50, n)
    for p in (2**127 - 1, 2**521 - 1):
        assert run(["basis", "-f", "x^2+1", "-p", str(p)]) == (
            0, "1, θ\nindex valuation: 0   (path: generic)\n")
        assert run(["oracle", "-f", "x^3+2", "-p", str(p)]) == (
            0, "1, θ, θ²\nindex valuation: 0\n")


def test_not_regular_error_message():
    """The witness of an inseparable residual: phi rendered as a polynomial,
    the multiple factor over F_2 and over F_9 = F_3[t]/(t^2+1)."""
    prefix = "error: inseparable residual polynomial on side of slope"
    assert run(["basis", "-f", "x^6+4", "-p", "2"]) == (2, (
        f"{prefix} -1/3 for phi=x; multiple factor y + 1 with multiplicity 2\n"))
    # (x^2+1)^2 + 6x(x^2+1) - 9: residual y^2 + 2ty - 1 = (y + t)^2
    assert run(["basis", "-f", "x^4+6x^3+2x^2+6x-8", "-p", "3"]) == (2, (
        f"{prefix} -1 for phi=x^2+1; multiple factor y + (t) with multiplicity 2\n"))


def test_repeated_factors_are_rejected():
    # (x^2+x+1)^2 and (x^2+1)^3 have no rational root and are not of the
    # shape x^4+ax^2+bx+c, so the repeated-factor test catches them (on the
    # quartic it runs before the 2+2 test)
    for f, p in (("x^4+2x^3+3x^2+2x+1", "2"), ("x^4+2x^3+3x^2+2x+1", "5"),
                 ("x^6+3x^4+3x^2+1", "3")):
        for command in ("basis", "factor", "verify", "oracle"):
            code, out = run([command, "-f", f, "-p", p])
            assert code == 2 and "has a repeated factor" in out, (command, f, p, out)


def test_reused_parser_matches_fresh_parsers():
    sequence = [
        ["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"],
        ["classify", "-f", "x^4+x^2+50", "-p", "5"],
        ["basis", "-f"],  # parse error: -f needs a value
        ["factor", "-f", "x^4-2", "-p", "2"],
        ["basis", "-f", "x^4+2x^2+4", "-p", "2", "--method", "generic"],
        ["nonsense"],  # parse error: unknown command
        ["polygon", "-f", "x^4+2x+4", "-p", "2", "--phi", "x"],
        ["verify", "--corpus", "2", "--seed", "3"],
        ["verify", "-f", "x^4+2x^2+4", "-p", "2"],
        ["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"],
    ]
    reused = [run(argv) for argv in sequence]
    assert build_parser() is build_parser()
    fresh = []
    for argv in sequence:
        build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _ in reused] == [0, 0, 2, 0, 0, 2, 0, 0, 0, 0]
    assert reused[0] == reused[-1]


def _count_calls(monkeypatch, targets):
    """Count the calls of each (owner, name) in targets, under the name,
    wherever a pintbasis module has imported it."""
    import pintbasis

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    modules = [m for m in vars(pintbasis).values() if type(m) is type(pintbasis)]
    for owner, name in targets:
        original = getattr(owner, name)
        wrapper = counting(name, original)
        monkeypatch.setattr(owner, name, wrapper)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_basis_json_factors_and_guards_once(monkeypatch):
    from pintbasis import factor, quartic
    from pintbasis.basis import decomposition_type, p_integral_basis_regular
    from pintbasis.intpoly import IntPoly, parse_poly

    argv = ["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"]
    _, out = run(argv)
    f = parse_poly("x^4+x^2+50")
    expected = p_integral_basis_regular(f, 5).to_json(decomposition_type(f, 5))
    expected["path"] = "generic"
    assert json.loads(out) == expected

    calls = _count_calls(monkeypatch, [
        (factor, "factor_mod_p"), (factor, "sanity_check_irreducible"),
        (quartic, "make_context"), (IntPoly, "discriminant")])
    assert run(argv)[1] == out
    assert calls == {"factor_mod_p": 1, "sanity_check_irreducible": 1}

    # a case-B1 quartic the generic route rejects: the quartic fallback
    # reuses the guard and builds one context, as does --method quartic
    for method, path in (("auto", "quartic"), ("quartic", "B1")):
        calls.clear()
        code, out = run(["basis", "-f", "x^4-148x^2+372x+180", "-p", "3",
                         "--method", method, "--json"])
        payload = json.loads(out)
        assert code == 0 and payload["path"] == path and payload["meta"]["case"] == "B1"
        assert calls["sanity_check_irreducible"] == 1
        assert calls["make_context"] == 1
        assert calls["discriminant"] == 1
        assert calls["factor_mod_p"] <= 2


def test_verify_guards_once(monkeypatch):
    from pintbasis import factor

    calls = _count_calls(monkeypatch, [
        (factor, "integer_roots"), (factor, "is_irreducible_quartic"),
        (factor, "sanity_check_irreducible")])
    # a quartic x^4+ax^2+bx+c, decided exactly, and an f of another shape
    for f, p in (("x^4-148x^2+372x+180", "3"), ("x^5+2x+2", "2")):
        calls.clear()
        code, out = run(["verify", "-f", f, "-p", p])
        assert code == 0 and ": ok (" in out, out
        assert calls["integer_roots"] == 1, (f, calls)
    # the corpus pre-filter proves each quartic irreducible, so the basis
    # computation runs no guard of its own
    calls.clear()
    code, out = run(["verify", "--corpus", "3", "--seed", "1"])
    assert code == 0 and "corpus: 3/3 ok" in out
    assert calls["sanity_check_irreducible"] == 0
    assert calls["integer_roots"] <= calls["is_irreducible_quartic"]


def test_verify_corpus_at_large_p():
    """verify --corpus draws each quartic with a repeated factor mod p, so
    p divides disc f by construction, with coefficients bounded by
    max(200, p/2): one draw per input, even at p = 10^6+3."""
    import re
    import time

    start = time.perf_counter()
    code, out = run(["verify", "--corpus", "1", "-p", "1000003"])
    assert time.perf_counter() - start < 0.5
    assert code == 0 and "corpus: 1/1 ok" in out, out
    for p, seed in ((1000003, "2"), (10007, "3"), (13, "4"), (2, "5")):
        code, out = run(["verify", "--corpus", "4", "-p", str(p), "--seed", seed])
        assert code == 0 and "corpus: 4/4 ok" in out, out
        drawn = re.findall(r"verify (\S+) at p=(\d+): ok", out)
        assert len(drawn) == 4
        for f, q in drawn:
            f = parse_poly(f)
            assert int(q) == p and f.discriminant() % p == 0
            assert max(abs(c) for c in f.coeffs) <= max(200, p // 2)


def test_verify_mismatch_reports_the_construction(monkeypatch):
    """A wrong construction makes verify exit 1 with MISMATCH and a FAILED
    line for each check it fails, and for no other: a basis that spans no
    ring fails ring closure (p-maximality is not asked of it), an order
    that Round 2 enlarges fails p-maximality, and a wrong index fails the
    disc identity.  The oracle line is Round 2 from Z[theta], which runs
    once per mismatch."""
    from pintbasis import cli, oracle
    from pintbasis.basis import BasisElement, PIntegralBasis, power_basis, triangularize

    power = power_basis(5, 4).elements
    not_a_ring = (power[0], BasisElement(IntPoly([0, 1]), 1), power[2], power[3])
    true = oracle.round2(parse_poly("x^4+x^2+50"), 5).elements
    cases = [
        (PIntegralBasis(5, power, 0), {"p-maximal"}),
        (PIntegralBasis(5, not_a_ring, 1), {"ring closed"}),
        (PIntegralBasis(5, power, 1), {"p-maximal", "disc identity"}),
        (PIntegralBasis(5, true, 2), {"disc identity"}),
    ]
    calls = _count_calls(monkeypatch, [(oracle, "power_basis")])
    for wrong, failed in cases:
        calls.clear()
        monkeypatch.setattr(cli, "_regular_basis", lambda report, wrong=wrong: wrong)
        code, out = run(["verify", "-f", "x^4+x^2+50", "-p", "5"])
        assert code == 1 and ": MISMATCH (path generic" in out, out
        lines = out.splitlines()
        assert {line[len("  FAILED: "):] for line in lines
                if line.startswith("  FAILED: ")} == failed, out
        assert lines[-1] == "  oracle:      1, θ, θ², (θ³+θ)/5", out
        assert calls["power_basis"] == 1, (failed, calls)
    # an order that does not contain Z[theta], here Z[p theta] with its own
    # index -6, fails p-maximality also where v_p(disc f) < 2 lets Round 2
    # from Z[theta] stop at once, on the Frobenius radical and the trace form
    for p in (3, 7):
        below = triangularize([BasisElement(IntPoly.x(k) * p**k, 0) for k in range(4)], p, 4)
        assert below.index_valuation == -6
        monkeypatch.setattr(cli, "_regular_basis", lambda report, below=below: below)
        code, out = run(["verify", "-f", "x^4+x^2+50", "-p", str(p)])
        assert code == 1 and out.splitlines()[1:2] == ["  FAILED: p-maximal"], out
        assert out.endswith("  oracle:      1, θ, θ², θ³\n"), out


def test_verify_develops_each_lift_once(monkeypatch):
    """On agreeing bases verify runs one p-regularity report per (f, p),
    which serves the generic route and the decomposition type: one
    development per lift, which the generators and the index check read
    from the report's records.  Round 2 starts from the construction and
    reuses its multiplication table, so it never builds the power basis,
    and no is_ring_closed call runs.  disc f is computed once, by verify's
    analysis, for every shape: the guard decides the quartic
    x^4+ax^2+bx+c exactly, and for the other shapes, among them a degree-8
    f whose degree patterns mod small primes leave is_irreducible
    undecided, a witness prime rules out a repeated factor."""
    from pintbasis import factor, newton, oracle

    inputs = [(f, p, len(factor.factor_mod_p(parse_poly(f), int(p))))
              for f, p in (("x^4+x^2+50", "5"), ("x^8+3x^7+3x^6+x^5+9", "3"),
                           ("x^5+2x+2", "2"), ("x^8-40x^6+352x^4-960x^2+576", "5"))]
    assert [lifts for _, _, lifts in inputs] == [3, 2, 1, 2]
    assert factor.is_irreducible(parse_poly(inputs[-1][0])) is None
    calls = _count_calls(monkeypatch, [
        (newton, "phi_expand"), (newton, "is_p_regular"), (oracle, "is_ring_closed"),
        (oracle, "power_basis"), (oracle, "_table"), (factor, "factor_mod_p"),
        (IntPoly, "discriminant")])
    for f, p, lifts in inputs:
        calls.clear()
        code, out = run(["verify", "-f", f, "-p", p])
        assert code == 0 and ": ok (path generic" in out, out
        assert calls["phi_expand"] == lifts, (f, calls)
        assert calls["is_p_regular"] == calls["factor_mod_p"] == 1, (f, calls)
        assert calls["is_ring_closed"] == calls["power_basis"] == 0, (f, calls)
        assert calls["_table"] == 1, (f, calls)
        assert calls["discriminant"] == 1, (f, calls)


def test_generic_basis_computes_no_discriminant(monkeypatch):
    """basis --json on the generic route reads no disc f: for f not of the
    shape x^4+ax^2+bx+c a witness prime q, with f mod q squarefree, rules
    out a repeated factor, and the analysis computes disc f only where it
    is read.  verify reads it for the disc identity and Round 2, once.  For
    x^2 - 6469693230, 6469693230 the product of the primes up to 29, every
    witness prime divides disc f, so the guard computes it exactly, and
    both commands still answer."""
    # x^6+3x^4+3x^2-8 = (x^2+1)^3 - 9 at p = 3 is a generic-ladder rung
    inputs = (("x^5+2x+2", "2", 0), ("x^6+3x^4+3x^2-8", "3", 0),
              ("x^2-6469693230", "2", 1))
    calls = _count_calls(monkeypatch, [(IntPoly, "discriminant")])
    for f, p, discs in inputs:
        calls.clear()
        code, out = run(["basis", "-f", f, "-p", p, "--json"])
        assert code == 0 and json.loads(out)["path"] == "generic", out
        assert calls["discriminant"] == discs, (f, calls)
        calls.clear()
        code, out = run(["verify", "-f", f, "-p", p])
        assert code == 0 and ": ok (path generic" in out, out
        assert calls["discriminant"] == 1, (f, calls)


def test_high_multiplicity_generic_inputs():
    """(x-5)^7 (x+5)^7 (x-3)^m + 101^2 at p = 101: each lift x-a of
    multiplicity k has the one-sided polygon (0, 2)-(k, 0), so the index is
    the sum of floor(2(k-j)/k) over j = 1..k and the three lifts.  The
    high multiplicities give large integer rows to triangularize."""
    import time

    from pintbasis.intpoly import IntPoly

    X = IntPoly([0, 1])
    for m in (3, 5):
        f = (X - 5) ** 7 * (X + 5) ** 7 * (X - 3) ** m + 101**2
        index = sum(2 * (k - j) // k for k in (7, 7, m) for j in range(1, k + 1))
        start = time.perf_counter()
        code, out = run(["basis", "-f", f.render("x"), "-p", "101", "--json"])
        elapsed = time.perf_counter() - start
        payload = json.loads(out)
        assert code == 0 and payload["path"] == "generic"
        assert payload["index_valuation"] == index == {3: 7, 5: 8}[m]
        assert elapsed < 2.0, (f.degree, elapsed)


def test_program_faults_exit_3(monkeypatch):
    """A broken invariant is a program fault, not bad input: exit 3 with an
    'internal error:' line, and no exception escapes main."""
    from pintbasis import cli
    from pintbasis.errors import InconsistentError

    for fault in (InconsistentError("pivot is not a power of p"),
                  ArithmeticError("subresultant h-update not exact")):
        def broken(*args, **kwargs):
            raise fault

        monkeypatch.setattr(cli, "_regular_basis", broken)
        for command in ("basis", "verify"):
            code, out = run([command, "-f", "x^4+x^2+50", "-p", "5"])
            assert code == 3, (command, fault, out)
            assert out == f"internal error: {fault}\n"


def test_basis_json_reports_a_failed_decomposition(monkeypatch):
    """basis --json does not hide a program fault in the decomposition type:
    an InconsistentError from it exits 3 instead of an answer without the
    decomposition."""
    from pintbasis import cli
    from pintbasis.errors import InconsistentError

    def broken(report):
        raise InconsistentError("sum of e*f = 3 differs from deg f = 4")

    monkeypatch.setattr(cli, "_decomposition", broken)
    assert run(["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"]) == (
        3, "internal error: sum of e*f = 3 differs from deg f = 4\n")


def test_each_residual_is_factored_once(monkeypatch):
    """basis --json and factor on x^4+6x^2-27x+9 at p = 3, whose lift x
    carries the inseparable residual (y+1)^2: the regularity verdict, its
    witness and the decomposition type read one factorization of each
    residual polynomial."""
    import pintbasis
    from pintbasis import fq

    factored = Counter()
    original = fq.factor_fqpoly

    def counted(field, r):
        factored[(field.p, field.modulus, tuple(r))] += 1
        return original(field, r)

    for mod in [m for m in vars(pintbasis).values() if type(m) is type(pintbasis)]:
        if getattr(mod, "factor_fqpoly", None) is original:
            monkeypatch.setattr(mod, "factor_fqpoly", counted)
    for command in (["basis", "--json"], ["factor"]):
        factored.clear()
        code, out = run([*command, "-f", "x^4+6x^2-27x+9", "-p", "3"])
        assert code == 0, (command, out)
        assert (3, (0, 1), (1, 2, 1)) in factored, (command, factored)
        assert set(factored.values()) == {1}, (command, factored)


def test_oracle_scales_past_degree_8():
    """Degree-8 inputs, x^5(x+1)^3+9 at p = 3 and x^8+4x+8 at p = 2, go
    through the oracle in seconds."""
    import time

    start = time.perf_counter()
    code, out = run(["verify", "-f", "x^8+3x^7+3x^6+x^5+9", "-p", "3"])
    assert code == 0 and ": ok (" in out and "ind=3" in out, out
    assert time.perf_counter() - start < 5.0

    start = time.perf_counter()
    code, out = run(["oracle", "-f", "x^8+4x+8", "-p", "2", "--json"])
    assert code == 0 and json.loads(out)["index_valuation"] == 5
    assert time.perf_counter() - start < 2.0


def test_round2_oracle_time():
    """The Round 2 oracle costs time polynomial in n and log p: verify and
    oracle on x^5(x+1)^3+9 at p = 3 and oracle on x^4+101^2x+101^3 at
    p = 101 each finish in 0.5 s (saturation took seconds on both)."""
    import time

    start = time.perf_counter()
    code, out = run(["verify", "-f", "x^8+3x^7+3x^6+x^5+9", "-p", "3"])
    assert code == 0 and ": ok (" in out and "ind=3" in out, out
    assert time.perf_counter() - start < 0.5

    start = time.perf_counter()
    code, out = run(["oracle", "-f", "x^8+3x^7+3x^6+x^5+9", "-p", "3"])
    assert code == 0 and out.endswith("index valuation: 3\n"), out
    assert time.perf_counter() - start < 0.5

    start = time.perf_counter()
    code, out = run(["oracle", "-f", "x^4+10201x+1030301", "-p", "101"])
    assert code == 0 and out.endswith("index valuation: 3\n"), out
    assert time.perf_counter() - start < 0.5


def test_verify_costs_one_round2_step():
    """verify checks the construction by one Round 2 step started from it,
    so on x^32+4x+8 and x^48+4x+8 at p = 2 it takes under a quarter of the
    time of Round 2 from Z[theta] (oracle on the same input), which it used
    to run in full, and prints the same line as before."""
    import time

    for n, index in ((32, 17), (48, 25)):
        seconds = {}
        for command in ("verify", "oracle"):
            start = time.perf_counter()
            code, out = run([command, "-f", f"x^{n}+4x+8", "-p", "2"])
            seconds[command] = time.perf_counter() - start
            assert code == 0, out
            if command == "verify":
                assert out == f"verify x^{n}+4*x+8 at p=2: ok (path generic, ind={index})\n"
            else:
                assert out.endswith(f"index valuation: {index}\n"), out
        assert seconds["verify"] < seconds["oracle"] / 4, (n, seconds)


def _robustness_inputs(rng, count):
    """Parseable inputs with small coefficients, each with a prime p:
    random monic f, a power of a small phi perturbed by multiples of p^k,
    and x^4+ax^2+bx+c with p-power coefficients."""
    X = IntPoly([0, 1])
    out = []
    while len(out) < count:
        p = rng.choice([2, 3, 5, 7])
        shape = len(out) % 3
        if shape == 0:
            n = rng.randint(2, 6)
            f = IntPoly([rng.randint(-50, 50) for _ in range(n)] + [1])
        elif shape == 1:
            if rng.random() < 0.6:
                phi = X + rng.randint(-3, 3)
            else:
                phi = X**2 + rng.randint(-2, 2) * X + rng.randint(-2, 2)
            m = rng.randint(2, 8 // phi.degree)
            pert = IntPoly([rng.randint(-3, 3) for _ in range(m * phi.degree)])
            f = phi**m + p ** rng.randint(1, 3) * pert + p ** rng.randint(1, 4)
        else:
            a, b, c = (rng.choice([-1, 1]) * rng.randint(1, 3) * p ** rng.randint(0, 3)
                       for _ in range(3))
            f = IntPoly.monic_quartic(a, b, c)
        out.append((f.render("x"), str(p)))
    return out


def test_no_parseable_input_faults():
    """Seeded small-coefficient inputs, p-adically degenerate ones among
    them, through basis, factor, verify and oracle: each command answers or
    rejects the input (exit 0 or 2); none mismatches, faults or raises."""
    import random

    for f, p in _robustness_inputs(random.Random(5), 60):
        for command in ("basis", "factor", "verify", "oracle"):
            code, out = run([command, "-f", f, "-p", p])
            assert code in (0, 2), (command, f, p, out)
            assert "MISMATCH" not in out and "internal error" not in out, (command, f, p, out)


def test_unramified_prime_where_f_is_its_own_lift():
    """f mod p irreducible with coefficients in (-p/2, p/2]: the only lift is
    phi = f, whose development is 0 + 1*phi, a principal polygon of one side
    of slope -infinity.  p is inert, the power basis is p-maximal, and
    Round 2 agrees."""
    for f, p in (("x^2+1", 3), ("x^2+1", 7), ("x^2+1", 2**61 - 1), ("x^2-2", 5),
                 ("x^2+x+1", 2), ("x^2+x+1", 5), ("x^3+x+1", 2), ("x^4+x+1", 2)):
        n = parse_poly(f).degree
        power = ", ".join(["1", "θ", "θ²", "θ³"][:n]) + "\n"
        assert run(["basis", "-f", f, "-p", str(p)]) == (
            0, power + "index valuation: 0   (path: generic)\n"), (f, p)
        assert run(["oracle", "-f", f, "-p", str(p)]) == (
            0, power + "index valuation: 0\n"), (f, p)
        assert run(["verify", "-f", f, "-p", str(p)]) == (
            0, f"verify {f} at p={p}: ok (path generic, ind=0)\n"), (f, p)
        assert run(["factor", "-f", f, "-p", str(p)]) == (0, (
            f"phi={f}  slope -inf  residual factor y^1  e=1 f={n}\ncomplete\n")), (f, p)


def test_polygon_where_f_is_its_own_lift():
    """x^2+1 at p=3 is its own lift: a_0 = 0, so the principal polygon is
    one side of slope -infinity and length 1, and it keeps the point at
    abscissa 0 that has no ordinate."""
    assert run(["polygon", "-f", "x^2+1", "-p", "3"]) == (0, (
        "phi = x^2+1\n  side slope -inf  length 1  degree 1  ramification 1\n"))
    code, out = run(["polygon", "-f", "x^2+1", "-p", "3", "--json"])
    polygon = {"points": [[0, None], [1, 0]], "vertices": [[1, 0]],
               "sides": [{"slope": "-inf", "length": 1, "degree": 1, "ramification": 1}]}
    assert code == 0
    assert json.loads(out) == {"phi": "x^2+1", "polygon": polygon, "principal": polygon}


def test_quartic_route_analyses_each_lift_once(monkeypatch):
    """On every quartic-irregular benchmark input, basis --json, basis
    --method quartic --json and verify -f each analyse (f, p) once: no
    polynomial is factored mod p twice, IntPoly.discriminant runs at most
    once per command, and no (F, phi) pair is analysed twice.  The generic
    report, the shift iteration, the case constructions, their regularity
    checks and the decomposition type all read one LocalAnalysis, and a
    transformed quartic carries disc f over.  second_order_basis develops
    F once."""
    from pathlib import Path

    import pintbasis
    from pintbasis import factor, newton, order2

    data = Path(__file__).resolve().parent.parent / "perfbench" / "data"
    rows = []
    for line in (data / "quartic_irregular.txt").read_text().splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            rows.append(tuple(int(t) for t in line.split()))
    assert len(rows) == 168

    analysed, factored, discs = Counter(), Counter(), Counter()
    order2_expands = []  # phi_expand calls made inside each second_order_basis call
    inside = []

    def patch(owner, name, wrapper):
        original = getattr(owner, name)
        for mod in [m for m in vars(pintbasis).values() if type(m) is type(pintbasis)]:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper(original))

    def analysing(original):
        def is_phi_regular(f, phi, p):
            analysed[(f, phi, p)] += 1
            return original(f, phi, p)
        return is_phi_regular

    def factoring(original):
        def factor_mod_p(f, p):
            factored[(f, p)] += 1
            return original(f, p)
        return factor_mod_p

    def expanding(original):
        def phi_expand(f, phi):
            if inside:
                order2_expands[-1] += 1
            return original(f, phi)
        return phi_expand

    discriminant = IntPoly.discriminant

    def counted_discriminant(f):
        discs[f] += 1
        return discriminant(f)

    second_order_basis = order2.second_order_basis

    def counted_second_order_basis(F, p, phi):
        order2_expands.append(0)
        inside.append(F)
        try:
            return second_order_basis(F, p, phi)
        finally:
            inside.pop()

    patch(newton, "is_phi_regular", analysing)
    patch(factor, "factor_mod_p", factoring)
    patch(newton, "phi_expand", expanding)
    monkeypatch.setattr(IntPoly, "discriminant", counted_discriminant)
    monkeypatch.setattr(order2, "second_order_basis", counted_second_order_basis)
    for a, b, c, p in rows:
        f = IntPoly.monic_quartic(a, b, c).render("x")
        for argv in (["basis", "-f", f, "-p", str(p), "--json"],
                     ["basis", "-f", f, "-p", str(p), "--method", "quartic", "--json"],
                     ["verify", "-f", f, "-p", str(p)]):
            for counter in (analysed, factored, discs):
                counter.clear()
            code, out = run(argv)
            assert code == 0, (argv, out)
            twice = [(F.render("x"), phi.render("x")) for (F, phi, _), n in analysed.items()
                     if n > 1]
            twice += [F.render("x") for (F, _), n in factored.items() if n > 1]
            assert not twice, (argv, twice)
            assert sum(discs.values()) <= 1, (argv, [F.render("x") for F in discs])
    assert order2_expands and set(order2_expands) == {1}, order2_expands


def test_second_order_cross_checks_are_program_faults(monkeypatch):
    """The runtime guarantee "second-order indices consistent with the
    dispatch tables' denominators", made to fire.  A wrong tabled nu (T2r6
    through Table 3, T4r4 through Table 5), a wrong 2Y on S51 and on S54
    (T4r16), and a phi-choice that breaks the second-order hypotheses each
    exit 3 with "internal error:"."""
    from pintbasis import order2, quartic_e

    witnesses = {"T2r6": (-4, -4, -4, 2), "T4r4": (14, -44, 49, 2),
                 "S51": (3, 9, 9, 3), "S54": (10, -120, 45, 2)}

    def basis(row):
        a, b, c, p = witnesses[row]
        return run(["basis", "-f", IntPoly.monic_quartic(a, b, c).render("x"), "-p", str(p),
                    "--json"])

    def faults(row):
        code, out = basis(row)
        return code == 3 and out.startswith("internal error:")

    for row in witnesses:
        code, out = basis(row)
        assert code == 0 and row in json.loads(out)["meta"]["rows"], (row, out)

    def wrong_nu(table):
        def q_nu(*args):
            (num, den), rows = table(*args)
            return (num + den, den), rows
        return q_nu

    with monkeypatch.context() as m:
        m.setattr(quartic_e, "table3_q_nu", wrong_nu(quartic_e.table3_q_nu))
        m.setattr(quartic_e, "table5_q_nu", wrong_nu(quartic_e.table5_q_nu))
        assert faults("T2r6") and faults("T4r4")

    second_order_basis = order2.second_order_basis

    def wrong_Y(F, p, phi):
        elements, two_Y = second_order_basis(F, p, phi)
        return elements, two_Y + 2

    with monkeypatch.context() as m:
        m.setattr(order2, "second_order_basis", wrong_Y)
        assert faults("S51") and faults("S54")

    with monkeypatch.context() as m:
        m.setattr(order2, "choose_phi_e1_row6", lambda a, b, c: (IntPoly([-4, 0, 1]), "T7r1"))
        assert faults("T2r6")


def test_deep_second_order_rows_are_checked_at_run_time(monkeypatch):
    """The deep rows give neither nu nor 2Y, so their second-order family is
    checked as verify checks a basis: it must span a ring, and one Round 2
    step started from it must add nothing.  On the T3r6s2 witness, a
    second-order step whose fourth element has its denominator exponent
    moved by -1 (an order that is not p-maximal) or by +1 (a lattice that
    is no ring) exits 3 with "internal error:"."""
    from pintbasis import order2
    from pintbasis.basis import BasisElement

    second_order_basis = order2.second_order_basis
    f = IntPoly.monic_quartic(964, -352, 116)
    code, payload = _basis_json(f, 2)
    assert code == 0 and "T3r6s2" in payload["meta"]["rows"], payload
    for shift in (-1, 1):
        def moved(F, p, phi):
            elements, two_Y = second_order_basis(F, p, phi)
            last = elements[3]
            return (*elements[:3], BasisElement(last.numerator, last.denom_exp + shift)), two_Y

        with monkeypatch.context() as m:
            m.setattr(order2, "second_order_basis", moved)
            code, out = _basis_json(f, 2)
        assert code == 3 and out.startswith("internal error:"), (shift, out)


def test_table_gaps_are_program_faults(monkeypatch):
    """A guarded input reaches a table only under that table's
    preconditions, and the quartic route starts the shift iteration only
    from an s its case chose, so a table that matches no row and a start
    that matches no pattern are broken invariants: exit 3 with "internal
    error:".  T2r1's golden input with no Table 2 rows, and T2r7's, which
    iterates from s = 0, with every starting pattern refused."""
    from pintbasis import quartic, quartic_e

    def quartic_basis(a, b, c, p):
        return run(["basis", "-f", IntPoly.monic_quartic(a, b, c).render("x"), "-p", str(p),
                    "--method", "quartic"])

    for row, a, b, c, p in (("T2r1", -4, -4, -6, 2), ("T2r7", 6, 27, -27, 3)):
        code, out = quartic_basis(a, b, c, p)
        assert code == 0 and f"rows: {row}" in out, (row, out)
    with monkeypatch.context() as m:
        m.setattr(quartic_e, "E1_ROWS", ())
        code, out = quartic_basis(-4, -4, -6, 2)
    assert code == 3 and out.startswith("internal error:"), out
    with monkeypatch.context() as m:
        m.setattr(quartic, "check_initial_conditions", lambda profile, reg: None)
        code, out = quartic_basis(6, 27, -27, 3)
    assert code == 3 and out.startswith("internal error:"), out


def test_deep_second_order_rows_match_round2():
    """The rows T3r6s2-T3r6s9, T5r9s2, T5r9s6 and T5r9s9, where the tables
    give neither nu nor 2Y, pinned by one witness each at p = 2: basis
    --json fires the row and equals Round 2 (oracle --json), element for
    element."""
    witnesses = {"T3r6s2": (964, -352, 116), "T3r6s3": (492, 384, -300),
                 "T3r6s4": (1196, 800, -332), "T3r6s5": (-172, 256, -988),
                 "T3r6s6": (-468, 704, 964), "T3r6s7": (-148, 0, -1084),
                 "T3r6s8": (-300, -1088, 196), "T3r6s9": (12, 896, -828),
                 "T5r9s2": (136, 256, -496), "T5r9s6": (-1080, -256, 528),
                 "T5r9s9": (1448, 0, 400)}
    for row, (a, b, c) in witnesses.items():
        f = IntPoly.monic_quartic(a, b, c)
        code, payload = _basis_json(f, 2)
        assert code == 0 and row in payload["meta"]["rows"], (row, payload)
        code, out = run(["oracle", "-f", f.render("x"), "-p", "2", "--json"])
        oracle = json.loads(out)
        assert code == 0 and payload["path"] == "quartic+order2", (row, payload)
        for key in ("p", "index_valuation", "elements"):
            assert payload[key] == oracle[key], (row, key)


def _basis_json(f, p, *extra):
    code, out = run(["basis", "-f", f.render("x"), "-p", str(p), "--json", *extra])
    return code, json.loads(out) if code == 0 else out


def test_basis_invariant_under_scaling_and_shift():
    """The transforms the quartic tables rely on.  theta -> p*theta turns f
    into x^4+ap^2x^2+bp^3x+cp^4, whose index valuation is exactly 6 more;
    --method quartic reaches it through the E1 normalization.  The shift
    x -> x+m keeps the index, and its basis, moved back to theta and
    triangularized, is f's basis."""
    import random

    from pintbasis.basis import BasisElement, triangularize
    from pintbasis.factor import is_irreducible_quartic
    from pintbasis.intpoly import parse_poly

    def elements(payload):
        return [BasisElement(parse_poly(e["numerator"]), e["denom_exp"])
                for e in payload["elements"]]

    rng = random.Random(41)
    done = shifted = 0
    while done < 40:
        p = rng.choice([2, 3, 5, 7])
        a, b, c = (p ** rng.randint(0, 2) * rng.randint(-20, 20) for _ in range(3))
        f = IntPoly.monic_quartic(a, b, c)
        if not is_irreducible_quartic(a, b, c) or f.discriminant() % p:
            continue
        done += 1
        code, base = _basis_json(f, p)
        assert code == 0, (f.render(), p, base)
        index = base["index_valuation"]
        scaled = IntPoly.monic_quartic(a * p**2, b * p**3, c * p**4)
        for method in ("auto", "quartic"):
            code, payload = _basis_json(scaled, p, "--method", method)
            assert code == 0, (scaled.render(), p, method, payload)
            assert payload["index_valuation"] == index + 6, (f.render(), p, method)
            if method == "quartic":
                assert payload["path"].startswith("E1->"), payload["path"]
        m = rng.choice([-1, 1]) * rng.randint(1, 2 * p)
        g = f.shift(m)
        code, payload = _basis_json(g, p)
        if code == 2 and "inseparable residual polynomial" in payload:  # not p-regular
            continue
        assert code == 0, (g.render(), p, payload)
        assert payload["index_valuation"] == index, (f.render(), m, p)
        moved = [BasisElement(e.numerator.shift(-m), e.denom_exp) for e in elements(payload)]
        assert triangularize(moved, p, 4).elements == tuple(elements(base)), (f.render(), m, p)
        shifted += 1
    assert shifted >= 30, shifted


class _ReadRecorder:
    """The values of a parsed Namespace, recording each name read."""

    def __init__(self, namespace):
        self.values = vars(namespace)
        self.read = set()

    def __getattr__(self, name):
        if name not in self.values:
            raise AttributeError(name)
        self.read.add(name)
        return self.values[name]


def test_every_cli_option_is_read(tmp_path):
    """Every option a subcommand defines is read by the function it runs on
    at least one representative argument list, so no option is ignored."""
    import argparse

    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    argvs = {
        "classify": [["classify", "-f", "x^4+x^2+50", "-p", "5"]],
        "polygon": [["polygon", "-f", "x^4+2x+4", "-p", "2", "--json"],
                    ["polygon", "-f", "x^4+2x+4", "-p", "2", "--phi", "x",
                     "--svg", str(tmp_path / "polygon.svg")]],
        "basis": [["basis", "-f", "x^4+x^2+50", "-p", "5", "--method", "generic", "--json"]],
        "factor": [["factor", "-f", "x^4-2", "-p", "2", "--json"]],
        "verify": [["verify", "-f", "x^4+x^2+50", "-p", "5"],
                   ["verify", "--corpus", "2", "--seed", "3"]],
        "oracle": [["oracle", "-f", "x^4-2", "-p", "2", "--json"]],
    }
    assert set(argvs) == set(subparsers)
    for command, sp in subparsers.items():
        dests = {a.dest for a in sp._actions if a.dest != "help"}
        read = set()
        for argv in argvs[command]:
            args = _ReadRecorder(parser.parse_args(argv))
            assert args.func(args, lambda line: None) == 0, argv
            read |= args.read
        assert dests <= read, (command, sorted(dests - read))
