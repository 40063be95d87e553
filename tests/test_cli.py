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
# multiple factor, and an (f, p) with three lifts
FACTOR_GOLDEN = {
    ("x^4+2x^2+10", "3"): [
        ("x^2+1", "-1", "y + (t)", 1, 1, 2),
        ("x^2+1", "-1", "y + (2*t)", 1, 1, 2),
    ],
    ("x^4+3x^2+18", "3"): [("x", "-1/2", "y^2 + y + 2", 1, 2, 2)],
    ("x^4+6x^3+5x^2+24x+13", "3"): [("x^2+1", "-1", "y^2 + (2*t+1)*y + (2*t+1)", 1, 1, 4)],
    ("x^4-50x^2-55x-1", "2"): [
        ("x^4+x+1", "-1", "y + (t^2+1)", 1, 1, 4),
    ],
    ("x^4+x^2+50", "5"): [
        ("x", "-1", "y^2 + 2", 1, 1, 2),
        ("x+2", "-1", "y + 1", 1, 1, 1),
        ("x-2", "-1", "y + 4", 1, 1, 1),
    ],
    ("x^6+4", "2"): [("x", "-1/3", "y + 1", 2, None, None)],
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
            {"phi": phi, "slope": slope, "residual_factor": factor,
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
    # commands do
    for command in ("basis", "factor", "verify", "oracle"):
        assert run([command, "-f", "x^4+4x^2+4", "-p", "2"]) == (
            2, "error: x^4+4*x^2+4 factors over Q\n"), command
        assert run([command, "-f", "x^5-3x^4+x^2-2x-3", "-p", "2"]) == (
            2, "error: x^5-3*x^4+x^2-2*x-3 has a rational root\n"), command


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
    # shape x^4+ax^2+bx+c, so only the repeated-factor guard catches them
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
    """A construction that differs from Round 2 makes verify exit 1 with
    MISMATCH and a FAILED line per failing check, and every other check is
    evaluated on the construction itself: a basis that spans no ring fails
    ring closure, and a wrong index fails the disc identity, while Round 2's
    own disc identity holds."""
    from pintbasis import cli
    from pintbasis.basis import BasisElement, PIntegralBasis, power_basis

    power = power_basis(5, 4).elements
    not_a_ring = (power[0], BasisElement(IntPoly([0, 1]), 1), power[2], power[3])
    cases = [
        (PIntegralBasis(5, power, 0), {"construction == oracle"}),
        (PIntegralBasis(5, not_a_ring, 1), {"construction == oracle", "ring closed"}),
        (PIntegralBasis(5, power, 1), {"construction == oracle", "disc identity"}),
    ]
    for wrong, failed in cases:
        monkeypatch.setattr(cli, "_regular_basis", lambda f, p, report, wrong=wrong: wrong)
        code, out = run(["verify", "-f", "x^4+x^2+50", "-p", "5"])
        assert code == 1 and ": MISMATCH (path generic" in out, out
        lines = out.splitlines()
        assert {line[len("  FAILED: "):] for line in lines
                if line.startswith("  FAILED: ")} == failed, out
        assert lines[-1] == "  oracle:      1, θ, θ², (θ³+θ)/5", out


def test_verify_develops_each_lift_three_times(monkeypatch):
    """On agreeing bases verify runs one p-regularity report per (f, p),
    which serves the generic route and the decomposition type: three
    developments per lift (the report, the generators and the phi-index;
    a separate decomposition made four), and ring closure comes from Round
    2's final table with no is_ring_closed call.  disc f is computed once:
    by verify for the quartic x^4+ax^2+bx+c, which the guard decides
    exactly, and by the guard's repeated-factor check for the other shapes,
    among them a degree-8 f whose degree patterns mod small primes leave
    is_irreducible undecided."""
    from pintbasis import factor, newton, oracle

    inputs = [(f, p, len(factor.factor_mod_p(parse_poly(f), int(p))))
              for f, p in (("x^4+x^2+50", "5"), ("x^8+3x^7+3x^6+x^5+9", "3"),
                           ("x^5+2x+2", "2"), ("x^8-40x^6+352x^4-960x^2+576", "5"))]
    assert [lifts for _, _, lifts in inputs] == [3, 2, 1, 2]
    assert factor.is_irreducible(parse_poly(inputs[-1][0])) is None
    calls = _count_calls(monkeypatch, [
        (newton, "phi_expand"), (newton, "is_p_regular"), (oracle, "is_ring_closed"),
        (factor, "factor_mod_p"), (IntPoly, "discriminant")])
    for f, p, lifts in inputs:
        calls.clear()
        code, out = run(["verify", "-f", f, "-p", p])
        assert code == 0 and ": ok (path generic" in out, out
        assert calls["phi_expand"] == 3 * lifts, (f, calls)
        assert calls["is_p_regular"] == calls["factor_mod_p"] == 1, (f, calls)
        assert calls["is_ring_closed"] == 0, (f, calls)
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
    """The Round 2 oracle costs time polynomial in n and log p: verify on
    x^5(x+1)^3+9 at p = 3 and oracle on x^4+101^2x+101^3 at p = 101 each
    finish in 0.5 s (saturation took seconds on both)."""
    import time

    start = time.perf_counter()
    code, out = run(["verify", "-f", "x^8+3x^7+3x^6+x^5+9", "-p", "3"])
    assert code == 0 and ": ok (" in out and "ind=3" in out, out
    assert time.perf_counter() - start < 0.5

    start = time.perf_counter()
    code, out = run(["oracle", "-f", "x^4+10201x+1030301", "-p", "101"])
    assert code == 0 and out.endswith("index valuation: 3\n"), out
    assert time.perf_counter() - start < 0.5


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
