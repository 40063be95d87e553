import io
import json
from collections import Counter

from pintbasis.cli import build_parser, main


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
    code, out = run(["verify", "-f", "x^4+4x^2+4", "-p", "2"])
    assert code == 2  # reducible


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
        ["basis", "-f", "x^4+x^2+50", "-p", "5", "--seed", "3"],
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


def test_basis_json_factors_and_guards_once(monkeypatch):
    import pintbasis
    from pintbasis import factor, quartic
    from pintbasis.basis import decomposition_type, p_integral_basis_regular
    from pintbasis.intpoly import IntPoly, parse_poly

    argv = ["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"]
    _, out = run(argv)
    f = parse_poly("x^4+x^2+50")
    expected = p_integral_basis_regular(f, 5).to_json(decomposition_type(f, 5))
    expected["path"] = "generic"
    assert json.loads(out) == expected

    calls = Counter()

    def counting(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    modules = [m for m in vars(pintbasis).values() if type(m) is type(pintbasis)]
    for owner, name in ((factor, "factor_mod_p"), (factor, "sanity_check_irreducible"),
                        (quartic, "make_context")):
        original = getattr(owner, name)
        wrapper = counting(name, original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, wrapper)
    monkeypatch.setattr(IntPoly, "discriminant",
                        counting("discriminant", IntPoly.discriminant))
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
