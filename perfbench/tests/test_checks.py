"""The benchmark's own tests: its checkers reject corrupted answers, Ore's
closed form agrees with saturation, and the tracer is transparent.

    python3 -m pytest perfbench/tests -q
"""

import io
import json
import random

import pytest

import checks
import inputs
from pintbasis import cli, oracle
from pintbasis.intpoly import IntPoly
from tracer import Tracer


def _run(argv):
    buf = io.StringIO()
    rc = cli.main(argv, stdout=buf)
    return rc, buf.getvalue()


def _corruptions(text):
    """The answer with one denom_exp raised by 1, with one numerator
    coefficient changed, and replaced by the power basis."""
    payload = json.loads(text)
    n = len(payload["elements"])
    top = max(range(n), key=lambda i: payload["elements"][i]["denom_exp"])
    assert payload["elements"][top]["denom_exp"] > 0

    raised = json.loads(text)
    raised["elements"][top]["denom_exp"] += 1
    changed = json.loads(text)
    changed["elements"][top]["numerator"] += "+1"
    power = json.loads(text)
    power["elements"] = [{"numerator": "1" if k == 0 else f"x^{k}", "denom_exp": 0}
                         for k in range(n)]
    power["index_valuation"] = 0
    power_same_index = dict(power, index_valuation=payload["index_valuation"])
    return [json.dumps(p) for p in (raised, changed, power, power_same_index)]


def test_oracle_checker_rejects_corrupted_answers():
    f, p = inputs.quartic(1, 0, 50), 5
    rc, text = _run(["basis", "-f", inputs.render(f), "-p", str(p), "--json"])
    reference = oracle.saturate(IntPoly(f), p)
    assert rc == 0 and reference.index_valuation > 0
    assert checks.check_oracle(text, f, p, reference) is None
    for bad in _corruptions(text):
        assert checks.check_oracle(bad, f, p, reference) is not None


def test_ore_checker_rejects_corrupted_answers():
    f, index = inputs.family([((1, 0, 1), 3), ((-1, 1), 3)], 2, 1, 3)
    rc, text = _run(["basis", "-f", inputs.render(f), "-p", "3", "--json"])
    assert rc == 0 and index == 3
    assert checks.check_ore(text, f, 3, index) is None
    for bad in _corruptions(text):
        assert checks.check_ore(bad, f, 3, index) is not None


def test_verdict_checker_rejects_mismatches():
    f, index = inputs.family([((0, 1), 3)], 2, 1, 2)
    rc, text = _run(["verify", "-f", inputs.render(f), "-p", "2"])
    assert checks.check_verdict(text, rc, index) is None
    assert checks.check_verdict(text.replace(": ok", ": MISMATCH"), rc, index) is not None
    assert checks.check_verdict(text, 1, index) is not None
    assert checks.check_verdict(text, rc, index + 1) is not None


SMALL_FAMILY = [
    (2, 1, ((1, 3),)), (2, 3, ((1, 2),)), (2, 3, ((1, 4),)), (2, 1, ((2, 2),)),
    (2, 1, ((1, 2), (1, 3))), (2, 3, ((1, 2), (2, 1))), (3, 2, ((1, 3),)),
    (3, 4, ((1, 3),)), (3, 1, ((2, 2),)), (3, 2, ((1, 3), (1, 3))), (3, 3, ((2, 2),)),
]


@pytest.mark.parametrize("p,k,shape", SMALL_FAMILY)
def test_ore_closed_form_matches_saturation(p, k, shape):
    f, index = inputs.family_member(random.Random(0), p, k, shape)
    assert len(f) - 1 <= 6
    assert oracle.saturate(IntPoly(f), p).index_valuation == index


def test_family_refuses_parameters_outside_the_formula():
    # (x^2+1)^3 (x-1)^2 + 9 at p = 3 has index 3; with gcd(2, 2) = 2 the
    # formula would give 2
    with pytest.raises(ValueError, match="gcd"):
        inputs.family([((1, 0, 1), 3), ((-1, 1), 2)], 2, 1, 3)
    with pytest.raises(ValueError):
        inputs.family([((0, 1), 3)], 2, 3, 3)  # p divides c
    with pytest.raises(ValueError):
        inputs.family([((0, 1), 3), ((3, 1), 2)], 1, 1, 3)  # x and x+3 agree mod 3
    with pytest.raises(ValueError):
        inputs.family([((-1, 0, 1), 3)], 1, 1, 3)  # x^2-1 is reducible
    with pytest.raises(ValueError):
        inputs.family([((0, 1), 1), ((1, 0, 1), 2)], 1, 1, 3)  # linear phi, m = 1


def test_workload_inputs_depend_only_on_the_seed():
    for make in inputs.WORKLOADS.values():
        assert make(7) == make(7)
    assert inputs.generic_ladder(7) != inputs.generic_ladder(8)
    assert inputs.verify_mixed(7) != inputs.verify_mixed(8)


def test_tracer_is_transparent_and_restores_the_program():
    argv = ["basis", "-f", "x^4+x^2+50", "-p", "5", "--json"]
    plain = _run(argv)
    before = (cli.main, IntPoly.discriminant)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            assert _run(argv) == plain
        finally:
            tracer.uninstall()
        metrics = tracer.metrics(1, 1.0)
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert (cli.main, IntPoly.discriminant) == before
    assert counts[0] == counts[1]
    assert counts[0]["factor.factor_mod_p.calls"] >= 1
    assert counts[0]["fq.elem.calls"] > 0
