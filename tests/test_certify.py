import itertools
import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc.b3 import NotConjugate, Unresolved, brute_force_conjugacy_oracle
from braidcalc.burau import _packed_trace
from braidcalc.certify import (
    SWEEP_MAX,
    VERDICT_CERTIFIED,
    FamilyParams,
    _alexander_equal,
    certify,
    family_words,
    report_to_json,
    sweep,
    verdict,
)
from braidcalc.links import alexander_polynomial
from braidcalc.words import BraidWord, _field_values, format_word, parse_word, sigma_power


def test_family_words_frozen():
    plus, minus = family_words(FamilyParams(2, 3, 4))
    assert format_word(plus) == "s1^5 s2^6 s1^8 s2^-1"
    assert format_word(minus) == "s1^5 s2^-1 s1^8 s2^6"


def test_family_words_match_direct_construction():
    for p, q, r in [(2, 4, 3), (3, 2, 5), (5, 7, 2)]:
        plus, minus = family_words(FamilyParams(p, q, r))
        u, v, w = 2 * p + 1, 2 * q, 2 * r
        direct_plus = (
            sigma_power(3, 1, u) * sigma_power(3, 2, v)
            * sigma_power(3, 1, w) * sigma_power(3, 2, -1)
        )
        direct_minus = (
            sigma_power(3, 1, u) * sigma_power(3, 2, -1)
            * sigma_power(3, 1, w) * sigma_power(3, 2, v)
        )
        assert plus == direct_plus
        assert minus == direct_minus


def test_family_beta_formula():
    for p, q, r in [(2, 4, 3), (4, 2, 6), (6, 8, 7)]:
        plus, minus = family_words(FamilyParams(p, q, r))
        assert plus.bennequin() == minus.bennequin() == 2 * p + 2 * q + 2 * r - 3


def test_admissibility():
    assert not FamilyParams(2, 4, 3).violations()
    assert FamilyParams(2, 3, 3).violations()
    assert FamilyParams(1, 3, 4).violations()
    assert FamilyParams(2, 3, 4).violations() == ("p+1 = q",)
    assert FamilyParams(2, 3, 3).violations()[0] == "q = r"
    assert FamilyParams(1, 3, 4).violations()[0] == "p <= 1"


def test_certify_admissible_triple():
    report = certify(FamilyParams(2, 4, 3))
    assert report.verdict == VERDICT_CERTIFIED
    assert report.certified
    checks = report.checks
    assert checks.beta_plus == checks.beta_minus == 15
    assert checks.conjugacy_distinct
    assert checks.not_unknot and checks.not_torus
    assert checks.kolee_single_sign
    assert checks.obstruction.component_table == ((1, -1, -3), (2, -3, -1))
    assert checks.obstruction.swap_detected


def test_certify_condition_failures():
    assert certify(FamilyParams(2, 3, 3)).verdict == "FAILED(conditions: q = r)"
    assert certify(FamilyParams(1, 3, 4)).verdict == "FAILED(conditions: p <= 1)"
    # all checks still run on inadmissible input
    report = certify(FamilyParams(2, 3, 3))
    assert report.checks.beta_plus == report.checks.beta_minus


def test_certify_conjugate_diagonal_fails_honestly():
    # q = p+1 collapses the pair to one conjugacy class, so certification
    # must fail even though the betas and Alexander polynomials agree
    report = certify(FamilyParams(2, 3, 4))
    assert not report.checks.conjugacy_distinct
    assert report.verdict == "FAILED(conditions: p+1 = q)"
    forced = certify(FamilyParams(3, 4, 2))
    assert not forced.checks.conjugacy_distinct


def _alexander_branch(a, b):
    """Which case of ``_alexander_equal`` the pair reaches."""
    if a.strands != 3 or b.strands != 3:
        return "strands"
    ka, kb = _packed_trace(a), _packed_trace(b)
    if a.exponent_sum() != b.exponent_sum():
        return "exponent sums, same packed trace" if ka == kb else "exponent sums"
    if ka[1:] != kb[1:]:
        return "low or width"
    return "same packed trace" if ka == kb else "unequal integers"


def test_alexander_equal_matches_the_polynomials():
    rng = random.Random(22)

    def word(strands, syllables, exponents):
        letters = []
        for _ in range(rng.randint(0, syllables)):
            e = rng.choice(exponents)
            letters += [(rng.randint(1, strands - 1), 1 if e > 0 else -1)] * abs(e)
        return BraidWord(strands, tuple(letters))

    # odd powers of the half twist have trace 0, so conjugates of them
    # share packed traces across exponent sums
    half = parse_word("s1 s2 s1")
    twists = []
    for _ in range(60):
        k = rng.choice((-3, -1, 1, 3))
        core = BraidWord(3, (half if k > 0 else half.inverse()).letters * abs(k))
        twists.append(core.conjugated_by(word(3, 3, (-2, -1, 1, 2))))
    pool = [word(3, 5, (-3, -2, -1, 1, 2, 3)) for _ in range(200)]
    pairs = [
        (a, b)
        for a, b in itertools.combinations(pool, 2)
        if a.exponent_sum() == b.exponent_sum() or _packed_trace(a) == _packed_trace(b)
    ]
    pairs += itertools.combinations(twists, 2)
    pairs += [tuple(rng.sample(pool, 2)) for _ in range(200)]
    # family pairs share their exponent sum; some walks end at other widths
    pairs += [
        family_words(FamilyParams(*[rng.randint(2, 24) for _ in range(3)])) for _ in range(100)
    ]
    pairs += [(word(n, 5, (-2, -1, 1, 2)), word(n, 5, (-2, -1, 1, 2))) for n in (2, 4, 5)]
    reached = Counter()
    for a, b in pairs:
        reached[_alexander_branch(a, b)] += 1
        assert _alexander_equal(a, b) == (alexander_polynomial(a) == alexander_polynomial(b))
    assert set(reached) == {
        "strands",
        "exponent sums",
        "exponent sums, same packed trace",
        "low or width",
        "unequal integers",
        "same packed trace",
    }


@pytest.mark.parametrize(
    "field, expected",
    [
        ("beta_formula_ok", "FAILED(beta_formula)"),
        ("alexander_equal", "FAILED(alexander_equal)"),
        ("conjugacy_distinct", "FAILED(conjugacy_distinct)"),
        ("not_unknot", "FAILED(not_unknot)"),
        ("not_torus", "FAILED(not_torus)"),
        ("kolee_single_sign", "FAILED(kolee_single_sign)"),
        ("obstruction", "FAILED(obstruction)"),
    ],
)
def test_single_failing_check_names_the_verdict(field, expected):
    # no FamilyParams reaches these verdicts, so fail one check by hand
    params = FamilyParams(2, 4, 3)
    checks = certify(params).checks
    if field == "obstruction":
        obstruction = checks.obstruction
        failed = type(obstruction)(**{**_field_values(obstruction), "swap_detected": False})
    else:
        failed = False
    assert verdict(params, type(checks)(**{**_field_values(checks), field: failed})) == expected
    assert verdict(params, checks) == VERDICT_CERTIFIED


def test_sweep_small_bounds():
    assert sweep(2, 2, 2) == []
    reports = sweep(3, 3, 3)
    admissible = [
        (p, q, r)
        for p in (2, 3)
        for q in (2, 3)
        for r in (2, 3)
        if not FamilyParams(p, q, r).violations()
    ]
    assert [(rep.params.p, rep.params.q, rep.params.r) for rep in reports] == admissible
    assert all(rep.certified for rep in reports)
    with pytest.raises(ValueError):
        sweep(1, 5, 5)


def test_sweep_cap():
    """Each bound past the cap is refused before anything is certified."""
    for bounds in ((SWEEP_MAX + 1, 2, 2), (2, SWEEP_MAX + 1, 2), (2, 2, 10**9)):
        with pytest.raises(ValueError, match=f"sweep bounds must be <= {SWEEP_MAX}"):
            sweep(*bounds)


def test_sweep_five_all_certified():
    reports = sweep(5, 5, 5)
    assert reports and all(rep.verdict == VERDICT_CERTIFIED for rep in reports)
    for rep in reports:
        expected = 2 * (rep.params.p + rep.params.q + rep.params.r) - 3
        assert rep.checks.beta_plus == rep.checks.beta_minus == expected
        assert rep.checks.obstruction.component_table[0] == (1, -1, -3)


def test_report_json_deterministic():
    a = report_to_json(certify(FamilyParams(2, 4, 3)))
    b = report_to_json(certify(FamilyParams(2, 4, 3)))
    assert a == b
    payload = json.loads(a)
    assert payload["verdict"] == VERDICT_CERTIFIED
    assert payload["tx_plus"] == "s1^5 s2^8 s1^6 s2^-1"
    assert payload["checks"]["obstruction"]["component_table"] == [[1, -1, -3], [2, -3, -1]]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=-1, max_value=7),
    st.integers(min_value=-1, max_value=7),
    st.integers(min_value=-1, max_value=7),
)
def test_certified_verdict_iff_every_check_passes(p, q, r):
    report = certify(FamilyParams(p, q, r))
    checks = report.checks
    all_pass = (
        checks.conditions_ok
        and checks.beta_formula_ok
        and checks.alexander_equal
        and checks.conjugacy_distinct
        and checks.not_unknot
        and checks.not_torus
        and checks.kolee_single_sign
        and checks.obstruction.swap_detected
    )
    assert report.certified == all_pass
    assert (report.verdict == VERDICT_CERTIFIED) == all_pass


def _assert_family_checks_hold(params, unknot):
    """The oracle separates the pair, and tx_plus's Alexander polynomial
    differs from the unknot's and from those of both torus candidates
    s1^(e - m) s2^m, m = +-1; ``certify`` reports the three checks."""
    plus, minus = family_words(params)
    assert isinstance(brute_force_conjugacy_oracle(plus, minus), NotConjugate), params
    e = plus.exponent_sum()
    delta = alexander_polynomial(plus)
    assert delta != unknot, params
    for m in (1, -1):
        torus = sigma_power(3, 1, e - m) * sigma_power(3, 2, m)
        assert delta != alexander_polynomial(torus), (params, m)
    checks = certify(params).checks
    assert checks.conjugacy_distinct and checks.not_unknot and checks.not_torus, params


def test_family_checks_hold_by_routes_without_normal_forms():
    """Seeded admissible triples up to 24.  ``conjugacy_distinct``,
    ``not_unknot`` and ``not_torus`` read normal forms; the oracle and the
    Alexander polynomial confirm them without one.  The oracle separates
    the pair, and tx_plus's polynomial differs from the unknot's (s1 s2)
    and from those of both torus candidates s1^(e - m) s2^m, m = +-1, with
    e its exponent sum.  An unequal polynomial proves the closures differ."""
    rng = random.Random(24)
    triples = set()
    while len(triples) < 200:
        params = FamilyParams(*(rng.randint(2, 24) for _ in range(3)))
        if not params.violations():
            triples.add(params)
    unknot = alexander_polynomial(parse_word("n=3 s1 s2"))
    for params in sorted(triples, key=lambda f: (f.p, f.q, f.r)):
        _assert_family_checks_hold(params, unknot)


@pytest.mark.slow
def test_family_checks_hold_by_routes_without_normal_forms_on_every_triple():
    """All 11 154 admissible triples with p, q, r <= 24, and the letter
    cap.  On every triple in 2..12, admissible or not, the oracle agrees
    with ``conjugacy_distinct`` wherever it decides.  It leaves 99 of those
    1 331 rows ``Unresolved``: every one has p + 1 = q, and their
    conjugators are longer than ``CONJUGATOR_BOUND``."""
    unknot = alexander_polynomial(parse_word("n=3 s1 s2"))
    admissible = 0
    for p, q, r in itertools.product(range(2, 25), repeat=3):
        params = FamilyParams(p, q, r)
        if not params.violations():
            admissible += 1
            _assert_family_checks_hold(params, unknot)
    assert admissible == 11_154
    _assert_family_checks_hold(FamilyParams(166_000, 166_002, 166_001), unknot)
    unresolved = []
    for p, q, r in itertools.product(range(2, 13), repeat=3):
        params = FamilyParams(p, q, r)
        outcome = brute_force_conjugacy_oracle(*family_words(params))
        if isinstance(outcome, Unresolved):
            unresolved.append(params)
            continue
        distinct = certify(params).checks.conjugacy_distinct
        assert distinct == isinstance(outcome, NotConjugate), (params, outcome)
    assert len(unresolved) == 99
    assert all(f.p + 1 == f.q for f in unresolved)


def test_submodule_import_binds_the_module():
    """The package root re-exports nothing, so no function shadows its submodule."""
    import braidcalc.certify as module

    assert module.certify is certify
    assert module.certify(FamilyParams(2, 5, 3)).certified
