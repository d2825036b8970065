"""End-to-end checks for the package's headline guarantees.

Each test freezes one externally visible promise: the certified family
sweep, the link obstruction table, conjugacy soundness against the
brute-force oracle, the self-linking decomposition, transversal tower
invariance, template consistency (same link on both sides, with the
exponent-sum change each move kind implies), and exceptional-class
detection.
"""

import json
import random
import time

import pytest

from braidcalc import moves as mv
from braidcalc import templates as tmpl
from braidcalc.b3 import (
    Conjugate,
    GenericUnique,
    TorusKnot2k,
    UnknotClass,
    Unresolved,
    brute_force_conjugacy_oracle,
    classify_closure,
    conjugate_in_B3,
    normal_form,
)
from braidcalc.certify import FamilyParams, family_words
from braidcalc.cli import main
from braidcalc.links import alexander_polynomial, components, linking_matrix
from braidcalc.words import BraidWord, parse_word, sigma_power

from conftest import find_exchange_splits, reduced_corpus


def admissible_triples(bound: int) -> list[tuple[int, int, int]]:
    return [
        (p, q, r)
        for p in range(2, bound + 1)
        for q in range(2, bound + 1)
        for r in range(2, bound + 1)
        if p + 1 != q and q != r
    ]


def random_word(rng: random.Random, strands: int, length: int) -> BraidWord:
    if strands < 2:
        return BraidWord(strands, ())
    letters = tuple(
        (rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length)
    )
    return BraidWord(strands, letters)


def test_family_sweep_certifies_every_admissible_triple(capsys):
    start = time.perf_counter()
    code = main(["sweep", "--max", "6", "--json"])
    elapsed = time.perf_counter() - start
    reports = json.loads(capsys.readouterr().out)

    assert code == 0
    assert elapsed < 5.0
    got = [(r["params"]["p"], r["params"]["q"], r["params"]["r"]) for r in reports]
    assert got == admissible_triples(6)
    for report in reports:
        p, q, r = (report["params"][k] for k in "pqr")
        checks = report["checks"]
        assert report["verdict"] == "CERTIFIED_NOT_TRANSVERSALLY_SIMPLE"
        assert checks["beta_plus"] == checks["beta_minus"] == 2 * p + 2 * q + 2 * r - 3
        assert checks["beta_formula_ok"]
        assert checks["conjugacy_distinct"]
        assert checks["kolee_single_sign"]
        assert checks["obstruction"]["swap_detected"]
        for word in family_words(FamilyParams(p, q, r)):
            assert isinstance(classify_closure(normal_form(word)), GenericUnique)


def test_link_obstruction_table_is_exact():
    template = tmpl.flype_template(sign=-1)
    assignment = {
        "P": parse_word("n=2 s1^3"),
        "R": parse_word("n=2 s1^4"),
        "Q": parse_word("n=2 s1^-5"),
    }
    table = tmpl.per_component_beta_delta(template, assignment)
    assert table == [(1, -1, -3), (2, -3, -1)]


def test_conjugacy_matches_oracle_on_sampled_pairs():
    corpus = reduced_corpus(6)
    rng = random.Random(20260815)
    start = time.perf_counter()
    for _ in range(10_000):
        w1, w2 = rng.choice(corpus), rng.choice(corpus)
        outcome = brute_force_conjugacy_oracle(w1, w2)
        assert not isinstance(outcome, Unresolved), (str(w1), str(w2))
        assert conjugate_in_B3(w1, w2) == isinstance(outcome, Conjugate), (str(w1), str(w2))
    assert time.perf_counter() - start < 10.0


@pytest.mark.slow
def test_conjugacy_matches_oracle_exhaustively():
    # conjugate_in_B3 is decided by normal forms once the exponent sums
    # agree, and equal forms have equal sums, so precomputing one form
    # per corpus word covers every pair; Conjugate outcomes additionally
    # go back through the public decision function.
    corpus = reduced_corpus(6)
    forms = [normal_form(w) for w in corpus]
    for i, w1 in enumerate(corpus):
        for j, w2 in enumerate(corpus):
            outcome = brute_force_conjugacy_oracle(w1, w2)
            assert not isinstance(outcome, Unresolved), (str(w1), str(w2))
            conjugate = isinstance(outcome, Conjugate)
            assert (forms[i] == forms[j]) == conjugate, (str(w1), str(w2))
            if conjugate:
                assert conjugate_in_B3(w1, w2)


def test_bennequin_decomposes_over_components():
    rng = random.Random(41)
    for _ in range(100_000):
        word = random_word(rng, rng.randint(2, 6), rng.randint(0, 30))
        parts = components(word)
        total = sum(c.bennequin for c in parts) + 2 * linking_matrix(word).total()
        assert word.bennequin() == total, str(word)


def random_transversal_tower(rng: random.Random) -> tuple[list[BraidWord], tuple[mv.Move, ...]]:
    """The moves of a random transversal tower and every state they pass."""
    states = [random_word(rng, rng.randint(2, 4), rng.randint(1, 8))]
    moves: list[mv.Move] = []
    for _ in range(rng.randint(1, 20)):
        word = states[-1]
        options: list[mv.Move] = [mv.Stabilize(1)]
        try:
            mv.Destabilize(1).apply(word)
        except mv.MoveError:
            pass
        else:
            options.append(mv.Destabilize(1))
        splits = find_exchange_splits(word)
        if splits:
            options.append(mv.Exchange(rng.choice(splits)))
        options.append(
            mv.ConjugateBy(random_word(rng, word.strands, rng.randint(1, 3)))
        )
        move = rng.choice(options)
        states.append(move.apply(word))
        moves.append(move)
    return states, tuple(moves)


def test_transversal_towers_validate_and_reject_negative_stabilization():
    rng = random.Random(5)
    for _ in range(1000):
        states, moves = random_transversal_tower(rng)
        validation = mv.validate_tower("transversal", states[0], moves)
        assert validation.ok, validation.problems
        betas = {state.bennequin() for state in states}
        assert len(betas) == 1
        c = validation.counts
        assert (c.s_plus - c.s_minus) - (c.v_plus - c.v_minus) == 0

        bad_validation = mv.validate_tower("transversal", states[0], moves + (mv.Stabilize(-1),))
        assert not bad_validation.ok
        assert any(code == "illegal_move_for_mode" for code, _ in bad_validation.problems)


# (description name, params, seed); the seeds are literal strings, so the
# 1000 assignments drawn per row never change with the code's reprs
BUILTIN_TEMPLATES = (
    ("flype", {"sign": 1}, "Flype(sign=1)"),
    ("flype", {"sign": -1}, "Flype(sign=-1)"),
    ("exchange", {"weight": 1}, "Exchange(weight=1)"),
    ("exchange", {"weight": 2}, "Exchange(weight=2)"),
    ("exchange", {"weight": 3}, "Exchange(weight=3)"),
    ("destabilize", {"sign": 1, "weight": 1}, "Destabilize(sign=1, weight=1)"),
    ("destabilize", {"sign": -1, "weight": 1}, "Destabilize(sign=-1, weight=1)"),
    ("destabilize", {"sign": 1, "weight": 2}, "Destabilize(sign=1, weight=2)"),
    ("destabilize", {"sign": -1, "weight": 2}, "Destabilize(sign=-1, weight=2)"),
)


def random_assignment(rng: random.Random, template: tmpl.Template) -> dict[str, BraidWord]:
    return {
        block_id: random_word(rng, width, rng.randint(0, 6))
        for block_id, width in sorted(template.block_widths().items())
    }


@pytest.mark.parametrize(
    "name, params, seed",
    [pytest.param(*row, id=row[2]) for row in BUILTIN_TEMPLATES],
)
def test_template_sides_share_exponent_sum_and_alexander(name, params, seed):
    # Flype and exchange keep the strand count and the exponent sum.  A
    # destabilization is a Markov move: its plus side is P s_k^sign on k+1
    # strands and its minus side is P on k, so it drops one strand and
    # one crossing, and the exponent sums differ by exactly that sign.
    # Both sides close to the same link, so Alexander agrees for every kind.
    template = tmpl.CONSTRUCTORS[name](**params)
    rng = random.Random(seed)
    if name == "destabilize":
        strand_drop, exponent_drop = 1, params["sign"]
    else:
        strand_drop, exponent_drop = 0, 0
    for _ in range(1000):
        assignment = random_assignment(rng, template)
        plus = tmpl.instantiate(template.plus, assignment)
        minus = tmpl.instantiate(template.minus, assignment)
        assert plus.strands - minus.strands == strand_drop, seed
        assert plus.exponent_sum() - minus.exponent_sum() == exponent_drop, seed
        assert alexander_polynomial(plus) == alexander_polynomial(minus), seed


def test_exceptional_class_detection_table():
    assert classify_closure(normal_form(parse_word("n=3 s1 s2"))) == UnknotClass((1, 1))
    assert classify_closure(normal_form(parse_word("n=3 s1^-1 s2^-1"))) == UnknotClass((-1, -1))
    assert classify_closure(normal_form(parse_word("n=3 s1 s2^-1"))) == UnknotClass((1, -1))
    for k in (*range(2, 10), *range(-9, -1)):
        for mu in (1, -1):
            word = sigma_power(3, 1, k) * sigma_power(3, 2, mu)
            assert classify_closure(normal_form(word)) == TorusKnot2k(k, mu), (k, mu)
    for triple in admissible_triples(6):
        for word in family_words(FamilyParams(*triple)):
            assert isinstance(classify_closure(normal_form(word)), GenericUnique), triple
