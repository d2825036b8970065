from __future__ import annotations

import hashlib
import random
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidcalc import b3
from braidcalc.b3 import (
    B3NormalForm,
    Conjugate,
    GenericUnique,
    NotConjugate,
    TorusKnot2k,
    UnknotClass,
    Unresolved,
    brute_force_conjugacy_oracle,
    classify_closure,
    conjugate_in_B3,
    kolee_both_signs,
    normal_form,
    _FP_GENS,
    _FP_PRIME,
    _FP_T,
    _PSL_GEN,
    _S_EXP,
    _min_rotation,
    _psl2z_class,
    _reduce_z2z3,
    _su_class,
)
from braidcalc.burau import Laurent, burau_matrix
from braidcalc.words import BraidWord, parse_word, sigma_power

from conftest import (
    FreeProductWord,
    _Y_EXP,
    braid_words_3,
    letter_normal_form,
    matrix_trace,
    quotient_image,
    reduced_corpus,
    reference_classify_closure,
    reference_conjugacy_oracle,
    reference_cyclic_reduce,
)

DELTA_SQ = parse_word("n=3 s1 s2 s1 s2 s1 s2")
TX_PLUS = parse_word("n=3 s1^5 s2^8 s1^6 s2^-1")
TX_MINUS = parse_word("n=3 s1^5 s2^-1 s1^6 s2^8")

# non-conjugate reversal pair: every Burau trace agrees, the quotient
# classes differ (the cyclic word is chiral)
REV_A = parse_word("n=3 s1^-2 s2 s1^-1 s2^2")
REV_B = parse_word("n=3 s2^2 s1^-1 s2 s1^-2")

_B3_LETTERS = ((1, 1), (1, -1), (2, 1), (2, -1))


def test_quotient_image_frozen():
    assert quotient_image(parse_word("n=3 s1 s2 s1")).letters == ("X",)
    assert quotient_image(parse_word("n=3 s2 s1 s2")).letters == ("X",)
    assert quotient_image(parse_word("n=3 s1 s2")).letters == ("Y",)
    assert quotient_image(DELTA_SQ).letters == ()
    assert quotient_image(BraidWord(3, ())).letters == ()


def test_quotient_requires_three_strands():
    with pytest.raises(ValueError):
        quotient_image(parse_word("n=2 s1"))
    with pytest.raises(ValueError):
        normal_form(parse_word("n=2 s1"))
    with pytest.raises(ValueError):
        classify_closure(normal_form(parse_word("n=4 s1")))


def test_normal_form_frozen():
    nf = normal_form(parse_word("n=3 s1 s2"))
    assert nf == B3NormalForm(2, ("Y",))
    assert str(nf) == "e=2; [Y]"
    assert normal_form(parse_word("n=3 s2 s1")) == nf
    assert normal_form(BraidWord(3, ())) == B3NormalForm(0, ())
    assert str(normal_form(TX_PLUS)).startswith("e=18; [")


def test_normal_form_digest_of_short_words():
    """Normal forms of the 1 457 freely reduced words of length <= 6,
    frozen from the letter route."""
    words = [
        w
        for n in range(7)
        for w in product(_B3_LETTERS, repeat=n)
        if all(a[0] != b[0] or a[1] != -b[1] for a, b in zip(w, w[1:]))
    ]
    assert len(words) == 1457
    text = "\n".join(str(normal_form(BraidWord(3, w))) for w in words)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "269684e56e463f672e30e227598e4d505d5d96ee1df620a38de6e94cebbd6092"
    )


def test_central_multiplication_shifts_exponent_only():
    w = parse_word("n=3 s1^2 s2^-1")
    shifted = normal_form(DELTA_SQ * w)
    base = normal_form(w)
    assert shifted.exponent_sum == base.exponent_sum + 6
    assert shifted.cyclic_word == base.cyclic_word


def test_family_pair_not_conjugate():
    assert not conjugate_in_B3(TX_PLUS, TX_MINUS)
    assert conjugate_in_B3(TX_PLUS, TX_PLUS)


def test_middle_exponent_six_pair_is_conjugate():
    # regression: when the middle exponent is one more than the first
    # (here 6 = 5 + 1) the flype pair collapses to a single class;
    # g = s1 s2 s1^-4 is an explicit certificate
    a = parse_word("n=3 s1^5 s2^6 s1^8 s2^-1")
    b = parse_word("n=3 s1^5 s2^-1 s1^8 s2^6")
    assert conjugate_in_B3(a, b)
    g = parse_word("n=3 s1 s2 s1^-4")
    assert burau_matrix(a.conjugated_by(g)) == burau_matrix(b)


def test_conjugate_in_B3_basic():
    assert conjugate_in_B3(parse_word("n=3 s1"), parse_word("n=3 s2"))
    assert not conjugate_in_B3(parse_word("n=3 s1"), parse_word("n=3 s1^3"))
    assert not conjugate_in_B3(parse_word("n=3 s1"), parse_word("n=3 s1^-1"))


def _random_b3_word(rng: random.Random, max_length: int) -> BraidWord:
    return BraidWord(3, tuple(rng.choice(_B3_LETTERS) for _ in range(rng.randint(0, max_length))))


def test_conjugate_in_B3_is_normal_form_equality():
    rng = random.Random(2701)
    answers = Counter()
    for i in range(1500):
        g = _random_b3_word(rng, 6)
        if i % 3 == 0:
            w1, w2 = _random_b3_word(rng, 30), _random_b3_word(rng, 30)
        elif i % 3 == 1:
            w1 = _random_b3_word(rng, 30)
            w2 = w1.conjugated_by(g)
        else:
            # equal exponent sums, different classes
            w1 = TX_PLUS.conjugated_by(_random_b3_word(rng, 6))
            w2 = TX_MINUS.conjugated_by(g)
        expected = normal_form(w1) == normal_form(w2)
        assert conjugate_in_B3(w1, w2) == expected, (str(w1), str(w2))
        answers[w1.exponent_sum() == w2.exponent_sum(), expected] += 1
    # every kind of pair was drawn: unequal sums, and equal sums both ways
    assert answers[False, False] and answers[True, True] and answers[True, False], answers


def test_conjugate_in_B3_skips_normal_forms_for_unequal_sums(monkeypatch):
    def refuse(word):
        raise AssertionError(f"normal form built for {word}")

    monkeypatch.setattr(b3, "normal_form", refuse)
    assert not conjugate_in_B3(TX_PLUS, TX_PLUS * parse_word("n=3 s1"))
    assert not conjugate_in_B3(parse_word("n=3 s1"), parse_word("n=3 s1^-1"))
    assert not conjugate_in_B3(BraidWord(3, ()), DELTA_SQ)


def test_conjugate_in_B3_requires_three_strands():
    # the sums differ, so only the strand check can raise here
    four, three = parse_word("n=4 s1"), parse_word("n=3 s1 s2")
    for w1, w2 in ((four, three), (three, four)):
        with pytest.raises(ValueError, match="need exactly 3 strands, got 4"):
            conjugate_in_B3(w1, w2)


def test_classify_unknots():
    assert classify_closure(normal_form(parse_word("n=3 s1 s2"))) == UnknotClass((1, 1))
    assert classify_closure(normal_form(parse_word("n=3 s1^-1 s2^-1"))) == UnknotClass((-1, -1))
    assert classify_closure(normal_form(parse_word("n=3 s1 s2^-1"))) == UnknotClass((1, -1))
    # the remaining sign pattern is conjugate to (1, -1)
    assert classify_closure(normal_form(parse_word("n=3 s1^-1 s2"))) == UnknotClass((1, -1))


def test_classify_torus():
    assert classify_closure(normal_form(parse_word("n=3 s1^5 s2"))) == TorusKnot2k(5, 1)
    for k in list(range(2, 10)) + list(range(-9, -1)):
        for mu in (1, -1):
            w = sigma_power(3, 1, k) * sigma_power(3, 2, mu)
            assert classify_closure(normal_form(w)) == TorusKnot2k(k, mu), (k, mu)


def test_exceptional_candidates_fail_the_shape_test():
    """Every candidate s1^k s2^mu of ``classify_closure`` has at most one
    "Y" or at most one "Y2" in its cyclic word, so the shape test that
    returns ``GenericUnique`` early never skips an exceptional class."""
    for k in [*range(-2000, 0), *range(1, 2001)]:
        for mu in (1, -1):
            nf = b3._syllable_normal_form((((1, 1 if k > 0 else -1), abs(k)), ((2, mu), 1)))
            assert nf.cyclic_word.count("Y") <= 1 or nf.cyclic_word.count("Y2") <= 1, (k, mu)
            assert not isinstance(classify_closure(nf), GenericUnique), (k, mu)


@pytest.mark.parametrize(
    "word, twice",
    [((), False), (("Y",), False), (("Y2", "Y"), False), (("Y", "X", "Y"), True),
     (("X", "Y2", "Y", "Y2"), True)],
)
def test_occurs_twice(word, twice):
    assert b3._occurs_twice(word, word[-1] if word else "Y") == twice


def test_classify_generic():
    assert classify_closure(normal_form(TX_PLUS)) == GenericUnique()
    assert classify_closure(normal_form(TX_MINUS)) == GenericUnique()
    assert classify_closure(normal_form(parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1"))) == GenericUnique()


def test_kolee_both_signs():
    assert not kolee_both_signs(5, 6, 8, -1)
    assert kolee_both_signs(1, 6, 8, -1)  # u == -eps
    assert kolee_both_signs(5, 6, 1, -1)  # w == -eps
    assert kolee_both_signs(5, 2, 8, -1)  # v == -2 eps
    assert kolee_both_signs(-1, 4, 6, 1)


def test_oracle_conjugate_pair():
    out = brute_force_conjugacy_oracle(parse_word("n=3 s1"), parse_word("n=3 s2"))
    assert isinstance(out, Conjugate)
    g = out.conjugator
    assert len(g) <= 3
    lhs = burau_matrix(parse_word("n=3 s1").conjugated_by(g))
    assert lhs == burau_matrix(parse_word("n=3 s2"))


def test_oracle_exponent_sum_witness():
    out = brute_force_conjugacy_oracle(parse_word("n=3 s1"), parse_word("n=3 s1^3"))
    assert out == NotConjugate("exponent_sum")


def test_oracle_requires_three_strands():
    with pytest.raises(ValueError):
        brute_force_conjugacy_oracle(parse_word("n=2 s1"), parse_word("n=2 s1"))


def test_reversal_pair_regression(monkeypatch):
    """Chiral pair: char-poly battery alone cannot separate it."""
    assert not conjugate_in_B3(REV_A, REV_B)
    full = brute_force_conjugacy_oracle(REV_A, REV_B)
    assert full == NotConjugate("psl2z_class")
    monkeypatch.setattr(b3, "BATTERIES", ("exponent_sum", "burau_char_poly"))
    partial = brute_force_conjugacy_oracle(REV_A, REV_B)
    assert partial == Unresolved()


def test_char_poly_battery_separates_as_the_matrix_route():
    """The ``burau_char_poly`` key (trace, exponent sum) against the
    matrix route (trace of the Burau matrix, its determinant (-t)^e):
    the same pairs separated, among seeded 3-strand words, planted
    conjugates g w g^-1 of them, and conjugates of odd powers of the
    half twist, whose traces are 0 whatever their exponent sums."""
    rng = random.Random(24)

    def word(syllables):
        letters = []
        for _ in range(rng.randint(0, syllables)):
            power = rng.choice((1, -1)) * rng.randint(1, 4)
            letters += sigma_power(3, rng.randint(1, 2), power).letters
        return BraidWord(3, tuple(letters))

    def matrix_key(w):
        e = w.exponent_sum()
        return matrix_trace(burau_matrix(w)), Laurent.term(-1 if e % 2 else 1, e)

    words = [word(6) for _ in range(80)]
    words += [w.conjugated_by(word(3)) for w in words[:40]]
    half = parse_word("s1 s2 s1")
    for k in (-3, -1, 1, 3):
        core = BraidWord(3, (half if k > 0 else half.inverse()).letters * abs(k))
        words += [core.conjugated_by(word(3)) for _ in range(5)]
    keys = [(b3._BATTERY_FUNCTIONS["burau_char_poly"](w), matrix_key(w)) for w in words]
    reached = Counter()
    for (key_a, ref_a), (key_b, ref_b) in combinations(keys, 2):
        assert (key_a != key_b) == (ref_a != ref_b)
        reached[key_a[0] == key_b[0], key_a[1] == key_b[1]] += 1
    # equal keys, and keys that differ in the trace, the exponent sum or both
    assert len(reached) == 4


def test_unresolved_is_honest_for_central_pair(monkeypatch):
    # with the exponent-sum battery removed, the full twist and the empty
    # word share their quotient class but are not conjugate: the bounded
    # search must come back empty-handed
    monkeypatch.setattr(b3, "CONJUGATOR_BOUND", 3)
    monkeypatch.setattr(b3, "BATTERIES", ("psl2z_class",))
    out = brute_force_conjugacy_oracle(DELTA_SQ, BraidWord(3, ()))
    assert out == Unresolved()


def test_oracle_stops_at_first_verified_conjugator(monkeypatch):
    """A conjugator of length one is found without walking the ball."""
    calls = 0
    fp_mul = b3._fp_mul

    def counting(x, y):
        nonlocal calls
        calls += 1
        return fp_mul(x, y)

    monkeypatch.setattr(b3, "_fp_mul", counting)
    b3._conjugation_ball.cache_clear()
    out = brute_force_conjugacy_oracle(
        parse_word("n=3 s1 s2^2"), parse_word("n=3 s2 s1 s2 s2 s2^-1")
    )
    assert out == Conjugate(parse_word("n=3 s2"))
    assert calls < 100


def test_oracle_matches_full_ball_reference(monkeypatch):
    """Same outcome type, conjugator letters and witness as the full-ball
    oracle: planted pairs g w g^-1 with |g| <= 3 (g = () included), random
    corpus pairs, and pairs of equal exponent sum under that battery
    alone, which mostly walk the whole ball to ``Unresolved``.  The
    oracle reads its bound and batteries from ``b3``'s constants."""
    all_batteries = b3.BATTERIES
    corpus = reduced_corpus(6)
    short = [g for g in corpus if len(g) <= 3]
    by_sum: dict[int, list[BraidWord]] = {}
    for w in corpus:
        by_sum.setdefault(w.exponent_sum(), []).append(w)
    rng = random.Random(16)
    seen = Counter()
    for k in range(1200):
        bound = (-1, 0, 3, 6)[k % 4]
        w1 = rng.choice(corpus)
        batteries = all_batteries
        if k % 3 == 0:
            w2 = w1.conjugated_by(rng.choice(short))
        elif k % 3 == 1:
            w2 = rng.choice(corpus)
        else:
            batteries = ("exponent_sum",)
            w2 = rng.choice(by_sum[w1.exponent_sum()])
        monkeypatch.setattr(b3, "CONJUGATOR_BOUND", bound)
        monkeypatch.setattr(b3, "BATTERIES", batteries)
        out = brute_force_conjugacy_oracle(w1, w2)
        args = (w1, w2, bound, batteries)
        assert out == reference_conjugacy_oracle(*args), args
        seen[type(out).__name__, bound] += 1
    for bound in (-1, 0, 3, 6):
        assert seen["Conjugate", bound] and seen["Unresolved", bound], seen
    assert seen["NotConjugate", 6], seen


def _inverse_letter(letter):
    return (letter[0], -letter[1])


def test_free_class_is_shared_by_conjugates_and_keeps_the_batteries():
    """Seeded: words w of 0-12 letters, some not cyclically reduced, and
    conjugators g of 0-4 letters, some cancelling against w at either
    seam.  g w g^-1 and w freely reduced have w's free class, the class
    is its own class, and every battery reads the same on the class's
    word as on w."""
    rng = random.Random(30)
    seen = Counter()
    for _ in range(800):
        w = [rng.choice(_B3_LETTERS) for _ in range(rng.randint(0, 12))]
        if len(w) >= 2 and rng.random() < 0.3:
            w[-1] = _inverse_letter(w[0])
        g = [rng.choice(_B3_LETTERS) for _ in range(rng.randint(0, 4))]
        if g and w and rng.random() < 0.5:
            # g's last letter cancels w's first, or g^-1's first cancels w's last
            left = rng.random() < 0.5
            g[-1] = _inverse_letter(w[0]) if left else w[-1]
            seen["left seam" if left else "right seam"] += 1
        seen["not cyclically reduced"] += len(w) >= 2 and w[-1] == _inverse_letter(w[0])
        word = BraidWord(3, tuple(w))
        key = b3._free_class(word.letters)
        assert b3._free_class(word.conjugated_by(BraidWord(3, tuple(g))).letters) == key, (w, g)
        assert b3._free_class(word.free_reduced().letters) == key == b3._free_class(key), w
        for name, battery in b3._BATTERY_FUNCTIONS.items():
            assert battery(BraidWord(3, key)) == battery(word), (name, w)
    assert seen["left seam"] and seen["right seam"] and seen["not cyclically reduced"], seen


def test_oracle_reads_exponent_sums_without_a_key(monkeypatch):
    def refuse(letters):
        raise AssertionError("free class computed for unequal exponent sums")

    monkeypatch.setattr(b3, "_free_class", refuse)
    before = b3._battery_key.cache_info()
    out = brute_force_conjugacy_oracle(parse_word("n=3 s1 s2^-1 s1^2"), parse_word("n=3 s2 s1^-2 s2"))
    assert out == NotConjugate("exponent_sum")
    assert b3._battery_key.cache_info() == before


def test_planted_conjugates_share_battery_entries():
    """200 conjugates of one word, by 200 different conjugators, cost one
    entry per cached battery: both batteries are read under w's class."""
    w = parse_word("n=3 s1^2 s2^-1 s1 s2^3 s1^-1")
    conjugators = random.Random(30).sample([g for g in reduced_corpus(5) if g.letters], 200)
    b3._battery_key.cache_clear()
    for g in conjugators:
        assert isinstance(brute_force_conjugacy_oracle(w, w.conjugated_by(g)), Conjugate), g
    info = b3._battery_key.cache_info()
    assert (info.currsize, info.misses) == (2, 2), info


def test_psl2z_class_frozen():
    assert _psl2z_class(BraidWord(3, ())) == ()
    assert _psl2z_class(DELTA_SQ) == ()
    # sigma_2 maps to the inverse parabolic translation at t = -1
    assert _psl2z_class(parse_word("n=3 s2")) == ("S", "U2")
    assert _psl2z_class(parse_word("n=3 s2^-1")) == ("S", "U")


def _evaluate_mod_prime(poly, t: int) -> int:
    return sum(c * pow(t, poly.low + i, _FP_PRIME) for i, c in enumerate(poly.coeffs)) % _FP_PRIME


@pytest.mark.parametrize("letter", _B3_LETTERS)
def test_generator_tables_are_burau_matrices(letter):
    """The oracle's integer and fingerprint generators are the reduced
    Burau matrices of the one-letter words at t = -1 and at t = _FP_T;
    the small integer entries are compared mod the same prime."""
    rows = burau_matrix(BraidWord(3, (letter,)))
    entries = [x for row in rows for x in row]
    at_minus_one = tuple(_evaluate_mod_prime(x, -1) for x in entries)
    assert tuple(v % _FP_PRIME for v in _PSL_GEN[letter]) == at_minus_one
    assert _FP_GENS[letter] == tuple(_evaluate_mod_prime(x, _FP_T) for x in entries)


@given(braid_words_3(max_length=10), braid_words_3(max_length=10))
def test_quotient_image_is_a_homomorphism(w1: BraidWord, w2: BraidWord):
    product = quotient_image(w1).letters + quotient_image(w2).letters
    assert quotient_image(w1 * w2) == FreeProductWord.from_letters(product)


@given(braid_words_3(max_length=10))
def test_quotient_image_inverse(w: BraidWord):
    product = quotient_image(w).letters + quotient_image(w.inverse()).letters
    assert FreeProductWord.from_letters(product) == FreeProductWord(())


# syllables s_i^(+-k) with k up to a few hundred, and below 4 half the
# time, so that unreduced words such as s1 s1^-1 come up
_b3_syllables = st.tuples(
    st.sampled_from(_B3_LETTERS),
    st.one_of(st.integers(1, 3), st.integers(1, 400)),
).map(lambda pair: (pair[0],) * pair[1])
_b3_syllable_words = st.lists(_b3_syllables, max_size=8).map(
    lambda parts: BraidWord(3, tuple(x for part in parts for x in part))
)


@given(
    _b3_syllable_words,
    st.one_of(st.just(BraidWord(3, ())), _b3_syllable_words, braid_words_3(max_length=6)),
)
def test_normal_form_matches_letter_route(w: BraidWord, g: BraidWord):
    """Run-length route against the letter route, on w and on g w g^-1
    unreduced, so that cancellation reaches across whole runs."""
    for word in (w, w.conjugated_by(g)):
        assert normal_form(word) == letter_normal_form(word)


@given(braid_words_3(max_length=8), braid_words_3(max_length=6))
def test_normal_form_is_conjugation_invariant(w: BraidWord, g: BraidWord):
    assert normal_form(w.conjugated_by(g)) == normal_form(w)


@given(braid_words_3(max_length=6), braid_words_3(max_length=4))
def test_classify_closure_is_conjugation_invariant(w: BraidWord, g: BraidWord):
    assert classify_closure(normal_form(w.conjugated_by(g))) == classify_closure(normal_form(w))


def _random_syllables(rng: random.Random, count: int) -> list[tuple[tuple[int, int], int]]:
    return [
        (rng.choice(_B3_LETTERS), rng.choice((rng.randint(1, 3), rng.randint(1, 400))))
        for _ in range(count)
    ]


def _from_syllables(syllables: list[tuple[tuple[int, int], int]]) -> BraidWord:
    return BraidWord(3, tuple(x for letter, k in syllables for x in (letter,) * k))


def test_classify_closure_matches_letter_built_reference():
    """Two-syllable candidates against candidates built as letters, on
    seeded random syllable words of up to 400 letters a syllable: plain
    words, words padded to an exponent sum in -2..2, and conjugates of
    s1^k s2^mu, so that every exceptional class comes up."""
    rng = random.Random(13)
    seen = set()
    for i in range(1500):
        syllables = _random_syllables(rng, rng.randint(0, 6))
        if i % 3 == 1:
            gap = rng.randint(-2, 2) - sum(sign * k for (_, sign), k in syllables)
            while gap:
                k = min(abs(gap), 400)
                syllables.append(((rng.choice((1, 2)), 1 if gap > 0 else -1), k))
                gap -= k if gap > 0 else -k
        word = _from_syllables(syllables)
        if i % 3 == 2:
            k = rng.choice((rng.randint(-4, 4), rng.randint(-400, 400)))
            core = _from_syllables([((1, 1 if k > 0 else -1), abs(k)), ((2, rng.choice((1, -1))), 1)])
            word = core.conjugated_by(word)
        got = classify_closure(normal_form(word))
        assert got == reference_classify_closure(word), str(word)
        seen.add(got if isinstance(got, UnknotClass) else type(got))
    assert seen == {
        UnknotClass((1, 1)), UnknotClass((-1, -1)), UnknotClass((1, -1)), TorusKnot2k, GenericUnique
    }


def _cyclic_moves(word: BraidWord) -> tuple[bool, bool]:
    """Which moves of the cyclic reduction in ``b3._syllable_normal_form``
    the word reaches, read from its letter route: the front-run move when
    the reduced image's ends meet and its Y letters are not all equal;
    the single-run letter move when, with the cancelling ends trimmed,
    two or more Y letters are left, all equal, one at each end."""
    r = quotient_image(word).letters
    ys = {x for x in r if x != "X"}
    front = len(ys) == 2 and (r[0] == "X") == (r[-1] == "X")
    i, j = 0, len(r)
    while j - i >= 2 and (r[i], r[j - 1]) in (("X", "X"), ("Y", "Y2"), ("Y2", "Y")):
        i, j = i + 1, j - 1
    core = r[i:j]
    core_ys = [x for x in core if x != "X"]
    letter = len(core_ys) > 1 and core[0] != "X" != core[-1] and len(set(core_ys)) == 1
    return front, letter


def test_normal_form_matches_letter_route_on_long_conjugates():
    """Run-length route against the letter route on g w g^-1, g up to 30
    syllables of powers 1-40 and w a short word or one syllable, so that
    the cyclic reduction moves runs and single letters to the back."""
    rng = random.Random(17)
    reached = Counter()
    for i in range(1500):
        count = rng.randint(0, 30)
        g = _from_syllables([(rng.choice(_B3_LETTERS), rng.randint(1, 40)) for _ in range(count)])
        if i % 2:
            w = _random_b3_word(rng, 5)
        else:
            w = sigma_power(3, rng.choice((1, 2)), rng.choice((1, -1)) * rng.randint(1, 40))
        word = w.conjugated_by(g)
        assert normal_form(word) == letter_normal_form(word), str(word)
        reached.update(zip(("front run", "single-run letter"), _cyclic_moves(word)))
    assert reached["front run", True] and reached["single-run letter", True], reached


@given(braid_words_3(max_length=8), braid_words_3(max_length=8))
def test_two_routes_agree(w1: BraidWord, w2: BraidWord):
    """Normal-form route vs the independent matrix route."""
    by_quotient = conjugate_in_B3(w1, w2)
    by_matrices = (
        w1.exponent_sum() == w2.exponent_sum()
        and _psl2z_class(w1) == _psl2z_class(w2)
    )
    assert by_quotient == by_matrices


@settings(deadline=None)
@given(braid_words_3(max_length=5), braid_words_3(max_length=3))
def test_oracle_agrees_with_normal_form(w: BraidWord, g: BraidWord):
    w2 = w.conjugated_by(g).free_reduced()
    out = brute_force_conjugacy_oracle(w, w2)
    if isinstance(out, Conjugate):
        assert conjugate_in_B3(w, w2)
        assert burau_matrix(w.conjugated_by(out.conjugator)) == burau_matrix(w2)
    elif isinstance(out, NotConjugate):
        assert not conjugate_in_B3(w, w2)
    else:
        # batteries are complete, so an unresolved pair is conjugate with
        # every certificate longer than the bound
        assert conjugate_in_B3(w, w2)


# Slow routes for the linear-time helpers of normal_form.
def _min_rotation_reference(letters):
    return min((letters[k:] + letters[:k] for k in range(len(letters))), default=())


_alphabet_words = st.sampled_from((("X", "Y", "Y2"), ("S", "U", "U2"))).flatmap(
    lambda alphabet: st.one_of(
        st.lists(st.sampled_from(alphabet), max_size=16).map(tuple),
        # periodic words, whose least rotation starts at several positions
        st.tuples(
            st.lists(st.sampled_from(alphabet), min_size=1, max_size=4),
            st.integers(min_value=1, max_value=5),
        ).map(lambda pair: tuple(pair[0]) * pair[1]),
    )
)


@given(_alphabet_words)
def test_min_rotation_matches_min_of_rotations(letters):
    assert _min_rotation(letters) == _min_rotation_reference(letters)


_ALPHABETS = (("X", _Y_EXP), ("S", _S_EXP))


def _inverse_letters(letters, two, y_exp):
    by_exp = {v: k for k, v in y_exp.items()}
    return tuple(x if x == two else by_exp[3 - y_exp[x]] for x in reversed(letters))


def _rotated_at_middle(letters, two, y_exp):
    """Cyclic word of a freely reduced word as ``b3._su_class`` takes it:
    rotated at its middle, reduced again and rotated to its least."""
    m = len(letters) // 2
    return _min_rotation(_reduce_z2z3(letters[m:] + letters[:m], two, y_exp))


def _word_and_conjugator(alphabet):
    letters = st.sampled_from((alphabet[0], *alphabet[1]))
    return st.tuples(
        st.just(alphabet),
        st.lists(letters, max_size=16).map(tuple),
        st.lists(letters, max_size=40).map(tuple),
    )


@given(st.sampled_from(_ALPHABETS).flatmap(_word_and_conjugator))
def test_cyclic_reduce_matches_reference(drawn):
    """On a reduced word c and on u c u^-1 reduced, |u| up to 40: the
    rotation at the middle and the trimming give the same cyclic word."""
    (two, y_exp), letters, u = drawn
    c = _reduce_z2z3(letters, two, y_exp)
    conjugate = _reduce_z2z3(u + c + _inverse_letters(u, two, y_exp), two, y_exp)
    for word in (c, conjugate):
        expected = _min_rotation(reference_cyclic_reduce(word, two, y_exp))
        assert _rotated_at_middle(word, two, y_exp) == expected


# S = [[0,-1],[1,0]] and U = S^-1 T with T = [[1,1],[0,1]], as in b3
_SU_MATRICES = {"S": (0, -1, 1, 0), "U": (0, 1, -1, -1), "U2": (-1, -1, 1, 0)}


def _matrix_of(letters):
    m = (1, 0, 0, 1)
    for x in letters:
        g = _SU_MATRICES[x]
        m = (
            m[0] * g[0] + m[1] * g[2],
            m[0] * g[1] + m[1] * g[3],
            m[2] * g[0] + m[3] * g[2],
            m[2] * g[1] + m[3] * g[3],
        )
    return m


@given(_word_and_conjugator(("S", _S_EXP)))
def test_su_class_matches_trimming_reference(drawn):
    """``_su_class`` of the matrix of an S/U word is the least rotation
    of that word reduced and cyclically reduced by trimming."""
    _, letters, u = drawn
    word = u + letters + _inverse_letters(u, "S", _S_EXP)
    reduced = _reduce_z2z3(word, "S", _S_EXP)
    assert _su_class(_matrix_of(word)) == _min_rotation(reference_cyclic_reduce(reduced, "S", _S_EXP))
