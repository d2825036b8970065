from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    _cyclic_reduce_z2z3,
    _min_rotation,
    _psl2z_class,
    _reduce_z2z3,
)
from braidcalc.burau import burau_matrix
from braidcalc.words import BraidWord, parse_word, sigma_power

from conftest import (
    FreeProductWord,
    _Y_EXP,
    braid_words_3,
    letter_normal_form,
    quotient_image,
    reference_classify_closure,
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
    with pytest.raises(ValueError):
        brute_force_conjugacy_oracle(
            parse_word("n=3 s1"), parse_word("n=3 s2"), invariant_batteries=("nope",)
        )


def test_reversal_pair_regression():
    """Chiral pair: char-poly battery alone cannot separate it."""
    assert not conjugate_in_B3(REV_A, REV_B)
    full = brute_force_conjugacy_oracle(REV_A, REV_B)
    assert full == NotConjugate("psl2z_class")
    partial = brute_force_conjugacy_oracle(
        REV_A, REV_B, invariant_batteries=("exponent_sum", "burau_char_poly")
    )
    assert partial == Unresolved()


def test_unresolved_is_honest_for_central_pair():
    # with the exponent-sum battery removed, the full twist and the empty
    # word share their quotient class but are not conjugate: the bounded
    # search must come back empty-handed
    out = brute_force_conjugacy_oracle(
        DELTA_SQ, BraidWord(3, ()), conjugator_bound=3, invariant_batteries=("psl2z_class",)
    )
    assert out == Unresolved()


def test_psl2z_class_frozen():
    assert _psl2z_class(BraidWord(3, ())) == ()
    assert _psl2z_class(DELTA_SQ) == ()
    # sigma_2 maps to the inverse parabolic translation at t = -1
    assert _psl2z_class(parse_word("n=3 s2")) == ("S", "U2")
    assert _psl2z_class(parse_word("n=3 s2^-1")) == ("S", "U")


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
    out = brute_force_conjugacy_oracle(w, w2, conjugator_bound=4)
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


def _cyclic_reduce_reference(letters, two, y_exp):
    by_exp = {v: k for k, v in y_exp.items()}
    w = list(letters)
    while len(w) >= 2:
        first, last = w[0], w[-1]
        if first == two and last == two:
            w = w[1:-1]
        elif first != two and last != two:
            total = (y_exp[last] + y_exp[first]) % 3
            w = w[1:-1]
            if total:
                w.append(by_exp[total])
        else:
            break
    return tuple(w)


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


@given(st.lists(st.sampled_from(("X", "Y", "Y2")), max_size=16).map(tuple))
def test_cyclic_reduce_matches_reference(letters):
    reduced = _reduce_z2z3(letters, "X", _Y_EXP)
    for word in (letters, reduced):
        assert _cyclic_reduce_z2z3(word, "X", _Y_EXP) == _cyclic_reduce_reference(
            word, "X", _Y_EXP
        )
