from __future__ import annotations

import hashlib
import random
from itertools import permutations

import pytest
from hypothesis import given, settings

from braidcalc.burau import Laurent, burau_matrix, determinant
from braidcalc.links import (
    _divexact_repunit,
    alexander_polynomial,
    components,
    linking_matrix,
)
from braidcalc.words import MAX_STRANDS, BraidWord, parse_word

from conftest import braid_words, laurent, reference_components

W_PLUS = parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1")
W_MINUS = parse_word("n=3 s1^3 s2^-1 s1^-5 s2^4")


def test_components_frozen_plus():
    comps = components(W_PLUS)
    assert [c.members for c in comps] == [(1,), (2, 3)]
    assert [(c.strand_count, c.self_writhe, c.bennequin) for c in comps] == [
        (1, 0, -1),
        (2, -1, -3),
    ]


def test_components_frozen_minus():
    comps = components(W_MINUS)
    assert [c.members for c in comps] == [(1, 3), (2,)]
    assert [(c.strand_count, c.self_writhe, c.bennequin) for c in comps] == [
        (2, -1, -3),
        (1, 0, -1),
    ]


def test_linking_frozen():
    lm = linking_matrix(W_PLUS)
    assert lm.members == ((1,), (2, 3))
    assert lm.between(0, 1) == 1
    assert lm.total() == 1
    assert linking_matrix(W_MINUS).total() == 1


def test_linking_hopf():
    lm = linking_matrix(parse_word("n=2 s1^2"))
    assert lm.entries == ((0, 1), (1, 0))
    negative = linking_matrix(parse_word("n=2 s1^-2"))
    assert negative.between(0, 1) == -1


def test_alexander_frozen():
    one = Laurent.one()
    assert alexander_polynomial(BraidWord(1, ())) == one
    assert alexander_polynomial(parse_word("n=2 s1")) == one
    assert alexander_polynomial(parse_word("n=2 s1^3")) == laurent({0: 1, 1: -1, 2: 1})
    assert alexander_polynomial(parse_word("n=2 s1^2")) == laurent({0: -1, 1: 1})
    figure8 = parse_word("n=3 s1 s2^-1 s1 s2^-1")
    assert alexander_polynomial(figure8) == laurent({0: 1, 1: -3, 2: 1})
    # split 2-component unlink
    assert alexander_polynomial(BraidWord(2, ())).is_zero()


def _syllable_word(rng: random.Random, n: int, length: int) -> BraidWord:
    """Syllables of one or two equal letters; neighbouring indices differ."""
    letters: list[tuple[int, int]] = []
    index = 0
    while len(letters) < length:
        index = rng.choice([i for i in range(1, n) if i != index])
        letters.extend([(index, rng.choice((1, -1)))] * rng.choice((1, 1, 1, 2)))
    return BraidWord(n, tuple(letters[:length]))


def test_alexander_digest_on_multistrand_words():
    """Alexander polynomials of 40 seeded 4-8 strand words of 50-300
    letters, and of a periodic 8-strand word whose 132-bit coefficients
    make wide Bareiss quotients, frozen before the Bareiss step read its
    quotients with ``_unpacked``."""
    rng = random.Random(20)
    words = [_syllable_word(rng, rng.randint(4, 8), rng.randint(50, 300)) for _ in range(40)]
    words.append(parse_word("n=8 " + "s1 s3^-1 s5 s7^-1 s2 s4^-1 s6 " * 40))
    text = "\n".join(str(alexander_polynomial(w)) for w in words)
    assert hashlib.sha256(text.encode()).hexdigest() == "eec020e940ca5beb0e7bcf15cf4902122d43d2e6651154468615da8d08458481"


def test_alexander_conjugation_and_mirror():
    w = parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1")
    g = parse_word("n=3 s2 s1")
    assert alexander_polynomial(w.conjugated_by(g)) == alexander_polynomial(w)


def _random_word(rng: random.Random, strands: int, syllables: int, power: int) -> BraidWord:
    letters = []
    for _ in range(syllables if strands > 1 else 0):
        k = rng.randint(-power, power) or 1
        letters += [(rng.randint(1, strands - 1), 1 if k > 0 else -1)] * abs(k)
    return BraidWord(strands, tuple(letters))


def test_components_match_two_walk_reference():
    """Seeded words on 1-12 strands, short letters and longer syllables,
    and words at the strand cap: a 500-cycle, its inverse, a staircase of
    odd powers and random letters."""
    rng = random.Random(14)
    cases = [
        _random_word(rng, rng.randint(1, 12), rng.randint(0, 60), rng.choice((1, 4)))
        for _ in range(1500)
    ]
    cycle = parse_word(f"n={MAX_STRANDS} " + " ".join(f"s{i}" for i in range(1, MAX_STRANDS)))
    cases += [
        BraidWord(MAX_STRANDS),
        cycle,
        cycle.inverse(),
        parse_word(" ".join(f"s{i}^{(-1) ** i * 3}" for i in range(1, MAX_STRANDS))),
        _random_word(rng, MAX_STRANDS, 3000, 3),
    ]
    seen_link = seen_long_cycle = False
    for w in cases:
        comps, lm = reference_components(w)
        assert components(w) == comps, w
        assert linking_matrix(w) == lm, w
        seen_link |= any(x != 0 for row in lm.entries for x in row)
        seen_long_cycle |= any(c.strand_count >= 3 for c in comps)
    assert seen_link and seen_long_cycle


@given(braid_words(min_strands=2, max_strands=4, max_length=10))
def test_bennequin_decomposition(w: BraidWord):
    total = w.bennequin()
    comps = components(w)
    lm = linking_matrix(w)
    assert total == sum(c.bennequin for c in comps) + 2 * lm.total()


@given(braid_words(min_strands=2, max_strands=4, max_length=10))
def test_self_writhe_and_mixed_sum_to_exponent_sum(w: BraidWord):
    comps = components(w)
    lm = linking_matrix(w)
    assert w.exponent_sum() == sum(c.self_writhe for c in comps) + 2 * lm.total()


@given(braid_words(min_strands=2, max_strands=3, max_length=8))
def test_alexander_is_conjugation_invariant(w: BraidWord):
    g = parse_word(f"n={w.strands} s1^2")
    assert alexander_polynomial(w.conjugated_by(g)) == alexander_polynomial(w)


def _random_laurent(rng: random.Random, length: int) -> Laurent:
    """A polynomial of ``length`` coefficients with nonzero ends."""
    coeffs = [rng.choice((-1, 1)) * rng.randint(0, 10 ** rng.randint(0, 30)) for _ in range(length)]
    coeffs[0] = coeffs[0] or 1
    coeffs[-1] = coeffs[-1] or -1
    return Laurent(rng.randint(-20, 20), tuple(coeffs))


@pytest.mark.parametrize("n", range(2, 9))
def test_repunit_division_matches_divexact(n):
    """Exact products q * (1 + ... + t^(n-1)) divide back to q; a product
    plus a remainder of lower degree, and polynomials shorter than n,
    raise ValueError as ``divexact`` does."""
    rng = random.Random(190 + n)
    repunit = Laurent(0, (1,) * n)
    assert _divexact_repunit(Laurent.zero(), n) == Laurent.zero()
    for _ in range(300):
        q = _random_laurent(rng, rng.randint(1, 60))
        p = q * repunit
        assert _divexact_repunit(p, n) == p.divexact(repunit) == q
        remainder = Laurent(p.low, _random_laurent(rng, rng.randint(1, n - 1)).coeffs)
        short = _random_laurent(rng, rng.randint(1, n - 1))
        for inexact in (p + remainder, short):
            with pytest.raises(ValueError):
                inexact.divexact(repunit)
            with pytest.raises(ValueError):
                _divexact_repunit(inexact, n)


@given(braid_words(min_strands=3, max_strands=3, max_length=60))
def test_three_strand_closed_form_matches_bareiss(w: BraidWord):
    m = burau_matrix(w)
    one, zero = Laurent.one(), Laurent.zero()
    b_minus_i = tuple(
        tuple(m[i][j] - (one if i == j else zero) for j in range(2)) for i in range(2)
    )
    expected = determinant(b_minus_i).divexact(laurent({0: 1, 1: 1, 2: 1}))
    assert alexander_polynomial(w) == expected.unit_normalized()


# A second Alexander route that shares no matrix with the library: the
# unreduced n x n Burau matrix, built letter by letter, and the Leibniz
# expansion of an (n-1)-minor of I - B, which needs no division.  That
# minor is the Alexander polynomial up to units; the reduced route's
# division by 1 + t + ... + t^(n-1) belongs to det(I - B) of the reduced
# matrix, and applied here it would be inexact (t / (1 + t) for s1 on
# two strands).


def _unreduced_burau(word: BraidWord):
    """sigma_i acts as the identity except for [[1-t, t], [1, 0]] at (i, i)."""
    n = word.strands
    one, zero = Laurent.one(), Laurent.zero()
    t, t_inv = Laurent.term(1, 1), Laurent.term(1, -1)
    cols = [[one if i == j else zero for i in range(n)] for j in range(n)]
    for index, sign in word.letters:
        c = index - 1
        x, y = cols[c], cols[c + 1]
        if sign > 0:
            cols[c] = [a - a * t + b for a, b in zip(x, y)]
            cols[c + 1] = [a * t for a in x]
        else:
            cols[c] = [b * t_inv for b in y]
            cols[c + 1] = [a + b - b * t_inv for a, b in zip(x, y)]
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def _leibniz(m):
    total = Laurent.zero()
    for perm in permutations(range(len(m))):
        term = Laurent.one()
        for i, j in enumerate(perm):
            term = term * m[i][j]
        odd = sum(perm[i] > perm[j] for i in range(len(m)) for j in range(i + 1, len(m))) % 2
        total = total - term if odd else total + term
    return total


def _alexander_by_unreduced_minor(word: BraidWord) -> Laurent:
    b = _unreduced_burau(word)
    size = word.strands - 1
    minor = [
        [(Laurent.one() if i == j else Laurent.zero()) - b[i][j] for j in range(size)]
        for i in range(size)
    ]
    return _leibniz(minor).unit_normalized()


@pytest.mark.parametrize(
    "text, coeffs",
    [
        ("n=1", (1,)),
        ("n=2", ()),  # split unlink
        ("n=2 s1", (1,)),
        ("n=2 s1^2", (-1, 1)),  # Hopf link
        ("n=2 s1^-2", (-1, 1)),
        ("n=2 s1^3", (1, -1, 1)),  # trefoil
        ("n=3 s1 s2^-1 s1 s2^-1", (1, -3, 1)),  # figure-eight
    ],
)
def test_unreduced_minor_normalization_frozen(text, coeffs):
    assert _alexander_by_unreduced_minor(parse_word(text)) == Laurent(0, coeffs)


@settings(deadline=None)
@given(braid_words(min_strands=2, max_strands=5, min_length=30, max_length=80))
def test_alexander_matches_unreduced_minor(w: BraidWord):
    """Words this long make Bareiss products and quotients long enough to
    be Kronecker-packed."""
    assert alexander_polynomial(w) == _alexander_by_unreduced_minor(w)

