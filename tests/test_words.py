from __future__ import annotations

import pytest
from hypothesis import given

import braidcalc.words as words
from braidcalc.links import components
from braidcalc.words import BraidWord, format_word, parse_word, sigma_power

from conftest import braid_words, component_permutation

W = parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1")


def test_parse_basics():
    assert parse_word("s1^3 s2^-1").letters == ((1, 1), (1, 1), (1, 1), (2, -1))
    assert parse_word("s1^3 s2^-1").strands == 3
    assert parse_word("n=4 s1").strands == 4
    assert parse_word("s2", default_strands=5).strands == 5
    # explicit n= wins over the default
    assert parse_word("n=3 s2", default_strands=5).strands == 3
    assert parse_word("n=1").letters == ()


def test_parse_rejections():
    with pytest.raises(ValueError):
        parse_word("s1^0")
    with pytest.raises(ValueError):
        parse_word("n=2 s2")
    with pytest.raises(ValueError):
        parse_word("x3")
    with pytest.raises(ValueError):
        parse_word("n=zz s1")
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(3, ((1, 2),))


def test_first_bad_letter_is_named():
    """Each distinct letter is checked once, in first-occurrence order."""
    with pytest.raises(ValueError, match="generator index 5 out of range for 3 strands"):
        BraidWord(3, ((1, 1), (5, 1), (1, 1), (2, 7), (5, 1)))
    with pytest.raises(ValueError, match=r"sign must be \+-1, got 7"):
        BraidWord(3, ((1, 1), (2, 7), (1, 1), (5, 1)))


def test_format_collects_powers():
    assert format_word(W) == "s1^3 s2^4 s1^-5 s2^-1"
    assert format_word(parse_word("n=4 s1")) == "n=4 s1"
    assert format_word(BraidWord(1, ())) == ""
    assert format_word(BraidWord(3, ())) == "n=3"
    # the highest generator need not be in the last syllable
    assert format_word(parse_word("s3 s1^2")) == "s3 s1^2"
    assert format_word(parse_word("n=5 s3 s1^2")) == "n=5 s3 s1^2"


def test_inverse_frozen():
    w = parse_word("n=3 s1 s2^-1")
    assert w.inverse().letters == ((2, 1), (1, -1))


def test_exponent_sum_and_bennequin_frozen():
    assert W.exponent_sum() == 1
    assert W.bennequin() == -2
    fam = parse_word("n=3 s1^5 s2^8 s1^6 s2^-1")
    assert fam.exponent_sum() == 18
    assert fam.bennequin() == 15


def test_permutation_frozen():
    assert component_permutation(W) == (1, 3, 2)
    assert [c.members for c in components(W)] == [(1,), (2, 3)]
    w2 = parse_word("n=3 s1^3 s2^-1 s1^-5 s2^4")
    assert [c.members for c in components(w2)] == [(1, 3), (2,)]


def test_free_reduction():
    w = parse_word("n=3 s1 s2 s2^-1 s1^-1 s1")
    assert w.free_reduced() == parse_word("n=3 s1")
    assert parse_word("n=2 s1 s1^-1").free_reduced().letters == ()


def _rotated(w: BraidWord, k: int) -> BraidWord:
    """Cyclic rotation moving the first ``k`` letters to the end."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return BraidWord(w.strands, w.letters[k:] + w.letters[:k])


def _rotations(w: BraidWord) -> tuple[BraidWord, ...]:
    """All cyclic rotations, in rotation order; the empty word has one."""
    return tuple(_rotated(w, k) for k in range(len(w.letters))) or (w,)


def test_rotations():
    empty = BraidWord(3, ())
    assert _rotations(empty) == (empty,)
    w = parse_word("n=3 s1 s2 s1")
    rots = _rotations(w)
    assert len(rots) == 3
    assert rots[1] == parse_word("n=3 s2 s1 s1")
    assert _rotated(w, 0) == w
    assert _rotated(w, 4) == _rotated(w, 1)


def test_sigma_power():
    assert sigma_power(3, 2, -3) == parse_word("n=3 s2^-3")
    assert sigma_power(3, 1, 0) == BraidWord(3, ())
    # the one letter is checked only when the word has letters
    assert sigma_power(2, 5, 0) == BraidWord(2, ())
    with pytest.raises(ValueError, match="generator index 5 out of range for 2 strands"):
        sigma_power(2, 5, 3)


def test_letter_cap(monkeypatch):
    """The cap counts the letters of all tokens together and is checked
    before they are built."""
    monkeypatch.setattr(words, "MAX_LETTERS", 10)
    assert len(parse_word("s1^5 s2^-5")) == 10
    assert len(sigma_power(3, 1, -10)) == 10
    with pytest.raises(ValueError, match="word too long at 's2': more than 10 letters"):
        parse_word("s1^5 s2^-5 s2")
    with pytest.raises(ValueError, match=r"s1\^-11 has more than 10 letters"):
        sigma_power(3, 1, -11)


def test_strand_cap():
    """Strand counts past the cap are refused before any list of that
    length is built, from the constructor, a prefix or an override."""
    assert components(BraidWord(words.MAX_STRANDS))[-1].members == (words.MAX_STRANDS,)
    for strands in (words.MAX_STRANDS + 1, 10**9, 10**100):
        message = f"strands must be in 1..{words.MAX_STRANDS}, got {strands}"
        with pytest.raises(ValueError, match=message):
            BraidWord(strands, ((1, 1),))
        with pytest.raises(ValueError, match=f"got {strands}"):
            parse_word(f"n={strands} s1")
        with pytest.raises(ValueError, match=f"got {strands}"):
            parse_word("s1", default_strands=strands)


def test_mul_strand_mismatch():
    with pytest.raises(ValueError):
        parse_word("n=2 s1") * parse_word("n=3 s1")


@given(braid_words())
def test_roundtrip(w: BraidWord):
    assert parse_word(format_word(w)) == w


@given(braid_words())
def test_inverse_cancels(w: BraidWord):
    assert (w * w.inverse()).free_reduced().letters == ()
    assert (w.inverse() * w).free_reduced().letters == ()


@given(braid_words())
def test_free_reduced_idempotent(w: BraidWord):
    r = w.free_reduced()
    assert r.free_reduced() == r
    assert r.exponent_sum() == w.exponent_sum()
    assert [c.members for c in components(r)] == [c.members for c in components(w)]


@given(braid_words(min_strands=4, max_strands=4), braid_words(min_strands=4, max_strands=4))
def test_permutation_is_a_homomorphism(w: BraidWord, v: BraidWord):
    first, then = component_permutation(w), component_permutation(v)
    assert component_permutation(w * v) == tuple(then[i - 1] for i in first)


@given(braid_words())
def test_bennequin_is_exponent_sum_minus_strands(w: BraidWord):
    assert w.bennequin() == w.exponent_sum() - w.strands


@given(braid_words())
def test_rotation_preserves_exponent_sum(w: BraidWord):
    for r in _rotations(w):
        assert r.exponent_sum() == w.exponent_sum()
