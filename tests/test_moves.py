from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import braidcalc.words as words
from braidcalc.links import alexander_polynomial
from braidcalc.moves import (
    ConjugateBy,
    Destabilize,
    Exchange,
    FoliationCounts,
    InvalidSplit,
    MoveError,
    NotDestabilizable,
    Stabilize,
    tower_from_json,
    tower_from_moves,
    tower_to_json,
    validate_tower,
)
from braidcalc.words import BraidWord, parse_word

from conftest import braid_words, find_exchange_splits


def test_stabilize():
    w = parse_word("n=2 s1^3")
    up = Stabilize(1).apply(w)
    assert up == parse_word("n=3 s1^3 s2")
    assert up.bennequin() == w.bennequin()
    down = Stabilize(-1).apply(w)
    assert down == parse_word("n=3 s1^3 s2^-1")
    assert down.bennequin() == w.bennequin() - 2


def test_destabilize_direct():
    w = parse_word("n=3 s1^3 s2")
    assert Destabilize(1).apply(w) == parse_word("n=2 s1^3")
    with pytest.raises(NotDestabilizable):
        Destabilize(-1).apply(w)


def test_destabilize_searches_rotations():
    # the removable letter sits in the middle; a cyclic shift exposes it
    w = parse_word("n=3 s1 s2 s1^2")
    assert Destabilize(1).apply(w) == parse_word("n=2 s1^2 s1")
    # two uses of the last generator: not a destabilization
    with pytest.raises(NotDestabilizable):
        Destabilize(1).apply(parse_word("n=3 s2 s1 s2"))


@given(braid_words(min_strands=2, max_strands=4, max_length=10), st.sampled_from((1, -1)))
def test_destabilize_is_the_rotation_ending_in_the_letter(w: BraidWord, sign: int):
    """The one rotation taken is the first, in rotation order, of the
    reduced word that ends in sigma_{n-1}^sign."""
    letters = w.free_reduced().letters
    last = (w.strands - 1, sign)
    ending = [
        letters[k:] + letters[:k]
        for k in range(len(letters))
        if (letters[k:] + letters[:k])[-1] == last
    ]
    if sum(i == w.strands - 1 for i, _ in letters) != 1 or not ending:
        with pytest.raises(NotDestabilizable):
            Destabilize(sign).apply(w)
    else:
        assert Destabilize(sign).apply(w) == BraidWord(w.strands - 1, ending[0][:-1])


def test_destabilize_long_word():
    w = parse_word("n=3 s2 s1^200000")
    assert Destabilize(1).apply(w) == parse_word("n=2 s1^200000")


def test_destabilize_free_reduces_first():
    w = parse_word("n=3 s1 s2 s2^-1 s1 s2")
    assert Destabilize(1).apply(w) == parse_word("n=2 s1^2")


def test_conjugate():
    w = parse_word("n=3 s1")
    g = parse_word("n=3 s2")
    assert ConjugateBy(g).apply(w) == parse_word("n=3 s2 s1 s2^-1")


def test_conjugate_cap(monkeypatch):
    """A conjugate move is refused before it builds a word of more than
    MAX_LETTERS letters, and a tower names the move."""
    monkeypatch.setattr(words, "MAX_LETTERS", 10)
    g = parse_word("n=3 s2^3")
    assert len(ConjugateBy(g).apply(parse_word("n=3 s1^4"))) == 10
    with pytest.raises(MoveError, match="conjugating gives 11 letters, more than 10"):
        ConjugateBy(g).apply(parse_word("n=3 s1^5"))
    text = (
        '{"initial_word": "n=3 s1", "mode": "topological", "moves": '
        '[{"kind": "conjugate", "conjugator": "s2^2"}, {"kind": "conjugate", "conjugator": "s1^3"}]}'
    )
    with pytest.raises(ValueError, match=r"^move 1 \(conjugate\): conjugating gives 11 letters"):
        tower_from_json(text)


def test_exchange_frozen():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    out = Exchange((2, 4)).apply(w)
    assert out == parse_word("n=3 s1^2 s2^-1 s1^-1 s2")
    assert out.exponent_sum() == w.exponent_sum()
    assert find_exchange_splits(w) == ((2, 4),)


def test_exchange_rejections():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    with pytest.raises(InvalidSplit):
        Exchange((0, 4)).apply(w)  # position 0 is not a last-generator letter
    with pytest.raises(InvalidSplit):
        Exchange((2, 3)).apply(w)  # j must be final
    same_sign = parse_word("n=3 s1 s2 s1 s2")
    with pytest.raises(InvalidSplit):
        Exchange((1, 3)).apply(same_sign)
    nested = parse_word("n=3 s2 s2 s1 s2^-1")
    with pytest.raises(InvalidSplit):
        Exchange((0, 3)).apply(nested)  # interior uses the last generator


def test_exchange_preserves_link():
    w = parse_word("n=3 s1^3 s2 s1^-2 s2^-1")
    out = Exchange((3, 6)).apply(w)
    assert alexander_polynomial(out) == alexander_polynomial(w)


def test_tower_transversal_valid():
    w = parse_word("n=2 s1^3")
    tower = tower_from_moves(
        w,
        (Stabilize(1), ConjugateBy(parse_word("n=3 s1")), Destabilize(1)),
        "transversal",
    )
    result = validate_tower(tower)
    assert result.ok
    assert result.problems == ()
    assert (result.counts.v_plus, result.counts.v_minus) == (2, 0)
    assert (result.counts.s_plus, result.counts.s_minus) == (2, 0)


def test_tower_transversal_rejects_negative_moves():
    w = parse_word("n=2 s1^3")
    tower = tower_from_moves(w, (Stabilize(-1),), "transversal")
    result = validate_tower(tower)
    assert not result.ok
    codes = {code for code, _ in result.problems}
    assert "illegal_move_for_mode" in codes
    assert "bennequin_drift" in codes


def test_tower_topological_allows_negative_moves():
    w = parse_word("n=2 s1^3")
    tower = tower_from_moves(w, (Stabilize(-1), Destabilize(-1)), "topological")
    result = validate_tower(tower)
    assert result.ok
    assert result.counts == FoliationCounts(1, 1, 1, 1)


def test_tower_detects_tampered_state():
    w = parse_word("n=2 s1^3")
    tower = tower_from_moves(w, (Stabilize(1),), "transversal")
    tampered = tower.__class__(
        tower.mode, (tower.states[0], parse_word("n=3 s1^3 s2^-1")), tower.moves
    )
    result = validate_tower(tampered)
    assert not result.ok
    assert ("step_mismatch", 0) in result.problems


def test_tower_json_roundtrip():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    tower = tower_from_moves(
        w,
        (Exchange((2, 4)), ConjugateBy(parse_word("n=3 s1^-1")), Stabilize(1)),
        "transversal",
    )
    text = tower_to_json(tower)
    rebuilt = tower_from_json(text)
    assert rebuilt == tower
    assert validate_tower(rebuilt).ok


@given(braid_words(min_strands=2, max_strands=4, max_length=8), st.sampled_from((1, -1)))
def test_stab_then_destab_is_identity(w: BraidWord, sign: int):
    up = Stabilize(sign).apply(w)
    down = Destabilize(sign).apply(up)
    assert down.free_reduced() == w.free_reduced()


@given(braid_words(min_strands=2, max_strands=4, max_length=8))
def test_exchange_involutive_where_defined(w: BraidWord):
    for split in find_exchange_splits(w):
        once = Exchange(split).apply(w)
        twice = Exchange(split).apply(once)
        assert twice == w
        assert once.permutation() == w.permutation()


@given(braid_words(min_strands=2, max_strands=4, max_length=6))
def test_stabilization_preserves_alexander(w: BraidWord):
    up = Stabilize(1).apply(w)
    assert alexander_polynomial(up) == alexander_polynomial(w)
