from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import braidcalc.words as words
from braidcalc.links import alexander_polynomial, components
from braidcalc.moves import (
    ConjugateBy,
    Destabilize,
    Exchange,
    FoliationCounts,
    MoveError,
    Stabilize,
    tower_from_json,
    tower_to_json,
    validate_tower,
)
from braidcalc.words import BraidWord, parse_word

from conftest import braid_words, find_exchange_splits, reference_validate_tower


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
    with pytest.raises(MoveError, match="last generator must occur exactly once with sign -1"):
        Destabilize(-1).apply(w)


def test_destabilize_searches_rotations():
    # the removable letter sits in the middle; a cyclic shift exposes it
    w = parse_word("n=3 s1 s2 s1^2")
    assert Destabilize(1).apply(w) == parse_word("n=2 s1^2 s1")
    # two uses of the last generator: not a destabilization
    with pytest.raises(MoveError, match="last generator must occur exactly once with sign 1"):
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
        with pytest.raises(
            MoveError, match=f"last generator must occur exactly once with sign {sign}"
        ):
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
    with pytest.raises(MoveError, match=r"^move 1 \(conjugate\): conjugating gives 11 letters"):
        validate_tower(*tower_from_json(text))


def test_exchange_frozen():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    out = Exchange((2, 4)).apply(w)
    assert out == parse_word("n=3 s1^2 s2^-1 s1^-1 s2")
    assert out.exponent_sum() == w.exponent_sum()
    assert find_exchange_splits(w) == ((2, 4),)


def test_exchange_rejections():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    opposite = "split positions must hold opposite last-generator letters"
    with pytest.raises(MoveError, match=opposite):
        Exchange((0, 4)).apply(w)  # position 0 is not a last-generator letter
    with pytest.raises(MoveError, match=r"split \(2, 3\) out of range for length 5"):
        Exchange((2, 3)).apply(w)  # j must be final
    same_sign = parse_word("n=3 s1 s2 s1 s2")
    with pytest.raises(MoveError, match=opposite):
        Exchange((1, 3)).apply(same_sign)
    nested = parse_word("n=3 s2 s2 s1 s2^-1")
    with pytest.raises(MoveError, match="interior segments may not use the last generator"):
        Exchange((0, 3)).apply(nested)  # interior uses the last generator


def test_exchange_preserves_link():
    w = parse_word("n=3 s1^3 s2 s1^-2 s2^-1")
    out = Exchange((3, 6)).apply(w)
    assert alexander_polynomial(out) == alexander_polynomial(w)


def test_tower_transversal_valid():
    w = parse_word("n=2 s1^3")
    result = validate_tower(
        "transversal",
        w,
        (Stabilize(1), ConjugateBy(parse_word("n=3 s1")), Destabilize(1)),
    )
    assert result.ok
    assert result.problems == ()
    assert (result.counts.v_plus, result.counts.v_minus) == (2, 0)
    assert (result.counts.s_plus, result.counts.s_minus) == (2, 0)


def test_tower_transversal_rejects_negative_moves():
    w = parse_word("n=2 s1^3")
    result = validate_tower("transversal", w, (Stabilize(-1),))
    assert not result.ok
    codes = {code for code, _ in result.problems}
    assert "illegal_move_for_mode" in codes
    assert "bennequin_drift" in codes


def test_tower_topological_allows_negative_moves():
    w = parse_word("n=2 s1^3")
    result = validate_tower("topological", w, (Stabilize(-1), Destabilize(-1)))
    assert result.ok
    assert result.counts == FoliationCounts(1, 1, 1, 1)


@pytest.mark.parametrize(
    "moves, message",
    [
        pytest.param(
            (Stabilize(1), Destabilize(-1)),
            "move 1 (destabilize): last generator must occur exactly once with sign -1",
            id="destabilize",
        ),
        pytest.param(
            (ConjugateBy(parse_word("n=4 s3")),),
            "move 0 (conjugate): cannot multiply words on 4 and 2 strands",
            id="conjugate",
        ),
        pytest.param(
            (Stabilize(1), Exchange((0, 3))),
            "move 1 (exchange): split positions must hold opposite last-generator letters",
            id="exchange",
        ),
        pytest.param(
            (Stabilize(2),), "move 0 (stabilize): sign must be +-1, got 2", id="stabilize"
        ),
    ],
)
def test_tower_move_that_does_not_apply_is_named(moves, message):
    """The replay stops at the first move that does not apply and names
    its index and kind; the moves after it are never asked for."""

    def stream():
        yield from moves
        raise AssertionError("a move after the faulty one was decoded")

    with pytest.raises(MoveError) as info:
        validate_tower("transversal", parse_word("n=2 s1^3"), stream())
    assert str(info.value) == message


def test_tower_unknown_mode_only_after_the_moves_apply():
    w = parse_word("n=2 s1^3")
    with pytest.raises(MoveError, match=r"^move 0 \(destabilize\)"):
        validate_tower("smooth", w, (Destabilize(1),))
    with pytest.raises(ValueError, match="^unknown mode 'smooth'$"):
        validate_tower("smooth", w, (Stabilize(1),))


def _random_tower(rng: random.Random) -> tuple[str, BraidWord, tuple]:
    """A tower of moves that all apply, negative (de)stabilizations included."""

    def letters(strands: int, low: int, high: int) -> tuple:
        length = rng.randint(low, high)
        return tuple((rng.randint(1, strands - 1), rng.choice((1, -1))) for _ in range(length))

    strands = rng.randint(2, 4)
    initial = BraidWord(strands, letters(strands, 0, 8))
    word, moves = initial, []
    for _ in range(rng.randint(0, 12)):
        options = [Stabilize(1), Stabilize(-1)] if word.strands < 6 else []
        for sign in (1, -1):
            try:
                Destabilize(sign).apply(word)
            except MoveError:
                continue
            options += [Destabilize(sign)] * 3
        options += [Exchange(split) for split in find_exchange_splits(word)]
        if word.strands > 1:
            options.append(ConjugateBy(BraidWord(word.strands, letters(word.strands, 1, 3))))
        move = rng.choice(options)
        word = move.apply(word)
        moves.append(move)
    return rng.choice(("transversal", "topological")), initial, tuple(moves)


def test_tower_validation_matches_states_reference():
    """The streaming replay and the states-holding reference agree on
    ok, counts and the problems in order."""
    rng = random.Random(12)
    seen = set()
    for _ in range(600):
        mode, initial, moves = _random_tower(rng)
        expected = reference_validate_tower(mode, initial, moves)
        assert validate_tower(mode, initial, iter(moves)) == expected, (mode, initial, moves)
        seen.update(code for code, _ in expected.problems)
        seen.update(type(m).__name__ + str(getattr(m, "sign", "")) for m in moves)
    assert {"illegal_move_for_mode", "bennequin_drift", "Destabilize-1", "Exchange"} <= seen


def test_tower_json_roundtrip():
    w = parse_word("n=3 s1^2 s2 s1^-1 s2^-1")
    moves = (Exchange((2, 4)), ConjugateBy(parse_word("n=3 s1^-1")), Stabilize(1))
    text = tower_to_json("transversal", w, moves)
    mode, initial, rebuilt = tower_from_json(text)
    rebuilt = tuple(rebuilt)
    assert (mode, initial, rebuilt) == ("transversal", w, moves)
    assert tower_to_json(mode, initial, rebuilt) == text
    assert validate_tower(*tower_from_json(text)).ok


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
        assert [c.members for c in components(once)] == [c.members for c in components(w)]


@given(braid_words(min_strands=2, max_strands=4, max_length=6))
def test_stabilization_preserves_alexander(w: BraidWord):
    up = Stabilize(1).apply(w)
    assert alexander_polynomial(up) == alexander_polynomial(w)
