"""Markov moves on closed-braid representatives and audited move towers.

A tower is a mode, an initial word and a sequence of moves.
``validate_tower`` replays the moves, keeping only the current word,
checks the mode's legality rules, and attributes elliptic/hyperbolic
point counts (v+, v-, s+, s-) of the swept annulus foliation to the
moves:

* positive stabilization or destabilization: one positive vertex and one
  positive singularity,
* negative stabilization: one negative vertex, one positive singularity,
* negative destabilization: one positive vertex, one negative
  singularity,
* conjugation and exchange: none.

These attributions are the unique single-vertex, single-singularity
choices under which the self-linking bookkeeping identity

    sl(first) - sl(last) == (s+ - s-) - (v+ - v-)

holds for arbitrary towers.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, Union

from . import words
from .words import BraidWord, _value_class, format_word, parse_word

__all__ = [
    "Stabilize",
    "Destabilize",
    "ConjugateBy",
    "Exchange",
    "Move",
    "MoveError",
    "FoliationCounts",
    "TowerValidation",
    "validate_tower",
    "tower_to_json",
    "tower_from_json",
]


class MoveError(ValueError):
    """A move does not apply to the word it was asked to act on."""


@_value_class
class Stabilize:
    sign: int

    def apply(self, word: BraidWord) -> BraidWord:
        """Append sigma_n^sign on one extra strand."""
        if self.sign not in (1, -1):
            raise MoveError(f"sign must be +-1, got {self.sign}")
        return BraidWord(word.strands + 1, word.letters + ((word.strands, self.sign),))


@_value_class
class Destabilize:
    sign: int

    def apply(self, word: BraidWord) -> BraidWord:
        """Drop a final sigma_{n-1}^sign, taking a cyclic representative.

        The freely reduced word must use the last generator exactly once
        and with the requested sign; exactly one rotation ends in that
        letter, the one starting just after it, so replays are exact.
        """
        if word.strands < 2:
            raise MoveError("no strand to remove")
        top = word.strands - 1
        letters = word.free_reduced().letters
        uses = [k for k, (i, _) in enumerate(letters) if i == top]
        if len(uses) != 1 or letters[uses[0]][1] != self.sign:
            raise MoveError(
                f"last generator must occur exactly once with sign {self.sign}"
            )
        k = uses[0]
        return BraidWord(word.strands - 1, letters[k + 1:] + letters[:k])


@_value_class
class ConjugateBy:
    conjugator: BraidWord

    def apply(self, word: BraidWord) -> BraidWord:
        """g * word * g^-1, refused past ``words.MAX_LETTERS`` letters."""
        length = len(word) + 2 * len(self.conjugator)
        if length > words.MAX_LETTERS:
            raise MoveError(
                f"conjugating gives {length} letters, more than {words.MAX_LETTERS}"
            )
        return word.conjugated_by(self.conjugator)


@_value_class
class Exchange:
    """Flip the signs of the two outermost last-generator letters.

    ``split`` is the pair of letter positions (i, j) carrying
    sigma_{n-1}^d and sigma_{n-1}^-d; the word must factor as
    P sigma_{n-1}^d Q sigma_{n-1}^-d with P, Q not using the last
    generator after position bookkeeping, and j must be the final letter.
    """

    split: tuple[int, int]

    def apply(self, word: BraidWord) -> BraidWord:
        i, j = self.split
        top = word.strands - 1
        if not (0 <= i < j == len(word.letters) - 1):
            raise MoveError(f"split {self.split} out of range for length {len(word.letters)}")
        li, lj = word.letters[i], word.letters[j]
        if li[0] != top or lj[0] != top or li[1] != -lj[1]:
            raise MoveError("split positions must hold opposite last-generator letters")
        between = word.letters[i + 1 : j]
        before = word.letters[:i]
        if any(idx == top for idx, _ in before + between):
            raise MoveError("interior segments may not use the last generator")
        flipped = (
            before + ((top, -li[1]),) + between + ((top, li[1]),)
        )
        return BraidWord(word.strands, flipped)


Move = Union[Stabilize, Destabilize, ConjugateBy, Exchange]


@_value_class
class FoliationCounts:
    v_plus: int = 0
    v_minus: int = 0
    s_plus: int = 0
    s_minus: int = 0


@_value_class
class TowerValidation:
    ok: bool
    counts: FoliationCounts
    problems: tuple[tuple[str, int], ...]


def _counts_for(move: Move) -> tuple[int, int, int, int]:
    if isinstance(move, Stabilize):
        return (1, 0, 1, 0) if move.sign > 0 else (0, 1, 1, 0)
    if isinstance(move, Destabilize):
        return (1, 0, 1, 0) if move.sign > 0 else (1, 0, 0, 1)
    return (0, 0, 0, 0)


def validate_tower(mode: str, initial: BraidWord, moves: Iterable[Move]) -> TowerValidation:
    """Replay, legality-check, and balance a tower, one state at a time.

    A move that does not apply raises ``MoveError`` naming its index and
    kind; an unknown mode is a ``ValueError`` once every move has applied.
    Problems carry (code, step).  Codes: ``illegal_move_for_mode`` for
    negative (de)stabilizations in transversal mode, ``bennequin_drift``
    at the first state of a transversal tower whose self-linking differs
    from the initial word's, and ``bennequin_identity`` when the
    foliation count bookkeeping fails across the tower.
    """
    transversal = mode == "transversal"
    illegal: list[tuple[str, int]] = []
    drift: list[tuple[str, int]] = []
    first = initial.bennequin()
    state, step, counts = initial, 0, [0, 0, 0, 0]
    for move in moves:
        if transversal and isinstance(move, (Stabilize, Destabilize)) and move.sign < 0:
            illegal.append(("illegal_move_for_mode", step))
        try:
            state = move.apply(state)
        except ValueError as exc:
            raise MoveError(f"move {step} ({_move_to_obj(move)['kind']}): {exc}") from None
        counts = [c + d for c, d in zip(counts, _counts_for(move))]
        step += 1
        if transversal and not drift and state.bennequin() != first:
            drift.append(("bennequin_drift", step))
    if mode not in ("transversal", "topological"):
        raise ValueError(f"unknown mode {mode!r}")
    totals = FoliationCounts(*counts)
    balance = (totals.s_plus - totals.s_minus) - (totals.v_plus - totals.v_minus)
    problems = illegal + drift
    if first - state.bennequin() != balance:
        problems.append(("bennequin_identity", step))
    return TowerValidation(not problems, totals, tuple(problems))


def _move_to_obj(move: Move) -> dict:
    if isinstance(move, Stabilize):
        return {"kind": "stabilize", "sign": move.sign}
    if isinstance(move, Destabilize):
        return {"kind": "destabilize", "sign": move.sign}
    if isinstance(move, ConjugateBy):
        return {"kind": "conjugate", "conjugator": format_word(move.conjugator)}
    if isinstance(move, Exchange):
        return {"kind": "exchange", "split": list(move.split)}
    raise TypeError(f"not a move: {move!r}")


def _json_int(value: object) -> int:
    # JSON true and false decode to bool, a subclass of int
    if type(value) is not int:
        raise TypeError(f"not an integer: {value!r}")
    return value


def _move_from_obj(obj: dict, strands: int, index: int) -> Move:
    """Decode the move at position ``index`` of a tower's move list."""
    if not isinstance(obj, dict):
        raise ValueError(f"move {index} must be a JSON object, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "stabilize":
            return Stabilize(_json_int(obj["sign"]))
        if kind == "destabilize":
            return Destabilize(_json_int(obj["sign"]))
        if kind == "conjugate":
            return ConjugateBy(parse_word(obj["conjugator"], default_strands=strands))
        if kind == "exchange":
            i, j = obj["split"]
            return Exchange((_json_int(i), _json_int(j)))
    except KeyError as exc:
        raise ValueError(f"move {index} ({kind}) has no {exc.args[0]!r}") from None
    except ValueError as exc:  # a bad conjugator word or a split of the wrong length
        raise ValueError(f"move {index} ({kind}): {exc}") from None
    except (TypeError, AttributeError):
        raise ValueError(f"move {index} is a malformed {kind} move: {obj!r}") from None
    raise ValueError(f"move {index} has unknown kind {kind!r}")


def tower_to_json(mode: str, initial: BraidWord, moves: Iterable[Move]) -> str:
    return json.dumps(
        {
            "mode": mode,
            "initial_word": format_word(initial),
            "moves": [_move_to_obj(m) for m in moves],
        },
        indent=2,
    )


def _moves_from_objs(objs: list, strands: int) -> Iterator[Move]:
    """Decode moves one at a time, each at the strand count the moves
    before it leave, so a replay decodes a move only after the previous
    one applied."""
    for index, obj in enumerate(objs):
        move = _move_from_obj(obj, strands, index)
        yield move
        strands += {Stabilize: 1, Destabilize: -1}.get(type(move), 0)


def tower_from_json(text: str) -> tuple[str, BraidWord, Iterator[Move]]:
    """The mode, the initial word and the lazily decoded moves of a
    tower's JSON description; ``validate_tower`` replays them."""
    try:
        obj = json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("a tower description must be a JSON object")
    for key, kind in (("initial_word", str), ("moves", list), ("mode", str)):
        if key not in obj:
            raise ValueError(f"missing key {key!r}")
        if not isinstance(obj[key], kind):
            raise ValueError(f"{key!r} must be a JSON {'array' if kind is list else 'string'}")
    initial = parse_word(obj["initial_word"])
    return obj["mode"], initial, _moves_from_objs(obj["moves"], initial.strands)
