"""Braid words on a fixed number of strands.

A word is a sequence of Artin generator letters.  Each letter is a pair
``(index, sign)`` with ``1 <= index <= strands - 1`` and ``sign`` either
``+1`` or ``-1``, standing for sigma_index or its inverse.  The strand
count travels with the word so that the same letter sequence on different
braid groups compares unequal.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from typing import Iterator

__all__ = [
    "BraidWord",
    "parse_word",
    "format_word",
    "sigma_power",
]

# The most letters parse_word, sigma_power, moves.ConjugateBy or
# templates.instantiate builds into one word.  Each checks it at call
# time, before the letters are allocated, so that a huge exponent is a
# ValueError and not an OverflowError or MemoryError.
MAX_LETTERS = 1_000_000

# The most strands a word or a template may have, checked before anything
# of that size is allocated.  The linking matrix and the `components`
# output grow with its square: at 500 strands one letter's JSON report
# peaks at about 150 MB, at 1 000 at about 530 MB.
MAX_STRANDS = 500


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.strands <= MAX_STRANDS:
            raise ValueError(f"strands must be in 1..{MAX_STRANDS}, got {self.strands}")
        for index, sign in dict.fromkeys(self.letters):
            if not 1 <= index <= self.strands - 1:
                raise ValueError(
                    f"generator index {index} out of range for {self.strands} strands"
                )
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign}")

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.letters)

    def __mul__(self, other: BraidWord) -> BraidWord:
        return BraidWord(_common_strands(self, other), self.letters + other.letters)

    def __str__(self) -> str:
        return format_word(self)

    def inverse(self) -> BraidWord:
        """Reversed word with all signs flipped.

        >>> str(parse_word("n=3 s1 s2^-1").inverse())
        's2 s1^-1'
        """
        return BraidWord(
            self.strands, tuple((i, -s) for i, s in reversed(self.letters))
        )

    def conjugated_by(self, g: BraidWord) -> BraidWord:
        """g * self * g^-1, unreduced, built and validated once."""
        return BraidWord(_common_strands(g, self), g.letters + self.letters + g.inverse().letters)

    def free_reduced(self) -> BraidWord:
        """Cancel adjacent inverse pairs until none remain."""
        stack: list[tuple[int, int]] = []
        for letter in self.letters:
            if stack and stack[-1][0] == letter[0] and stack[-1][1] == -letter[1]:
                stack.pop()
            else:
                stack.append(letter)
        return BraidWord(self.strands, tuple(stack))

    def exponent_sum(self) -> int:
        return sum(map(itemgetter(1), self.letters))

    def bennequin(self) -> int:
        """Self-linking number of the closure: exponent sum minus strands."""
        return self.exponent_sum() - self.strands


def _derived(strands: int, letters: tuple[tuple[int, int], ...]) -> BraidWord:
    """A word built from letters already known to fit ``strands``.

    Only the strand count is checked; the letter scan of
    ``BraidWord.__post_init__`` is skipped.  Callers state why their
    letters are in range.
    """
    if not 1 <= strands <= MAX_STRANDS:
        raise ValueError(f"strands must be in 1..{MAX_STRANDS}, got {strands}")
    word = object.__new__(BraidWord)
    object.__setattr__(word, "strands", strands)
    object.__setattr__(word, "letters", letters)
    return word


def _common_strands(left: BraidWord, right: BraidWord) -> int:
    """The strand count of a product of the two words."""
    if left.strands != right.strands:
        raise ValueError(f"cannot multiply words on {left.strands} and {right.strands} strands")
    return left.strands


def sigma_power(strands: int, index: int, power: int) -> BraidWord:
    """sigma_index^power as a word on ``strands`` strands."""
    if abs(power) > MAX_LETTERS:
        raise ValueError(f"s{index}^{power} has more than {MAX_LETTERS} letters")
    if not power:
        return BraidWord(strands, ())
    # the one checked letter is every letter of the word
    letter = BraidWord(strands, ((index, 1 if power > 0 else -1),)).letters
    return _derived(strands, letter * abs(power))


_TOKEN = re.compile(r"^s(\d+)(?:\^(-?\d+))?$")


def parse_word(text: str, default_strands: int | None = None) -> BraidWord:
    """Parse the ``s1 s2^-1``-style notation.

    Tokens are whitespace separated.  An optional leading ``n=INT`` pins
    the strand count; otherwise ``default_strands`` is used if given,
    else the count is inferred as ``max index + 1`` (1 for the empty
    word).  A bare ``sI`` means ``sI^1``; ``^0`` is rejected, and so is a
    word of more than ``MAX_LETTERS`` letters.

    >>> parse_word("s1^3 s2^-1").letters
    ((1, 1), (1, 1), (1, 1), (2, -1))
    >>> parse_word("n=4 s1").strands
    4
    """
    tokens = text.split()
    strands = default_strands
    if tokens and tokens[0].startswith("n="):
        head = tokens.pop(0)
        try:
            strands = int(head[2:])
        except ValueError:
            raise ValueError(f"bad strand count: {head!r}") from None
    letters: list[tuple[int, int]] = []
    for tok in tokens:
        m = _TOKEN.match(tok)
        if m is None:
            raise ValueError(f"bad letter token: {tok!r}")
        index = int(m.group(1))
        power = int(m.group(2)) if m.group(2) is not None else 1
        if power == 0:
            raise ValueError(f"zero power not allowed: {tok!r}")
        if len(letters) + abs(power) > MAX_LETTERS:
            raise ValueError(f"word too long at {tok!r}: more than {MAX_LETTERS} letters")
        sign = 1 if power > 0 else -1
        letters.extend(((index, sign),) * abs(power))
    if strands is None:
        strands = max((i for i, _ in letters), default=0) + 1
    return BraidWord(strands, tuple(letters))


def format_word(word: BraidWord) -> str:
    """Inverse of :func:`parse_word`, with powers collected.

    The ``n=`` prefix appears only when the strand count is not what
    parsing would infer, so round-trips are exact.

    >>> format_word(parse_word("s1 s1 s1 s2^-1"))
    's1^3 s2^-1'
    """
    runs = [(letter, len(list(group))) for letter, group in groupby(word.letters)]
    inferred = max((index for (index, _), _ in runs), default=0) + 1
    out = [f"n={word.strands}"] if word.strands != inferred else []
    for (index, sign), k in runs:
        power = k * sign
        out.append(f"s{index}" + (f"^{power}" if power != 1 else ""))
    return " ".join(out)
