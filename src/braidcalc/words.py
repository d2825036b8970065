"""Braid words on a fixed number of strands.

A word is a sequence of Artin generator letters.  Each letter is a pair
``(index, sign)`` with ``1 <= index <= strands - 1`` and ``sign`` either
``+1`` or ``-1``, standing for sigma_index or its inverse.  The strand
count travels with the word so that the same letter sequence on different
braid groups compares unequal.
"""

from __future__ import annotations

import re
from itertools import groupby
from operator import itemgetter

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


def _value_class(cls: type) -> type:
    """Make ``cls`` an immutable value over the fields its body annotates.

    Each method below is added unless the class defines its own: an
    ``__init__`` taking the fields by position or keyword, with class
    attributes as defaults, then calling the class's ``_validate``;
    equality within one class and a hash, both of the field tuple; and a
    ``Name(field=value, ...)`` repr.  Setting or deleting an attribute
    raises ``AttributeError``.  Classes built per op write their own
    ``__init__``, and the most compared ones their own ``__eq__`` and
    ``__hash__``, with plain attribute reads: on CPython 3.11 these are
    faster than the argument handling and the field-tuple key here.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    key = lambda obj: tuple(getattr(obj, n) for n in names)
    fields = set(names)
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    validate = getattr(cls, "_validate", None)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            # a field given twice is dict()'s TypeError
            values = dict(defaults, **dict(zip(names, args)), **kwargs)
            if len(args) > len(names) or values.keys() != fields:
                raise TypeError(f"{cls.__name__} takes the fields {names}, got {args} and {kwargs}")
            args = map(values.__getitem__, names)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        if validate is not None:
            validate(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def __hash__(self):
        return hash(key(self))

    def refuse(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    # a class without fields keeps object's __init__, which takes no arguments
    for method in (__init__, __eq__, __hash__, __repr__) if names else (__eq__, __hash__, __repr__):
        if method.__name__ not in cls.__dict__:
            setattr(cls, method.__name__, method)
    cls.__setattr__ = cls.__delattr__ = refuse
    cls.__match_args__ = names
    return cls


def _field_values(obj) -> dict:
    """The fields of a value-class instance, by name, in field order."""
    return {name: getattr(obj, name) for name in obj.__match_args__}


@_value_class
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[tuple[int, int], ...]

    def __init__(self, strands: int, letters: tuple[tuple[int, int], ...] = ()) -> None:
        if not 1 <= strands <= MAX_STRANDS:
            raise ValueError(f"strands must be in 1..{MAX_STRANDS}, got {strands}")
        for index, sign in dict.fromkeys(letters):
            if not 1 <= index <= strands - 1:
                raise ValueError(f"generator index {index} out of range for {strands} strands")
            if sign not in (1, -1):
                raise ValueError(f"sign must be +-1, got {sign}")
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "letters", letters)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is BraidWord:
            return self.strands == other.strands and self.letters == other.letters
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.strands, self.letters))

    def __len__(self) -> int:
        return len(self.letters)

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
    ``BraidWord.__init__`` is skipped.  Callers state why their
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
