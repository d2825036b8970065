from __future__ import annotations

from hypothesis import strategies as st

from braidcalc.burau import Laurent
from braidcalc.moves import Exchange, InvalidSplit
from braidcalc.words import BraidWord, sigma_power


def laurent(terms: dict[int, int]) -> Laurent:
    """The polynomial sum(c * t^p for p, c in terms.items())."""
    powers = [p for p, c in terms.items() if c]
    if not powers:
        return Laurent.zero()
    low = min(powers)
    return Laurent(low, tuple(terms.get(p, 0) for p in range(low, max(powers) + 1)))


def coeff(poly: Laurent, power: int) -> int:
    i = power - poly.low
    return poly.coeffs[i] if 0 <= i < len(poly.coeffs) else 0


def find_exchange_splits(word: BraidWord) -> tuple[tuple[int, int], ...]:
    """All positions where an exchange move applies to the word as written."""
    out: list[tuple[int, int]] = []
    j = len(word.letters) - 1
    for i in range(j):
        try:
            Exchange((i, j)).apply(word)
        except InvalidSplit:
            continue
        out.append((i, j))
    return tuple(out)


def braid_words(
    min_strands: int = 1,
    max_strands: int = 5,
    max_length: int = 12,
    min_length: int = 0,
) -> st.SearchStrategy[BraidWord]:
    def build(n: int) -> st.SearchStrategy[BraidWord]:
        if n == 1:
            return st.just(BraidWord(1, ()))
        letter = st.tuples(
            st.integers(min_value=1, max_value=n - 1), st.sampled_from((1, -1))
        )
        return st.builds(
            BraidWord,
            st.just(n),
            st.lists(letter, min_size=min_length, max_size=max_length).map(tuple),
        )

    return st.integers(min_value=min_strands, max_value=max_strands).flatmap(build)


def braid_words_3(max_length: int = 12) -> st.SearchStrategy[BraidWord]:
    return braid_words(min_strands=3, max_strands=3, max_length=max_length)


def syllable_words() -> st.SearchStrategy[BraidWord]:
    """Words of up to six syllables s_i^k with 1 <= |k| <= 12 on 2-6
    strands, so that, unlike in ``braid_words``, letters repeat."""

    def build(n: int) -> st.SearchStrategy[BraidWord]:
        syllable = st.builds(
            sigma_power,
            st.just(n),
            st.integers(min_value=1, max_value=n - 1),
            st.integers(min_value=-12, max_value=12).filter(bool),
        )
        return st.lists(syllable, max_size=6).map(
            lambda parts: BraidWord(n, tuple(x for part in parts for x in part.letters))
        )

    return st.integers(min_value=2, max_value=6).flatmap(build)
