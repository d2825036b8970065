"""Invariants of the closure link of a braid word.

Components are the cycles of the underlying permutation, labelled by
their starting strand positions.  A single sweep down the word moves the
strands and sums crossing signs per pair of strands.  Which component a
strand belongs to is known only once the sweep has ended, so the pair
sums are then folded into each component's self-writhe or a component
pair's mixed crossing count; mixed counts are always even and halve to
linking numbers.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import accumulate
from operator import sub

from .burau import Laurent, burau_matrix, burau_trace, determinant
from .words import BraidWord, _value_class

__all__ = [
    "ComponentInvariants",
    "LinkingMatrix",
    "components",
    "linking_matrix",
    "alexander_polynomial",
]


@_value_class
class ComponentInvariants:
    """One closure component: its strands and its own Bennequin number.

    ``bennequin`` is ``self_writhe - strand_count``, the self-linking
    number the component would have as a closed braid on its own strands.
    """

    members: tuple[int, ...]
    strand_count: int
    self_writhe: int
    bennequin: int


@_value_class
class LinkingMatrix:
    """Pairwise linking numbers, indexed like the component tuple."""

    members: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[int, ...], ...]

    def between(self, i: int, j: int) -> int:
        return self.entries[i][j]

    def total(self) -> int:
        n = len(self.members)
        return sum(self.entries[i][j] for i in range(n) for j in range(i + 1, n))


def _sweep(word: BraidWord) -> tuple[tuple[tuple[int, ...], ...], list[int], dict[tuple[int, int], int]]:
    """Attribute every crossing to a component or a component pair.

    The one pass over the letters keeps at most n(n-1)/2 pair sums.  The
    final positions give each strand's image; each cycle starts at its
    smallest strand and the cycles are sorted by it.
    """
    occupant = list(range(1, word.strands + 1))  # occupant[p - 1] = strand at p
    pair_sign: dict[tuple[int, int], int] = defaultdict(int)
    for index, sign in word.letters:
        a, b = occupant[index - 1], occupant[index]
        pair_sign[(a, b) if a < b else (b, a)] += sign
        occupant[index - 1], occupant[index] = b, a
    image = dict(zip(occupant, range(1, word.strands + 1)))
    comp_of: dict[int, int] = {}
    cycles: list[tuple[int, ...]] = []
    for start in range(1, word.strands + 1):
        cyc: list[int] = []
        strand = start
        while strand not in comp_of:
            comp_of[strand] = len(cycles)
            cyc.append(strand)
            strand = image[strand]
        if cyc:
            cycles.append(tuple(cyc))
    self_writhe = [0] * len(cycles)
    mixed: dict[tuple[int, int], int] = {}
    for (a, b), total in pair_sign.items():
        ca, cb = comp_of[a], comp_of[b]
        if ca == cb:
            self_writhe[ca] += total
        else:
            key = (ca, cb) if ca < cb else (cb, ca)
            mixed[key] = mixed.get(key, 0) + total
    return tuple(cycles), self_writhe, mixed


def components(word: BraidWord) -> tuple[ComponentInvariants, ...]:
    """Per-component invariants, sorted by smallest member strand.

    >>> [c.bennequin for c in components(BraidWord(3, ((1, 1), (1, 1))))]
    [-1, -1, -1]
    """
    cycles, self_writhe, _ = _sweep(word)
    return tuple(
        ComponentInvariants(cyc, len(cyc), e, e - len(cyc))
        for cyc, e in zip(cycles, self_writhe)
    )


def linking_matrix(word: BraidWord) -> LinkingMatrix:
    cycles, _, mixed = _sweep(word)
    n = len(cycles)
    entries = [[0] * n for _ in range(n)]
    for (i, j), count in mixed.items():
        if count % 2 != 0:
            raise AssertionError(f"odd mixed crossing count {count} between {i} and {j}")
        entries[i][j] = entries[j][i] = count // 2
    return LinkingMatrix(cycles, tuple(tuple(row) for row in entries))


_ONE = Laurent.one()


def alexander_polynomial(word: BraidWord) -> Laurent:
    """Alexander polynomial of the closure, via the reduced Burau matrix.

    det(B - I) divided by 1 + t + ... + t^(n-1).  For three strands B is
    2x2, so det(B - I) = 1 - tr B + det B with det B = (-t)^e in closed
    form, and only the trace is read from the Burau walk; other strand
    counts take the Bareiss determinant.  Normalized to minimum degree 0
    with positive top coefficient; the zero polynomial is returned as
    such (split links).
    """
    if word.strands == 3:
        e = word.exponent_sum()
        det = _ONE - burau_trace(word) + Laurent.term(-1 if e % 2 else 1, e)
    else:
        m = [list(row) for row in burau_matrix(word)]
        for i, row in enumerate(m):
            row[i] -= _ONE
        det = determinant(m)
    return _divexact_repunit(det, word.strands).unit_normalized()


def _divexact_repunit(p: Laurent, n: int) -> Laurent:
    """The exact quotient p / (1 + t + ... + t^(n-1)); ValueError if inexact.

    The divisor is (1 - t^n) / (1 - t), so the quotient q is r / (1 - t^n)
    with r = p * (1 - t): q_k = r_k + q_(k-n), the prefix sums of r taken
    with stride n.  The division is exact when the top n sums are zero,
    and q is the sums below them.  A nonzero p shorter than n fails the
    test, as its sums are r itself and r starts with p's lowest term.
    """
    c = p.coeffs
    if not c:
        return p
    r = [c[0], *map(sub, c[1:], c), -c[-1]]
    q = [0] * len(r)
    for i in range(n):
        q[i::n] = accumulate(r[i::n])
    if any(q[-n:]):
        raise ValueError("inexact polynomial division")
    return Laurent(p.low, tuple(q[:-n]))
