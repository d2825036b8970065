"""Conjugacy decisions in the 3-strand braid group.

The center of B3 is generated by the full twist (s1 s2)^3, and the
quotient by the center is the modular group, a free product of a
two-element and a three-element cyclic group.  Exponent sum pins the
central power (the full twist has exponent sum 6), so two words are
conjugate iff their exponent sums agree and their quotient images are
conjugate; free-product conjugacy is cyclic rotation of the cyclically
reduced word, with single-letter words compared inside their finite
factor.

``normal_form`` works on syllables, not letters: the image of s_i^k is
a run of k repeated two-letter blocks, so free reduction is arithmetic
on run lengths, cyclic reduction is that same rule on runs moved from
front to back, and the least rotation is found on pairs of runs.  A
word's cost is one scan for its syllables plus work per syllable.

The brute-force oracle at the bottom audits the normal-form route by a
disjoint one: invariant batteries (exponent sum, exact Burau
characteristic polynomial, and a modular-group class computed from
integer matrices by continued-fraction peeling) plus a bounded search
for an explicit conjugator, verified through the Burau representation,
which is faithful on three strands.  Batteries other than the exponent
sum are cached per free conjugacy class, which every g w g^-1 shares
with w; the class is a conjugate of w, so it has w's invariants, and it
is found by free-group reduction alone, never by the normal form.  The
oracle imports ``burau`` where it is used, so the normal-form route
alone never loads the Burau code.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache
from itertools import groupby
from typing import Callable, Iterable, Union

from .words import BraidWord, _value_class

__all__ = [
    "B3NormalForm",
    "normal_form",
    "conjugate_in_B3",
    "UnknotClass",
    "TorusKnot2k",
    "GenericUnique",
    "classify_closure",
    "kolee_both_signs",
    "Conjugate",
    "NotConjugate",
    "Unresolved",
    "OracleOutcome",
    "brute_force_conjugacy_oracle",
]


# ---------------------------------------------------------------------------
# free product Z/2 * Z/3: letter-level reduction engine
#
# The oracle's matrix route reduces S/U words with it; the engine takes
# the letter names as parameters, so the tests run the letter route of
# the normal form (X, Y, Y2) through the same code as a reference.

def _reduce_z2z3(letters: tuple[str, ...], two: str, y_exp: dict[str, int]) -> tuple[str, ...]:
    by_exp = {v: k for k, v in y_exp.items()}
    stack: list[str] = []
    for letter in letters:
        if not stack:
            stack.append(letter)
            continue
        top = stack[-1]
        if top == two and letter == two:
            stack.pop()
        elif top != two and letter != two:
            total = (y_exp[top] + y_exp[letter]) % 3
            stack.pop()
            if total:
                stack.append(by_exp[total])
        else:
            stack.append(letter)
    return tuple(stack)


def _min_rotation(letters: tuple[str, ...]) -> tuple[str, ...]:
    """Lexicographically least rotation, in linear time.

    Duval's Lyndon factorization of the doubled word (J.-P. Duval,
    J. Algorithms 4, 1983): the last factor to start within the first
    copy starts the least rotation.
    """
    n = len(letters)
    doubled = letters + letters
    i = start = 0
    while i < n:
        start = i
        j, k = i + 1, i
        while j < 2 * n and doubled[k] <= doubled[j]:
            k = i if doubled[k] < doubled[j] else k + 1
            j += 1
        while i <= k:
            i += j - k
    return doubled[start:start + n]


# The quotient image of a syllable s_i^(+-k) is k letters Y^b with one X
# between each two and X^g0, X^g1 at its ends, keyed by the letter as
# (g0, b, g1).  With Y = image(s1 s2) and X = image(s1 s2 s1):
#   s1^k = (Y2 X)^k,  s1^-k = (X Y)^k,  s2^k = (X Y2)^k,  s2^-k = (Y X)^k
_SYLLABLE_IMAGES: dict[tuple[int, int], tuple[int, int, int]] = {
    (1, 1): (0, 2, 1),
    (1, -1): (1, 1, 0),
    (2, 1): (1, 2, 0),
    (2, -1): (0, 1, 1),
}


@_value_class
class B3NormalForm:
    """Complete conjugacy invariant: exponent sum + canonical cyclic word.

    The cyclic word is the lexicographically smallest rotation
    (X < Y < Y2) of the cyclically reduced quotient image.
    """

    exponent_sum: int
    cyclic_word: tuple[str, ...]

    def __init__(self, exponent_sum: int, cyclic_word: tuple[str, ...]) -> None:
        object.__setattr__(self, "exponent_sum", exponent_sum)
        object.__setattr__(self, "cyclic_word", cyclic_word)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is B3NormalForm:
            return self.exponent_sum == other.exponent_sum and self.cyclic_word == other.cyclic_word
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.exponent_sum, self.cyclic_word))

    def __str__(self) -> str:
        return f"e={self.exponent_sum}; [{','.join(self.cyclic_word)}]"


def normal_form(word: BraidWord) -> B3NormalForm:
    """Normal form of a 3-strand word, computed on syllables.

    >>> from .words import parse_word
    >>> str(normal_form(parse_word("n=3 s1^3 s2^-2")))
    'e=1; [X,Y,X,Y,X,Y2,X,Y2,X,Y2]'
    """
    if word.strands != 3:
        raise ValueError(f"need exactly 3 strands, got {word.strands}")
    return _syllable_normal_form((letter, len(list(group))) for letter, group in groupby(word.letters))


def _syllable_normal_form(syllables: Iterable[tuple[tuple[int, int], int]]) -> B3NormalForm:
    """Normal form of the 3-strand word given as (letter, power) syllables,
    each power at least 1.

    A freely reduced word in the quotient alternates X with Y or Y2, so
    it is X^head Y^e1 X Y^e2 X ... X Y^en X^tail.  The exponents are
    held as runs of equal values.  Runs alternate between 1 and 2, so a
    run is stored as its length, with the last run's exponent beside
    the deque.  Each syllable is one run.  Where two runs meet with no X
    between them, Y^a Y^a becomes one letter Y^-a, and Y^a Y^-a cancels
    along with the X's around it, min(m, k) letters of each run in one
    step.

    Cyclic reduction is conjugation followed by the same rule: while the
    ends meet (head == tail) and the word is longer than one Y letter,
    its first run, or its only run's first letter, moves to the back and
    is pushed like a syllable.  Each move cancels or merges Y letters;
    the ends meet again only when a whole run cancelled, which leaves
    one run fewer, so there is at most one move per run.
    """
    runs: deque[int] = deque()
    head = tail = top = esum = 0
    items: list[tuple[int, int, int, int]] = []
    for letter, k in syllables:
        esum += letter[1] * k
        items.append((*_SYLLABLE_IMAGES[letter], k))
    while True:
        for g0, b, g1, k in items:
            if not runs:  # X^head X^g0
                head ^= g0
            elif tail == g0:  # the word's last Y letter meets the syllable's first
                if top != b:  # Y^a Y^-a: cancel, with the X's between
                    m = runs.pop()
                    if m > k:
                        runs.append(m - k)
                        tail = 1 ^ g1
                        continue
                    k -= m
                    top = b  # the run below has the other exponent
                    if not k:  # an X, or X^head, meets X^g1
                        if runs:
                            tail = 1 ^ g1
                        else:
                            head = tail = head ^ g1
                        continue
                    if not runs:
                        head ^= 1
                if runs:  # Y^b Y^b = Y^-b
                    m = runs.pop() - 1
                    if m:
                        runs += (m, 1)
                    elif runs:
                        runs[-1] += 1
                    else:
                        runs.append(1)
                    top = 3 - b
                    k -= 1
            if k:
                if runs and top == b:
                    runs[-1] += k
                else:
                    runs.append(k)
                top = b
            tail = g1
        if head != tail or not runs or runs[0] == 1 == len(runs):
            break
        # move X^head (Y^first X)^m from the front to the back
        first = top if len(runs) % 2 else 3 - top
        if len(runs) > 1:
            m = runs.popleft()
        else:
            m = 1
            runs[0] -= 1
        items = [(head, first, 1, m)]
        head = 0
    return B3NormalForm(esum, _least_cyclic_word(runs, head, tail, top))


def _least_cyclic_word(runs: deque[int], head: int, tail: int, top: int) -> tuple[str, ...]:
    """Least letter word of X^head runs X^tail, cyclically reduced by
    ``_syllable_normal_form``.

    With head == tail the word is empty, X, or one Y letter.  Otherwise
    it is a rotation of X Y^e1 X Y^e2 ... X Y^en, whose least rotation
    (X < Y < Y2) is the least rotation of its exponents.  Read them as
    pairs of runs 1^a 2^b and key each pair (-a, b): a longer run of 1s,
    or an equal one followed by a shorter run of 2s, is less letter by
    letter, so ``_min_rotation`` on the keys finds it.
    """
    if head == tail:
        return ("Y" if top == 1 else "Y2",) if runs else ("X",) * head
    first = top if len(runs) % 2 else 3 - top
    if len(runs) > 1 and first == top:
        runs[-1] += runs.popleft()
        first = 3 - first
    if len(runs) == 1:
        return ("X", "Y" if top == 1 else "Y2") * runs[0]
    if first == 2:
        runs.append(runs.popleft())
    pairs = iter(runs)
    out: list[str] = []
    for ones, twos in _min_rotation(tuple((-a, b) for a, b in zip(pairs, pairs))):
        out += ("X", "Y") * -ones
        out += ("X", "Y2") * twos
    return tuple(out)


def conjugate_in_B3(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide conjugacy of two 3-strand words.

    Conjugation keeps the exponent sum, and the sum is the first field
    of `B3NormalForm`, so words whose sums differ are not conjugate and
    the normal forms are built only when the sums agree.

    >>> from .words import parse_word
    >>> conjugate_in_B3(parse_word("n=3 s1 s2"), parse_word("n=3 s2 s1"))
    True
    """
    for word in (w1, w2):
        if word.strands != 3:
            raise ValueError(f"need exactly 3 strands, got {word.strands}")
    return w1.exponent_sum() == w2.exponent_sum() and normal_form(w1) == normal_form(w2)


# ---------------------------------------------------------------------------
# closures with non-unique conjugacy classes


@_value_class
class UnknotClass:
    """One of the three 3-braid conjugacy classes closing to the unknot."""

    tag: tuple[int, int]


@_value_class
class TorusKnot2k:
    """Class of s1^k s2^mu, closing to a (2, k) torus knot or link."""

    k: int
    mu: int


@_value_class
class GenericUnique:
    """Closure admits a unique conjugacy class of 3-braid representatives."""


ClosureClass = Union[UnknotClass, TorusKnot2k, GenericUnique]


def classify_closure(nf: B3NormalForm) -> ClosureClass:
    """Detect the exceptional 3-braid closure classes from a normal form.

    The unknot has exactly three classes, s1^mu s2^tau for (mu, tau) in
    {(1,1), (-1,-1), (1,-1)}, s1^-1 s2 being conjugate to s1 s2^-1; the
    (2,k) torus types are carried by s1^k s2^mu with |k| >= 2.  Exponent
    sum e pins the candidates to s1^(e-mu) s2^mu for mu = +-1, each
    built as two syllables, never as letters.  Everything else closes
    to a link with a unique class.

    A shape test comes first.  A candidate's image is (Y2 X)^k or
    (X Y)^|k|, all of one Y letter, followed by the single Y letter of
    s2^mu's X Y2 or Y X; free and cyclic reduction change letters only
    where the two syllables meet.  So a candidate's cyclic word holds at
    most one "Y" or at most one "Y2" (the tests check every candidate
    with 1 <= |k| <= 2000), and a word with more than one of each
    matches neither candidate.  Each search stops at the second
    occurrence, "Y2" first, as it is the one a long generic word tends
    to repeat early.
    """
    word = nf.cyclic_word
    if _occurs_twice(word, "Y2") and _occurs_twice(word, "Y"):
        return GenericUnique()
    e = nf.exponent_sum
    for mu in (1, -1):
        k = e - mu
        if k and nf == _syllable_normal_form((((1, 1 if k > 0 else -1), abs(k)), ((2, mu), 1))):
            if abs(k) >= 2:
                return TorusKnot2k(k, mu)
            return UnknotClass((k, mu) if k == mu else (1, -1))
    return GenericUnique()


def _occurs_twice(word: tuple[str, ...], letter: str) -> bool:
    """Whether ``letter`` occurs twice in ``word``, read up to its second."""
    try:
        word.index(letter, word.index(letter) + 1)
    except ValueError:
        return False
    return True


def kolee_both_signs(u: int, v: int, w: int, eps: int) -> bool:
    """Whether s1^u s2^v s1^w s2^eps admits flypes of both signs.

    True exactly when u == -eps, or w == -eps, or v == -2*eps.
    """
    return u == -eps or w == -eps or v == -2 * eps


# ---------------------------------------------------------------------------
# brute-force oracle


@_value_class
class Conjugate:
    conjugator: BraidWord

    def __init__(self, conjugator: BraidWord) -> None:
        object.__setattr__(self, "conjugator", conjugator)


@_value_class
class NotConjugate:
    witness: str

    def __init__(self, witness: str) -> None:
        object.__setattr__(self, "witness", witness)


@_value_class
class Unresolved:
    pass


OracleOutcome = Union[Conjugate, NotConjugate, Unresolved]

# the oracle's invariant batteries, in the order it runs them, and the
# longest conjugator it searches for
BATTERIES = ("exponent_sum", "burau_char_poly", "psl2z_class")
CONJUGATOR_BOUND = 6

# reduced Burau generators at t = -1: integer matrices whose classes in
# PSL2(Z) realize the central quotient (the full twist maps to -identity)
_PSL_GEN: dict[tuple[int, int], tuple[int, int, int, int]] = {
    (1, 1): (2, -1, 1, 0),
    (1, -1): (0, 1, -1, 2),
    (2, 1): (1, -1, 0, 1),
    (2, -1): (1, 1, 0, 1),
}

_S_EXP = {"U": 1, "U2": 2}


def _t_power_letters(power: int) -> tuple[str, ...]:
    # T = S U and T^-1 = U2 S in PSL2(Z), with S = [[0,-1],[1,0]]
    if power >= 0:
        return ("S", "U") * power
    return ("U2", "S") * (-power)


def _su_class(m: tuple[int, int, int, int]) -> tuple[str, ...]:
    """Canonical cyclic S/U word of a determinant-one integer matrix.

    Continued-fraction peeling: while the lower-left entry is nonzero,
    split off T^q S with q the floor quotient; the terminal matrix is
    +-T^m.  The letter word is then reduced in the free product
    (S^2 = U^3 = identity), cyclically reduced, and rotated to its
    lexicographic minimum, which is a complete conjugacy invariant.
    """
    a, b, c, d = m
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant 1")
    letters: list[str] = []
    while c != 0:
        q = a // c
        letters.extend(_t_power_letters(q))
        letters.append("S")
        # M := S^-1 T^-q M, which strictly shrinks |c|
        a, b, c, d = c, d, -(a - q * c), -(b - q * d)
    letters.extend(_t_power_letters(b if a == 1 else -b))
    reduced = _reduce_z2z3(tuple(letters), "S", _S_EXP)
    # reduced = u c u^-1 with c cyclically reduced and |u| = |u^-1|, so its
    # middle lies in c, and rotated there it reduces to a rotation of c
    half = len(reduced) // 2
    return _min_rotation(_reduce_z2z3(reduced[half:] + reduced[:half], "S", _S_EXP))


def _psl2z_class(word: BraidWord) -> tuple[str, ...]:
    m = (1, 0, 0, 1)
    for letter in word.letters:
        g = _PSL_GEN[letter]
        m = (
            m[0] * g[0] + m[1] * g[2],
            m[0] * g[1] + m[1] * g[3],
            m[2] * g[0] + m[3] * g[2],
            m[2] * g[1] + m[3] * g[3],
        )
    return _su_class(m)


def _burau_char_poly(word: BraidWord) -> object:
    # a reduced 3-strand Burau matrix is 2x2 with determinant (-t)^e, so its
    # trace and exponent sum e fix its characteristic polynomial
    from . import burau

    return burau.burau_trace(word), word.exponent_sum()


_BATTERY_FUNCTIONS: dict[str, Callable[[BraidWord], object]] = {
    "exponent_sum": lambda w: w.exponent_sum(),
    "burau_char_poly": _burau_char_poly,
    "psl2z_class": _psl2z_class,
}


def _free_class(letters: tuple[tuple[int, int], ...]) -> tuple[tuple[int, int], ...]:
    """Least rotation of ``letters`` freely, then cyclically, reduced.

    Cyclically reduced words are conjugate in the free group exactly
    when one is a rotation of the other (R. Lyndon and P. Schupp,
    Combinatorial Group Theory, 1977, ch. I), so every g w g^-1 has w's
    class, and the class, a conjugate of w in B3, has w's invariants.
    """
    stack: list[tuple[int, int]] = []
    for letter in letters:
        if stack and stack[-1] == (letter[0], -letter[1]):
            stack.pop()
        else:
            stack.append(letter)
    lo, hi = 0, len(stack) - 1
    while lo < hi and stack[lo] == (stack[hi][0], -stack[hi][1]):
        lo += 1
        hi -= 1
    return _min_rotation(tuple(stack[lo:hi + 1]))


# keyed by _free_class: each battery is a conjugacy invariant and the key
# is a conjugate of the word.  perfbench/spans.py reads cache_info(), so
# the name and the lru_cache stay
@lru_cache(maxsize=16384)
def _battery_key(name: str, letters: tuple[tuple[int, int], ...]) -> object:
    return _BATTERY_FUNCTIONS[name](BraidWord(3, letters))


_FP_PRIME = 2**61 - 1
_FP_T = 1_048_573
_FP_TINV = pow(_FP_T, -1, _FP_PRIME)
# in the order the conjugator search tries them
_FP_GENS: dict[tuple[int, int], tuple[int, int, int, int]] = {
    (1, 1): ((1 - _FP_T) % _FP_PRIME, _FP_T, 1, 0),
    (1, -1): (0, 1, _FP_TINV, (1 - _FP_TINV) % _FP_PRIME),
    (2, 1): (1, _FP_PRIME - 1, 0, (-_FP_T) % _FP_PRIME),
    (2, -1): (1, (-_FP_TINV) % _FP_PRIME, 0, (-_FP_TINV) % _FP_PRIME),
}


def _fp_mul(x: tuple[int, int, int, int], y: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    p = _FP_PRIME
    return (
        (x[0] * y[0] + x[1] * y[2]) % p,
        (x[0] * y[1] + x[1] * y[3]) % p,
        (x[2] * y[0] + x[3] * y[2]) % p,
        (x[2] * y[1] + x[3] * y[3]) % p,
    )


def _fp_of_word(letters: tuple[tuple[int, int], ...]) -> tuple[int, int, int, int]:
    m = (1, 0, 0, 1)
    for letter in letters:
        m = _fp_mul(m, _FP_GENS[letter])
    return m


# perfbench/spans.py reads this cache's cache_info(), so it keeps its name and
# lru_cache; the bound stays in the key, so no walk is reused at another bound
@lru_cache(maxsize=16)
def _conjugation_ball(
    w1: tuple[tuple[int, int], ...], w2: tuple[tuple[int, int], ...], bound: int
) -> BraidWord | None:
    """The first reduced conjugator g, |g| <= bound, with g w1 g^-1 = w2,
    or None once the whole ball is walked.

    The walk is breadth first, so g is a shortest one.  Each node's
    fingerprint, its Burau matrix mod a 61-bit prime at a fixed t, is
    compared with w2's, and a match is confirmed by exact Burau equality
    (faithful on three strands).  Children extend g on the left, which
    costs one conjugation of the parent's matrix.  The root g = () is
    always checked, so a negative bound acts as 0.
    """
    from . import burau

    word = BraidWord(3, w1)
    target = _fp_of_word(w2)
    expected = burau.burau_matrix(BraidWord(3, w2))
    queue = deque([((), _fp_of_word(w1))])
    while queue:
        g_letters, matrix = queue.popleft()
        if matrix == target:
            g = BraidWord(3, g_letters)
            if burau.burau_matrix(word.conjugated_by(g)) == expected:
                return g
        if len(g_letters) < bound:
            for (i, s), gen in _FP_GENS.items():
                if not g_letters or g_letters[0] != (i, -s):
                    child = _fp_mul(gen, _fp_mul(matrix, _FP_GENS[(i, -s)]))
                    queue.append((((i, s),) + g_letters, child))
    return None


def brute_force_conjugacy_oracle(w1: BraidWord, w2: BraidWord) -> OracleOutcome:
    """Independent conjugacy decision for 3-strand words.

    Runs the invariant batteries of ``BATTERIES`` in order and reports
    ``NotConjugate`` naming the first one that separates the words.  The
    exponent sums are compared directly; the other batteries are read
    from ``_battery_key`` under each word's ``_free_class``, computed
    once per call, which g w g^-1 shares with w.  Otherwise searches the
    freely reduced conjugators up to ``CONJUGATOR_BOUND`` letters,
    shortest first, and stops at the first one verified; a fingerprint
    hit is confirmed by exact Burau-matrix equality (faithful on three
    strands), so a returned certificate is always valid.  ``Unresolved``
    means the bounded search ended without a certificate.
    """
    if w1.strands != 3 or w2.strands != 3:
        raise ValueError("oracle works on 3-strand words only")
    keys = None
    for name in BATTERIES:
        if name == "exponent_sum":
            same = w1.exponent_sum() == w2.exponent_sum()
        else:
            if keys is None:
                keys = _free_class(w1.letters), _free_class(w2.letters)
            same = _battery_key(name, keys[0]) == _battery_key(name, keys[1])
        if not same:
            return NotConjugate(name)
    g = _conjugation_ball(w1.letters, w2.letters, CONJUGATOR_BOUND)
    return Unresolved() if g is None else Conjugate(g)
