from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from hypothesis import strategies as st

from braidcalc.b3 import (
    _BATTERY_FUNCTIONS,
    _FP_GENS,
    DEFAULT_BATTERIES,
    B3NormalForm,
    ClosureClass,
    Conjugate,
    GenericUnique,
    NotConjugate,
    OracleOutcome,
    TorusKnot2k,
    UnknotClass,
    Unresolved,
    _battery_key,
    _fp_mul,
    _fp_of_word,
    _min_rotation,
    _reduce_z2z3,
    normal_form,
)
from braidcalc.burau import Laurent, burau_matrix
from braidcalc.links import ComponentInvariants, LinkingMatrix, components
from braidcalc.moves import (
    Destabilize,
    Exchange,
    FoliationCounts,
    Move,
    MoveError,
    Stabilize,
    TowerValidation,
)
from braidcalc.templates import BlockSkeleton, Crossing
from braidcalc.words import BraidWord, sigma_power


def laurent(terms: dict[int, int]) -> Laurent:
    """The polynomial sum(c * t^p for p, c in terms.items())."""
    powers = [p for p, c in terms.items() if c]
    if not powers:
        return Laurent.zero()
    low = min(powers)
    return Laurent(low, tuple(terms.get(p, 0) for p in range(low, max(powers) + 1)))


def matrix_trace(m: tuple[tuple[Laurent, ...], ...]) -> Laurent:
    """The sum of the diagonal entries of a Laurent matrix."""
    return sum((m[i][i] for i in range(len(m))), Laurent.zero())


def coeff(poly: Laurent, power: int) -> int:
    i = power - poly.low
    return poly.coeffs[i] if 0 <= i < len(poly.coeffs) else 0


def reference_instantiate(sk: BlockSkeleton, assignment: dict[str, BraidWord]) -> BraidWord:
    """``templates.instantiate`` letter by letter: each block letter is
    shifted by the block's start position minus one."""
    letters: list[tuple[int, int]] = []
    for item in sk.items:
        if isinstance(item, Crossing):
            letters.append((item.index, item.sign))
        else:
            shift = item.start_position - 1
            for index, sign in assignment[item.block_id].letters:
                letters.append((index + shift, sign))
    return BraidWord(sk.strands, tuple(letters))


def find_exchange_splits(word: BraidWord) -> tuple[tuple[int, int], ...]:
    """All positions where an exchange move applies to the word as written."""
    out: list[tuple[int, int]] = []
    j = len(word.letters) - 1
    for i in range(j):
        try:
            Exchange((i, j)).apply(word)
        except MoveError:
            continue
        out.append((i, j))
    return tuple(out)


# (v+, v-, s+, s-) per move: (de)stabilizations by sign, none otherwise
_FOLIATION_COUNTS = {
    (Stabilize, 1): (1, 0, 1, 0),
    (Stabilize, -1): (0, 1, 1, 0),
    (Destabilize, 1): (1, 0, 1, 0),
    (Destabilize, -1): (1, 0, 0, 1),
}


def reference_validate_tower(
    mode: str, initial: BraidWord, moves: tuple[Move, ...]
) -> TowerValidation:
    """``moves.validate_tower`` by building and keeping every state first,
    then checking legality, drift across all states and the balance."""
    if mode not in ("transversal", "topological"):
        raise ValueError(f"unknown mode {mode!r}")
    states = [initial]
    for move in moves:
        states.append(move.apply(states[-1]))
    problems: list[tuple[str, int]] = []
    counts = [0, 0, 0, 0]
    for k, move in enumerate(moves):
        if mode == "transversal" and isinstance(move, (Stabilize, Destabilize)):
            if move.sign < 0:
                problems.append(("illegal_move_for_mode", k))
        delta = _FOLIATION_COUNTS.get((type(move), getattr(move, "sign", 0)), (0, 0, 0, 0))
        counts = [c + d for c, d in zip(counts, delta)]
    if mode == "transversal":
        first = states[0].bennequin()
        for k, state in enumerate(states):
            if state.bennequin() != first:
                problems.append(("bennequin_drift", k))
                break
    v_plus, v_minus, s_plus, s_minus = counts
    if states[0].bennequin() - states[-1].bennequin() != (s_plus - s_minus) - (v_plus - v_minus):
        problems.append(("bennequin_identity", len(moves)))
    return TowerValidation(not problems, FoliationCounts(*counts), tuple(problems))


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


_Y_EXP = {"Y": 1, "Y2": 2}


# The letter-level route to the B3 normal form, kept as an independent
# reference for the run-length ``b3.normal_form``.
# With Y = image(s1 s2) and X = image(s1 s2 s1):
#   s1 = Y^-1 X = Y2 X,   s1^-1 = X Y,   s2 = X Y^-2 = X Y2,   s2^-1 = Y X
_LETTER_IMAGES: dict[tuple[int, int], tuple[str, ...]] = {
    (1, 1): ("Y2", "X"),
    (1, -1): ("X", "Y"),
    (2, 1): ("X", "Y2"),
    (2, -1): ("Y", "X"),
}


@dataclass(frozen=True)
class FreeProductWord:
    """Reduced word in the central quotient of B3.

    Letters: ``X`` (the involution, image of s1 s2 s1) and ``Y``/``Y2``
    (the order-three element, image of s1 s2, and its square).
    """

    letters: tuple[str, ...]

    def __post_init__(self) -> None:
        for letter in self.letters:
            if letter not in ("X", "Y", "Y2"):
                raise ValueError(f"unknown letter {letter!r}")

    @classmethod
    def from_letters(cls, raw: tuple[str, ...]) -> FreeProductWord:
        return cls(_reduce_z2z3(tuple(raw), "X", _Y_EXP))


def quotient_image(word: BraidWord) -> FreeProductWord:
    """Image of a 3-strand word in the central quotient, letter by letter."""
    if word.strands != 3:
        raise ValueError(f"need exactly 3 strands, got {word.strands}")
    raw = tuple(out for letter in word.letters for out in _LETTER_IMAGES[letter])
    return FreeProductWord.from_letters(raw)


def reference_cyclic_reduce(
    letters: tuple[str, ...], two: str, y_exp: dict[str, int]
) -> tuple[str, ...]:
    """Cyclic reduction of a freely reduced Z/2 * Z/3 word by trimming its
    ends: two letters of the order-two factor cancel, two of the
    order-three factor become their product, appended at the end."""
    by_exp = {v: k for k, v in y_exp.items()}
    # the cyclic word is w[head:]; both ends are trimmed in place
    w = list(letters)
    head = 0
    while len(w) - head >= 2:
        first, last = w[head], w[-1]
        if first == two and last == two:
            head += 1
            w.pop()
        elif first != two and last != two:
            total = (y_exp[last] + y_exp[first]) % 3
            head += 1
            w.pop()
            if total:
                w.append(by_exp[total])
        else:
            break
    return tuple(w[head:])


def letter_normal_form(word: BraidWord) -> B3NormalForm:
    """``b3.normal_form`` by the letter route."""
    cyc = reference_cyclic_reduce(quotient_image(word).letters, "X", _Y_EXP)
    return B3NormalForm(word.exponent_sum(), _min_rotation(cyc))


def reference_classify_closure(word: BraidWord) -> ClosureClass:
    """``b3.classify_closure`` with every candidate built as letters and
    put through ``normal_form``: the unknot candidates s1^mu s2^tau
    first, then the torus candidates s1^k s2^mu."""
    nf = normal_form(word)
    e = nf.exponent_sum
    for mu, tau in ((1, 1), (-1, -1), (1, -1)):
        if mu + tau != e:
            continue
        if nf == normal_form(sigma_power(3, 1, mu) * sigma_power(3, 2, tau)):
            return UnknotClass((mu, tau))
    for mu in (1, -1):
        k = e - mu
        if abs(k) < 2:
            continue
        if nf == normal_form(sigma_power(3, 1, k) * sigma_power(3, 2, mu)):
            return TorusKnot2k(k, mu)
    return GenericUnique()


# The two-walk route to the closure components, kept as an independent
# reference for the one-walk ``links._sweep``: one walk for the strand
# permutation, its cycle decomposition, then a second walk that assigns
# each crossing to a component or a component pair.


def reference_permutation(word: BraidWord) -> tuple[int, ...]:
    """``images[k]`` is the end position of the strand that starts at k + 1."""
    occupant = list(range(1, word.strands + 1))  # occupant[p-1] = strand at p
    for index, _ in word.letters:
        occupant[index - 1], occupant[index] = occupant[index], occupant[index - 1]
    images = [0] * word.strands
    for pos, strand in enumerate(occupant, start=1):
        images[strand - 1] = pos
    return tuple(images)


def permutation_cycles(images: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Cycles including fixed points, each from its smallest member,
    sorted by that member."""
    seen: set[int] = set()
    out: list[tuple[int, ...]] = []
    for start in range(1, len(images) + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        k = images[start - 1]
        while k != start:
            cyc.append(k)
            seen.add(k)
            k = images[k - 1]
        out.append(tuple(cyc))
    return tuple(out)


def images_from_cycles(cycles: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """The permutation with these cycles: each member goes to the next."""
    images = [0] * sum(map(len, cycles))
    for cyc in cycles:
        for k, strand in enumerate(cyc):
            images[strand - 1] = cyc[(k + 1) % len(cyc)]
    return tuple(images)


def component_permutation(word: BraidWord) -> tuple[int, ...]:
    """The strand permutation read back from ``links.components``."""
    return images_from_cycles(tuple(c.members for c in components(word)))


def reference_components(
    word: BraidWord,
) -> tuple[tuple[ComponentInvariants, ...], LinkingMatrix]:
    """``links.components`` and ``links.linking_matrix`` by two walks."""
    cycles = permutation_cycles(reference_permutation(word))
    comp_of = {strand: k for k, cyc in enumerate(cycles) for strand in cyc}
    occupant = list(range(1, word.strands + 1))
    self_writhe = [0] * len(cycles)
    mixed = [[0] * len(cycles) for _ in cycles]
    for index, sign in word.letters:
        a, b = occupant[index - 1], occupant[index]
        ca, cb = comp_of[a], comp_of[b]
        if ca == cb:
            self_writhe[ca] += sign
        else:
            mixed[ca][cb] += sign
            mixed[cb][ca] += sign
        occupant[index - 1], occupant[index] = b, a
    for row in mixed:
        assert all(count % 2 == 0 for count in row)
    comps = tuple(
        ComponentInvariants(cyc, len(cyc), e, e - len(cyc))
        for cyc, e in zip(cycles, self_writhe)
    )
    entries = tuple(tuple(count // 2 for count in row) for row in mixed)
    return comps, LinkingMatrix(cycles, entries)


def reduced_corpus(max_len: int) -> tuple[BraidWord, ...]:
    """Freely reduced three-strand words up to the given length."""
    gens = ((1, 1), (1, -1), (2, 1), (2, -1))
    words = [()]
    frontier = [()]
    for _ in range(max_len):
        grown = []
        for w in frontier:
            for g in gens:
                if w and w[-1] == (g[0], -g[1]):
                    continue
                grown.append(w + (g,))
        words.extend(grown)
        frontier = grown
    return tuple(BraidWord(3, w) for w in words)


# The full-ball route of the conjugator search, kept as a reference for
# the early-stopping ``b3.brute_force_conjugacy_oracle``: index every
# conjugator of the ball by fingerprint first, then look w2's up.


@lru_cache(maxsize=16)
def _reference_ball(
    letters: tuple[tuple[int, int], ...], bound: int
) -> dict[tuple[int, int, int, int], list[tuple[tuple[int, int], ...]]]:
    """Fingerprint index of g w g^-1 over all reduced conjugators |g| <= bound.

    Keys are Burau matrices mod a 61-bit prime at a fixed t; values list
    the conjugators (breadth-first, so shortest first).  Children extend
    g on the left, which costs one conjugation of the parent's matrix.
    """
    base = _fp_of_word(letters)
    index: dict[tuple[int, int, int, int], list[tuple[tuple[int, int], ...]]] = {}
    index[base] = [()]
    frontier: list[tuple[tuple[tuple[int, int], ...], tuple[int, int, int, int]]] = [((), base)]
    for _ in range(bound):
        next_frontier = []
        for g_letters, matrix in frontier:
            for gen in ((1, 1), (1, -1), (2, 1), (2, -1)):
                if g_letters and g_letters[0] == (gen[0], -gen[1]):
                    continue
                child_letters = (gen,) + g_letters
                inverse = _FP_GENS[(gen[0], -gen[1])]
                child_matrix = _fp_mul(_FP_GENS[gen], _fp_mul(matrix, inverse))
                index.setdefault(child_matrix, []).append(child_letters)
                next_frontier.append((child_letters, child_matrix))
        frontier = next_frontier
    return index


def reference_conjugacy_oracle(
    w1: BraidWord,
    w2: BraidWord,
    conjugator_bound: int = 6,
    invariant_batteries: tuple[str, ...] = DEFAULT_BATTERIES,
) -> OracleOutcome:
    """``b3.brute_force_conjugacy_oracle`` by the full fingerprint index."""
    if w1.strands != 3 or w2.strands != 3:
        raise ValueError("oracle works on 3-strand words only")
    for name in invariant_batteries:
        if name not in _BATTERY_FUNCTIONS:
            raise ValueError(f"unknown battery {name!r}")
        if _battery_key(name, w1.letters) != _battery_key(name, w2.letters):
            return NotConjugate(name)
    target = _fp_of_word(w2.letters)
    ball = _reference_ball(w1.letters, conjugator_bound)
    expected = burau_matrix(w2)
    for g_letters in ball.get(target, ()):
        g = BraidWord(3, g_letters)
        if burau_matrix(w1.conjugated_by(g)) == expected:
            return Conjugate(g)
    return Unresolved()
