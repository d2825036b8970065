from __future__ import annotations

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidcalc.b3 as b3
import braidcalc.burau as burau
from braidcalc.burau import (
    Laurent,
    _entry,
    _laurent,
    _pack,
    _unpacked,
    burau_matrix,
    burau_trace,
    determinant,
)
from braidcalc.links import alexander_polynomial
from braidcalc.words import BraidWord, parse_word, sigma_power

from conftest import braid_words, coeff, laurent, matrix_trace, syllable_words

T = Laurent.term(1, 1)
T_INV = Laurent.term(1, -1)
ONE = Laurent.one()


def _identity(size):
    return tuple(
        tuple(ONE if i == j else Laurent.zero() for j in range(size)) for i in range(size)
    )


def _mat_mul(a, b):
    size = len(a)
    return tuple(
        tuple(
            sum((a[i][k] * b[k][j] for k in range(size)), Laurent.zero())
            for j in range(size)
        )
        for i in range(size)
    )


def test_laurent_arithmetic():
    p = laurent({0: 1, 1: -1})  # 1 - t
    q = laurent({-1: 2, 2: 3})
    assert p + q == laurent({-1: 2, 0: 1, 1: -1, 2: 3})
    assert p * p == laurent({0: 1, 1: -2, 2: 1})
    assert (p - p).is_zero()
    assert str(p) == "1 - t"
    assert str(Laurent.zero()) == "0"
    assert str(laurent({-2: 1, 0: -3, 1: 1})) == "t^-2 - 3 + t"


def test_divexact():
    # (t^3 + 1) / (t + 1) = t^2 - t + 1
    num = laurent({3: 1, 0: 1})
    den = laurent({1: 1, 0: 1})
    assert num.divexact(den) == laurent({2: 1, 1: -1, 0: 1})
    with pytest.raises(ValueError):
        laurent({1: 1}).divexact(den)
    with pytest.raises(ValueError):
        laurent({2: 1, 0: 1}).divexact(den)  # remainder 2
    shifted = num * Laurent.term(1, -2)
    assert shifted.divexact(den) == laurent({0: 1, -1: -1, -2: 1})


@pytest.mark.parametrize("num, div", [((1,), (1, 1)), ((1, 0, 1), (1, 1)), ((1,) * 20, (1,) * 16)])
def test_packed_division_refuses_inexact(num, div):
    with pytest.raises(ValueError):
        Laurent(0, num).divexact(Laurent(0, div))


def test_unit_normalized():
    p = laurent({-1: -1, 0: 1, 1: -1})  # -t^-1 + 1 - t
    assert p.unit_normalized() == laurent({0: 1, 1: -1, 2: 1})
    assert Laurent.zero().unit_normalized() == Laurent.zero()
    assert Laurent.term(-5).unit_normalized() == Laurent.term(5)


def test_generator_matrices_frozen():
    # n=2: sigma_1 is the final generator, 1x1 matrix (-t)
    m = burau_matrix(parse_word("n=2 s1"))
    assert m == ((Laurent.term(-1, 1),),)
    # n=3 conventions
    s1 = burau_matrix(parse_word("n=3 s1"))
    assert s1 == (
        (ONE - T, T),
        (ONE, Laurent.zero()),
    )
    s2 = burau_matrix(parse_word("n=3 s2"))
    assert s2 == (
        (ONE, Laurent.term(-1)),
        (Laurent.zero(), Laurent.term(-1, 1)),
    )


def _letter_matrix(strands, index, sign):
    """The reduced Burau matrix of sigma_index^sign, written out from the
    convention in the ``burau_matrix`` docstring."""
    size = strands - 1
    rows = [list(row) for row in _identity(size)]
    i = index - 1
    if index < size:
        if sign > 0:
            block = ((ONE - T, T), (ONE, Laurent.zero()))
        else:
            block = ((Laurent.zero(), ONE), (T_INV, ONE - T_INV))
        for r in range(2):
            rows[i + r][i:i + 2] = block[r]
    else:
        column = [-ONE] * (size - 1) + [-T] if sign > 0 else [-T_INV] * size
        for r in range(size):
            rows[r][i] = column[r]
    return tuple(tuple(row) for row in rows)


def _burau_reference(word):
    """The product of the written-out letter matrices; the slow route."""
    product = _identity(word.strands - 1)
    for index, sign in word.letters:
        product = _mat_mul(product, _letter_matrix(word.strands, index, sign))
    return product


def test_inverses_multiply_to_identity():
    for n in range(2, 9):
        for index in range(1, n):
            for sign in (1, -1):
                letter = _letter_matrix(n, index, sign)
                assert _mat_mul(letter, _letter_matrix(n, index, -sign)) == _identity(n - 1)
                assert burau_matrix(BraidWord(n, ((index, sign),))) == letter


def test_burau_is_a_homomorphism_frozen():
    w = parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1")
    assert burau_matrix(w) == _burau_reference(w)


@pytest.mark.parametrize("n", range(2, 9))
def test_burau_syllables_match_reference(n):
    """Syllables of 1, 2, 3 and more letters of both signs, on the first,
    a middle and the last generator, between letters of both signs on
    every generator (n = 1 is a row of the next test)."""
    prefix = parse_word(" ".join(f"s{i}^{(-1) ** i}" for i in range(1, n)) + " s1^2", n)
    for index in sorted({1, n // 2, n - 1}):
        for power in (1, 2, 3, 4, 7, -1, -2, -3, -4, -7):
            w = prefix * sigma_power(n, index, power) * prefix.inverse()
            assert burau_matrix(w) == _burau_reference(w), (index, power)


@pytest.mark.parametrize(
    "text, bits",
    [
        pytest.param("n=3 " + "s1 s2^-1 " * 60, 79, id="n3-letters"),
        pytest.param("n=4 " + "s1^2 s2^-3 s3^4 " * 20, 84, id="n4-syllables"),
        pytest.param("n=2 s1^-5 s1^3", 1, id="n2"),
        pytest.param("n=1", 0, id="n1"),
    ],
)
def test_burau_wide_coefficients_frozen(text, bits):
    """Coefficients wider than 64 bits, and the strand counts where the
    matrix is 1 x 1 or empty."""
    w = parse_word(text)
    m = burau_matrix(w)
    assert m == _burau_reference(w)
    widest = max([abs(c) for row in m for x in row for c in x.coeffs], default=0)
    assert widest.bit_length() == bits


@pytest.mark.parametrize("k", [72, 150, 300])
def test_burau_matches_reference_on_pseudo_anosov_powers(k):
    """(s1 s2^-1)^k is pseudo-Anosov: its coefficients grow by about the
    golden ratio per letter, to 200 bits at k = 150, so the walk's digits
    come near the width ``_grow`` proves for them."""
    w = parse_word("n=3 " + "s1 s2^-1 " * k)
    assert burau_matrix(w) == _burau_reference(w)


@pytest.mark.parametrize("n", range(2, 9))
def test_full_twist_powers_are_scalar(n):
    """(s1 ... s_(n-1))^n is the full twist, central, with image t^n * I;
    its powers are periodic words whose coefficients stay 0 or 1."""
    twist = BraidWord(n, tuple((i, 1) for i in range(1, n)) * n)
    assert burau_matrix(twist) == _burau_reference(twist)
    size = n - 1
    for k in (1, 7, 400):
        forward = BraidWord(n, twist.letters * k)
        for word, power in ((forward, n * k), (forward.inverse(), -n * k)):
            scalar = Laurent.term(1, power)
            assert burau_matrix(word) == tuple(
                tuple(scalar if i == j else Laurent.zero() for j in range(size))
                for i in range(size)
            )
    # one letter past the twists is t^(n*k) times the letter
    w = BraidWord(n, twist.letters * 400 + ((1, 1),))
    shift = Laurent.term(1, 400 * n)
    shifted = tuple(tuple(x * shift for x in row) for row in _letter_matrix(n, 1, 1))
    assert burau_matrix(w) == shifted


def test_periodic_words_keep_narrow_digits(monkeypatch):
    """The digit width of a periodic word follows its true coefficients,
    not a bound carried through the whole word."""
    widths = []
    walk = burau._walk

    def recording_walk(cols, syllables, nb):
        widths.append(nb)
        return walk(cols, syllables, nb)

    monkeypatch.setattr(burau, "_walk", recording_walk)
    for text in (
        "n=3 " + "s1 s2 " * 3000,
        "n=3 " + "s1^-1 s2^-1 " * 3000,
        "n=3 " + "s1 s2^2 " * 2000,
        "n=5 " + "s4^-1 s3^-1 s2^-1 s1^-1 " * 1500,
    ):
        widths.clear()
        burau_matrix(parse_word(text))
        assert len(widths) > 1 and max(widths) <= 10, text[:30]


@settings(deadline=None)
@given(syllable_words())
def test_short_segments_match_reference(w):
    """Segments of one or two syllables with one bit of room: every
    repack between segments against the plain product."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burau, "_ROOM_BITS", 1)
        patch.setattr(burau, "_SEGMENT_SYLLABLES", 2)
        assert burau_matrix(w) == _burau_reference(w)


def test_determinant_is_minus_t_to_exponent_sum():
    for text in ("n=3 s1 s2", "n=3 s1^3 s2^4 s1^-5 s2^-1", "n=4 s1 s3^-2 s2"):
        w = parse_word(text)
        det = determinant(burau_matrix(w))
        e = w.exponent_sum()
        expected = Laurent.term(1, 0)
        for _ in range(abs(e)):
            expected = expected * Laurent.term(-1, 1 if e > 0 else -1)
        assert det == expected


def test_determinant_bareiss_frozen():
    z = Laurent.zero()
    m = (
        (Laurent.term(2), Laurent.term(1), z),
        (Laurent.term(1), T, Laurent.term(1)),
        (z, Laurent.term(1), Laurent.term(3)),
    )
    # det = 2*(3t - 1) - 1*3 = 6t - 5
    assert determinant(m) == laurent({1: 6, 0: -5})
    assert determinant(()) == ONE
    singular = ((z, z), (z, ONE))
    assert determinant(singular) == Laurent.zero()


@given(braid_words(min_strands=2, max_strands=4, max_length=8))
def test_burau_respects_inverse(w):
    size = w.strands - 1
    assert _mat_mul(burau_matrix(w), burau_matrix(w.inverse())) == _identity(size)


@settings(deadline=None)
@given(syllable_words())
def test_burau_matches_product_of_letter_matrices(w):
    """The syllable updates against the plain product of generator matrices."""
    assert burau_matrix(w) == _burau_reference(w)


@given(braid_words(min_strands=3, max_strands=3, max_length=8))
def test_trace_is_conjugation_invariant(w):
    g = parse_word("n=3 s1 s2^-1")
    assert matrix_trace(burau_matrix(w.conjugated_by(g))) == matrix_trace(burau_matrix(w))


def _three_strand_words(rng, count, positive=False):
    """Seeded 3-strand words of up to 40 syllables s_i^k, 1 <= |k| <= 40."""
    words = []
    for _ in range(count):
        letters = []
        for _ in range(rng.randint(1, 40)):
            power = rng.randint(1, 40) if positive else rng.choice((1, -1)) * rng.randint(1, 40)
            letters += sigma_power(3, rng.randint(1, 2), power).letters
        words.append(BraidWord(3, tuple(letters)))
    return words


@pytest.mark.parametrize("short", [False, True], ids=["default", "short-segments"])
@pytest.mark.parametrize("positive", [False, True], ids=["mixed", "positive"])
def test_burau_trace_matches_matrix_trace(monkeypatch, positive, short):
    """Seeded 3-strand syllable words.  The empty word and positive words
    have diagonal coefficients of one sign, so the two packed entries add
    in size rather than cancel: the width edge.  Short segments (one or
    two syllables with one bit of room, as in
    ``test_short_segments_match_reference``) make the bounds tight and the
    trace is read from the entries of a later segment."""
    widths = []
    if short:
        monkeypatch.setattr(burau, "_ROOM_BITS", 1)
        monkeypatch.setattr(burau, "_SEGMENT_SYLLABLES", 2)
        walk = burau._walk

        def recording_walk(cols, syllables, nb):
            widths.append(nb)
            return walk(cols, syllables, nb)

        monkeypatch.setattr(burau, "_walk", recording_walk)
    words = _three_strand_words(random.Random(19 + 2 * positive + short), 200, positive)
    # with short segments, its last one has a 7-bit bound and an 8-bit
    # trace, so a digit one bit narrower than _segment's would overflow
    words.append(parse_word("n=3 s2^2 s1^17 s2^-46 s1^-6"))
    if positive:
        words += [BraidWord(3)] + [
            parse_word(text)
            for text in ("n=3 " + "s1 s2 " * 500, "n=3 " + "s1 s2^2 " * 300, "n=3 s1^4000 s2^4000")
        ]
    for w in words:
        assert burau_trace(w) == matrix_trace(burau_matrix(w)), w
    # more than one segment per call on average
    assert not short or len(widths) > 2 * len(words)


def test_callers_read_burau_functions_at_call_time(monkeypatch):
    """Counting wrappers set on the ``burau`` module alone, as a tracer
    would install them, see every call that ``b3`` and ``links`` make."""
    calls = Counter()
    for name in ("burau_matrix", "burau_trace", "determinant"):

        def counted(*args, _name=name, _original=getattr(burau, name)):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(burau, name, counted)
    b3._battery_key.cache_clear()
    b3._conjugation_ball.cache_clear()
    w1 = parse_word("n=3 s1^2 s2^-1 s1 s2^3")
    planted = b3.brute_force_conjugacy_oracle(w1, w1.conjugated_by(parse_word("n=3 s2 s1^-1")))
    assert isinstance(planted, b3.Conjugate)
    # the two words share one free class, so one trace for both, then the
    # target's matrix and the confirmed hit
    assert calls == {"burau_trace": 1, "burau_matrix": 2}
    calls.clear()
    out = b3.brute_force_conjugacy_oracle(parse_word("n=3 s1^2"), parse_word("n=3 s1 s2"))
    assert out == b3.NotConjugate("burau_char_poly")
    assert calls == {"burau_trace": 2}
    calls.clear()
    alexander_polynomial(parse_word("n=3 s1^3 s2^4 s1^-5 s2^-1"))
    assert calls == {"burau_trace": 1}
    calls.clear()
    alexander_polynomial(parse_word("n=5 s1 s2^-1 s3 s4^2 s1^-3"))
    assert calls == {"burau_matrix": 1, "determinant": 1}


def test_trace_of_a_word_read_backwards():
    """tr rho(rev w) = tr rho(w) for the reduced Burau matrix, on 300
    seeded words of 2-8 strands and up to 40 letters: the reduced trace
    is the unreduced one minus 1, and D = diag(1, t, ..., t^(n-1))
    conjugates every unreduced generator to its transpose."""
    rng = random.Random(21)
    for _ in range(300):
        n = rng.randint(2, 8)
        letters = tuple(
            (rng.randint(1, n - 1), rng.choice((1, -1))) for _ in range(rng.randint(0, 40))
        )
        w = BraidWord(n, letters)
        backward = BraidWord(n, letters[::-1])
        assert matrix_trace(burau_matrix(backward)) == matrix_trace(burau_matrix(w)), w


@pytest.mark.parametrize("text", ["n=1", "n=2 s1", "n=4 s1 s3", "n=5"])
def test_burau_trace_takes_three_strands_only(text):
    with pytest.raises(ValueError):
        burau_trace(parse_word(text))



# Reference arithmetic on {power: coeff} dicts with zero coefficients dropped.
def _ref(d):
    return {p: c for p, c in d.items() if c}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for p, c in b.items():
        out[p] = out.get(p, 0) + sign * c
    return _ref(out)


def _ref_mul(a, b):
    out = {}
    for p1, c1 in a.items():
        for p2, c2 in b.items():
            out[p1 + p2] = out.get(p1 + p2, 0) + c1 * c2
    return _ref(out)


def _ref_pairs(d):
    return tuple(sorted(_ref(d).items()))


def _ref_str(d):
    if not _ref(d):
        return "0"
    parts = []
    for p, c in _ref_pairs(d):
        var = "" if p == 0 else "t" if p == 1 else f"t^{p}"
        if not var:
            body = str(abs(c))
        else:
            body = var if abs(c) == 1 else f"{abs(c)}*{var}"
        parts.append(("-" if c < 0 else "+", body))
    head = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return " ".join([head] + [f"{s} {b}" for s, b in parts[1:]])


polys = st.dictionaries(
    st.integers(min_value=-6, max_value=6), st.integers(min_value=-4, max_value=4), max_size=8
)


def _assert_matches(poly, ref):
    """``poly`` is in canonical dense form and has the terms of ``ref``."""
    if poly.coeffs:
        assert poly.coeffs[0] != 0 and poly.coeffs[-1] != 0
    else:
        assert poly.low == 0
    assert poly.pairs == _ref_pairs(ref)


@given(polys, polys)
def test_dense_laurent_matches_dict_reference(a, b):
    p, q = laurent(a), laurent(b)
    _assert_matches(p, a)
    assert str(p) == _ref_str(a)
    assert p.is_zero() == (not _ref(a))
    _assert_matches(p + q, _ref_add(a, b))
    _assert_matches(p - q, _ref_add(a, b, -1))
    _assert_matches(-p, {e: -c for e, c in a.items()})
    _assert_matches(p * q, _ref_mul(a, b))
    assert all(coeff(p, e) == a.get(e, 0) for e in range(-8, 9))
    if not _ref(a):
        assert p.unit_normalized() == p
        return
    low, high = min(_ref(a)), max(_ref(a))
    assert (p.min_degree(), p.max_degree()) == (low, high)
    top = _ref(a)[high]
    _assert_matches(p.unit_normalized(), {e - low: (c if top > 0 else -c) for e, c in _ref(a).items()})
    if _ref(b):
        assert (p * q).divexact(q) == p
        assert (p * q).divexact(p) == q


@st.composite
def dense_coeffs(draw):
    """Coefficient tuples of length 0-40 with nonzero ends, entries up to
    +-2^80, either of mixed sign or all positive (the largest products)."""
    top = 1 << draw(st.integers(min_value=0, max_value=80))
    low = 1 if draw(st.booleans()) else -top
    coeffs = draw(st.lists(st.integers(min_value=low, max_value=top), max_size=40))
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    return tuple(coeffs)


@settings(deadline=None)
@given(dense_coeffs(), dense_coeffs())
@example((7,) * 40, (7,) * 40)
@example((2**80 - 1,) * 40, (2**80 - 1,) * 33)
def test_mul_and_divexact_on_dense_coeffs(a, b):
    """Long products with wide coefficients against the dict reference,
    and the exact quotient by either factor."""
    p, q = Laurent(0, a), Laurent(-3, b)
    product = p * q
    _assert_matches(product, _ref_mul(dict(enumerate(a)), dict(enumerate(b, -3))))
    if not a or not b:
        return
    assert product.divexact(q) == p
    assert product.divexact(p) == q
    # mostly inexact: a quotient that is returned multiplies back
    try:
        quot = p.divexact(q)
    except ValueError:
        return
    assert quot * q == p


def _from_digits(digits, nb):
    """The integer whose signed digits of nb bytes are ``digits``, lowest first."""
    return sum(d << 8 * nb * i for i, d in enumerate(digits))


def _digits_reference(value, nb):
    """The signed digits of nb bytes of ``value``, lowest first, read one
    ``int.from_bytes`` per digit in a Python loop: the slow route."""
    w = 8 * nb
    n = (abs(value).bit_length() + 1) // w + 1
    half = 1 << (w - 1)
    offsets = int.from_bytes(half.to_bytes(nb, "little") * n, "little")
    data = (value + offsets).to_bytes(n * nb, "little")
    return [int.from_bytes(data[i:i + nb], "little") - half for i in range(0, n * nb, nb)]


@settings(deadline=None)
@given(
    st.integers(min_value=-(2**4000), max_value=2**4000),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=24),
)
@example(2**15 - 1, 0, 1)
@example(2**23 - 5, 0, 1)
@example(-(2**15), 0, 1)
@example(_from_digits([-128, 127, -128], 1), 0, 1)
@example(_from_digits([0, 0, -(2**191), 2**191 - 1], 24), 2, 24)
@example(_from_digits([0] * 3 + [2**175 - 1] * 5 + [-(2**175)], 22), -4, 22)
@example(_from_digits([0, -(2**55)] + [2**55 - 1] * 69, 7), 0, 7)
def test_unpacked_reads_every_integer(value, low, nb):
    """Every integer has signed digits of nb bytes, also one whose top
    digit carries into a new one, as 2^15 - 1 = 2^16 - 2^15 - 1 does, one
    whose digits sit at both ends of [-2^(w-1), 2^(w-1)) and one whose
    low digits are zero.  The Bareiss step reads digits of up to 22 bytes
    from values of near 28 000 bits."""
    q = _unpacked(value, low, nb)
    half = 1 << (8 * nb - 1)
    assert all(-half <= c < half for c in q.coeffs)
    assert sum(c << 8 * nb * (p - low) for p, c in q.pairs) == value


def test_unpacked_matches_a_per_digit_reader():
    """2 000 seeded integers, built from digits of 1 to 24 bytes that are
    often zero or at either end of their range, some of them as long as
    the Bareiss step's longest: ``_unpacked`` reads the digits they were
    built from, as the per-digit reader does."""
    rng = random.Random(32)
    for i in range(2_000):
        nb = rng.randint(1, 24)
        half = 1 << (8 * nb - 1)
        n = rng.randint(1, 1_300 if i % 50 == 0 else 40)
        digits = [
            rng.choice((0, -half, half - 1, rng.randrange(-half, half))) for _ in range(n)
        ]
        digits = [0] * rng.choice((0, 0, 1, 5)) + digits
        value, low = _from_digits(digits, nb), rng.randint(-5, 5)
        pairs = tuple((low + p, c) for p, c in enumerate(digits) if c)
        assert _unpacked(value, low, nb).pairs == pairs, (value, nb)
        reference = _digits_reference(value, nb)
        assert tuple((low + p, c) for p, c in enumerate(reference) if c) == pairs


def test_unpacked_keeps_no_memory_per_digit_count():
    """100 reads of distinct digit counts up to 20 000 leave under 1 MB
    traced.  ``struct``'s module functions cache up to 100 compiled
    formats, each holding memory in proportion to its item count, so a
    reader that passed ``f"{nb}s" * n`` to ``struct.unpack`` would keep
    megabytes here; ``_unpacked`` builds its ``Struct`` per call.  The
    longest reads come last, so a cache that empties when full still
    holds them at the end."""
    rng = random.Random(32)
    counts = [20_000 // k for k in range(100, 0, -1)]
    reads = [
        (rng.getrandbits(8 * nb * n - 2) | 1, nb)
        for n, nb in zip(counts, itertools.cycle(range(1, 17)))
    ]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for value, nb in reads:
            _unpacked(value, 0, nb)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1 << 20, kept


@pytest.mark.parametrize("height", [1, 2, 127, 128, 300])
def test_packed_quotient_wider_than_numerator(height):
    """(1 - t^s) times the tent 1, 2, ..., m, ..., 2, 1 has coefficients of
    at most s in size, yet the quotient reaches m: at the one-byte width
    that fits the numerator and the divisor, the packed quotient is exact
    but its digits carry from height 128 on, so it reads as another
    polynomial.  Divided by the tent instead, the divisor is the wide one."""
    tent = Laurent(0, tuple(range(1, height)) + tuple(range(height, 0, -1)))
    ramps = Laurent(0, (1, -1)) * tent
    quot, rem = divmod(_pack(ramps.coeffs, 1), _pack((1, -1), 1))
    assert rem == 0
    assert (_unpacked(quot, 0, 1) == tent) == (height < 128)
    assert ramps.divexact(Laurent(0, (1, -1))) == tent
    assert ramps.divexact(tent) == Laurent(0, (1, -1))
    # the same with a longer step 1 - t^8
    step = Laurent(0, (1,) + (0,) * 7 + (-1,))
    num = step * tent
    assert max(map(abs, num.coeffs)) <= 8
    assert num.divexact(step) == tent
    assert num.divexact(tent) == step


def _bareiss_reference(m):
    """Bareiss on Laurent arithmetic, with no packing; the slow route."""
    size = len(m)
    if size == 0:
        return ONE
    a = [list(row) for row in m]
    sign, prev = 1, ONE
    for k in range(size - 1):
        if a[k][k].is_zero():
            swap = next((r for r in range(k + 1, size) if not a[r][k].is_zero()), None)
            if swap is None:
                return Laurent.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]).divexact(prev)
        prev = a[k][k]
    return a[-1][-1] if sign == 1 else -a[-1][-1]


@st.composite
def laurent_matrices(draw):
    """Square matrices of size 1-6 with entries of 0-10 coefficients up to
    +-2^80 and lows in -6..6; some with a zero pivot that forces a row swap,
    some singular by a repeated or zero row."""
    size = draw(st.integers(min_value=1, max_value=6))
    top = 1 << draw(st.integers(min_value=0, max_value=80))
    coeffs = st.lists(st.integers(min_value=-top, max_value=top), max_size=10)
    entry = st.builds(
        lambda low, c: laurent(dict(enumerate(c, low))), st.integers(min_value=-6, max_value=6), coeffs
    )
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(("plain", "zero pivot", "repeated row", "zero row")))
    if shape == "zero pivot":
        rows[0][0] = Laurent.zero()
    elif shape == "repeated row" and size > 1:
        rows[-1] = list(rows[0])
    elif shape == "zero row":
        rows[-1] = [Laurent.zero()] * size
    return tuple(tuple(row) for row in rows)


@settings(deadline=None)
@given(laurent_matrices())
def test_determinant_matches_schoolbook_bareiss(m):
    assert determinant(m) == _bareiss_reference(m)


@settings(deadline=None, max_examples=30)
@given(laurent_matrices())
def test_determinant_falls_back_when_a_quotient_is_refused(m):
    """With every packed quotient read too wide, each entry takes Laurent
    arithmetic: the read reports a largest coefficient of 8*nb bits,
    which no width test accepts, so every read is followed by a
    ``divexact``."""
    reads, divisions = [], []
    quotient, divexact = burau._quotient, Laurent.divexact

    def too_wide(even, odd, low, nb):
        reads.append(nb)
        x = quotient(even, odd, low, nb)
        return (x[0], 8 * nb, *x[2:])

    def counted(self, divisor):
        divisions.append(divisor)
        return divexact(self, divisor)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burau, "_quotient", too_wide)
        patch.setattr(Laurent, "divexact", counted)
        assert determinant(m) == _bareiss_reference(m)
    assert len(divisions) >= len(reads)


def _entries(rows):
    return [[_entry(x) for x in row] for row in rows]


@pytest.mark.parametrize(
    "corner, prev",
    [(16, laurent({1: 1, 0: -256})), (-16, laurent({1: 1, 0: 256}))],
    ids=["prev-zero-at-plus", "prev-zero-at-minus"],
)
def test_bareiss_step_falls_back_where_prev_vanishes_at_a_point(monkeypatch, corner, prev):
    """The step width here is 16 bits, so the points are t = 256 and
    t = -256, and prev = t -+ 256 is zero at one of them.  The entry
    t*1 - 16*corner = prev is divided by ``divexact``, giving 1."""
    fallbacks = []
    divexact = Laurent.divexact

    def counted(self, divisor):
        fallbacks.append(divisor)
        return divexact(self, divisor)

    monkeypatch.setattr(Laurent, "divexact", counted)
    a = _entries([[ONE, Laurent.term(corner)], [Laurent.term(16), T]])
    burau._bareiss_step(a, 0, _entry(prev))
    assert [_laurent(x) for x in a[1]] == [Laurent.zero(), ONE]
    assert fallbacks == [prev]


@pytest.mark.parametrize(
    "num, prev, check",
    [
        ((-6, -6), (262, 7), 0),  # a remainder at t = 256 only
        ((-9, -4), (-247, 5), 1),  # a remainder at t = -256 only
        ((-8, 5), (-4,), 2),  # no remainders, but the odd coefficient is -5/4
    ],
    ids=["num0-prev0", "num1-prev1", "num2-prev2"],
)
def test_bareiss_step_refuses_an_inexact_quotient(monkeypatch, num, prev, check):
    """The corner 16 sets a width of 16 bits, so the points are t = 256
    and t = -256.  Each quotient num / prev is refused by one check
    alone, of the remainder at 256, the remainder at -256 and q+ - q-
    divisible by 2^9; what the two points give passes the width test.
    The fallback's ``divexact`` then finds it inexact."""
    num_plus, num_minus = burau._two_points(_entry(Laurent(0, num)), 2)
    div_plus, div_minus = burau._two_points(_entry(Laurent(0, prev)), 2)
    (q_plus, rem_plus), (q_minus, rem_minus) = (
        divmod(num_plus, div_plus), divmod(num_minus, div_minus)
    )
    diff = q_plus - q_minus
    fails = [rem_plus != 0, rem_minus != 0, diff % 512 != 0]
    assert [i for i, fail in enumerate(fails) if fail] == [check]
    read = burau._quotient(q_plus + q_minus >> 1, diff >> 9, 0, 2)
    bits = read[1] + max(map(abs, prev)).bit_length()
    assert bits + min(read[2], len(prev)).bit_length() + 2 <= 16
    a = _entries([[ONE, Laurent.term(16)], [Laurent.zero(), Laurent(0, num)]])
    reads = []
    quotient = burau._quotient

    def recorded(*args):
        reads.append(args)
        return quotient(*args)

    monkeypatch.setattr(burau, "_quotient", recorded)
    with pytest.raises(ValueError):
        burau._bareiss_step(a, 0, _entry(Laurent(0, prev)))
    assert reads == []


def _near_rank_one(rng, size):
    """u_i * v_j plus entries of coefficients in -1..1, u and v of up to 4
    coefficients of up to 2^60 and lows in -2..5.  The big products
    cancel in every 2 x 2 minor, so step 1 is narrower than step 0, and
    small minors often lose their lowest coefficient."""
    big = 1 << rng.randint(10, 60)

    def poly(top, n):
        return laurent({rng.randint(-2, 2) + i: rng.randint(-top, top) for i in range(n)})

    u = [poly(big, rng.randint(1, 4)) for _ in range(size)]
    v = [poly(big, rng.randint(1, 4)) for _ in range(size)]
    return [[x * y + poly(1, rng.randint(0, 3)) for y in v] for x in u]


def test_determinant_matches_reference_across_narrowing_steps_and_odd_trims(monkeypatch):
    """60 seeded matrices of sizes 3-6 (``_near_rank_one``).  Some step
    re-cuts entries to fewer bytes than they were read at, and some
    quotient's lowest even coefficient is zero, so its trim swaps the
    halves; the determinants match the Laurent route."""
    narrowed, odd_trims = [], []
    value, quotient = burau._value, burau._quotient

    def recording_value(chunks, nb):
        if chunks and nb < len(chunks[0]):
            narrowed.append(nb)
        return value(chunks, nb)

    def recording_quotient(even, odd, low, nb):
        x = quotient(even, odd, low, nb)
        if (x[0] - low) % 2:
            odd_trims.append(x[0] - low)
        return x

    monkeypatch.setattr(burau, "_value", recording_value)
    monkeypatch.setattr(burau, "_quotient", recording_quotient)
    rng = random.Random(33)
    for _ in range(60):
        m = _near_rank_one(rng, rng.randint(3, 6))
        assert determinant(m) == _bareiss_reference(m)
    assert narrowed and odd_trims


def test_recut_matches_unpacked_then_packed():
    """2 000 seeded values of digits at one width, often zero or at the
    ends of the narrower width's range, re-cut to another width of 1 to
    24 bytes by whole bytes: the same integer as reading every digit
    with ``_unpacked`` and packing it again with ``_pack``."""
    rng = random.Random(33)
    for i in range(2_000):
        old, nb = rng.randint(1, 24), rng.randint(1, 24)
        half = 1 << (8 * min(old, nb) - 1)
        n = rng.randint(1, 300 if i % 50 == 0 else 30)
        digits = [
            rng.choice((0, -half, half - 1, rng.randrange(-half, half))) for _ in range(n)
        ]
        value = _from_digits(digits, old)
        q = _unpacked(value, 0, old)
        expected = _pack(q.coeffs, nb) << 8 * nb * q.low if q.coeffs else 0
        assert burau._value(burau._chunks(value, old), nb) == expected, (digits, old, nb)


def test_packed_entries_read_back():
    """A packed entry reads back as its polynomial, and a quotient read
    from its halves, at any width, is trimmed to the same polynomial,
    with the same low power and largest coefficient and a length bound
    at least its length."""
    rng = random.Random(33)
    for _ in range(500):
        x = laurent({rng.randint(-6, 6): rng.randint(-(2**70), 2**70) for _ in range(8)})
        entry = _entry(x)
        assert _laurent(entry) == x
        if entry is None:
            continue
        low, top, size, even, odd = entry
        assert top == max(map(abs, x.coeffs)).bit_length() and size == len(x.coeffs)
        nb = rng.randint(len(even[0]), 24)
        shift = rng.randint(0, 3)
        read = burau._quotient(
            burau._value(even, nb) << 8 * nb * shift,
            burau._value(odd, nb) << 8 * nb * shift,
            low - 2 * shift,
            nb,
        )
        assert _laurent(read) == x and read[:2] == (low, top) and read[2] >= size
        # the same polynomial times t, read with its halves swapped
        read = burau._quotient(
            burau._value(odd, nb) << 8 * nb, burau._value(even, nb), low - 1, nb
        )
        assert _laurent(read) == x and read[2] >= size


def _workload_word(rng, n, length):
    """Syllables of one or two equal letters, neighbours of different index."""
    letters = []
    index = 0
    while len(letters) < length:
        index = rng.choice([i for i in range(1, n) if i != index])
        letters += [(index, rng.choice((1, -1)))] * rng.choice((1, 1, 1, 2))
    return BraidWord(n, tuple(letters[:length]))


def test_bareiss_quotients_of_long_words_need_no_fallback(monkeypatch):
    """Every packed quotient in the Alexander polynomials of 4- to
    8-strand words is accepted: no entry reaches ``divexact``.  A route
    that refused them all would still give the right determinants."""
    def refused(self, divisor):
        raise AssertionError("a packed quotient was refused")

    rng = random.Random(31)
    words = [_workload_word(rng, rng.randint(4, 8), rng.randint(20, 150)) for _ in range(100)]
    monkeypatch.setattr(Laurent, "divexact", refused)
    for w in words:
        alexander_polynomial(w)
