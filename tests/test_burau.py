from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import braidcalc.b3 as b3
import braidcalc.burau as burau
from braidcalc.burau import (
    Laurent,
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


@settings(deadline=None)
@given(
    st.integers(min_value=-(2**300), max_value=2**300),
    st.integers(min_value=-5, max_value=5),
    st.integers(min_value=1, max_value=8),
)
@example(2**15 - 1, 0, 1)
@example(2**23 - 5, 0, 1)
@example(-(2**15), 0, 1)
def test_unpacked_reads_every_integer(value, low, nb):
    """Every integer has signed digits of nb bytes, also one whose top
    digit carries into a new one, as 2^15 - 1 = 2^16 - 2^15 - 1 does."""
    q = _unpacked(value, low, nb)
    half = 1 << (8 * nb - 1)
    assert all(-half <= c < half for c in q.coeffs)
    assert sum(c << 8 * nb * (p - low) for p, c in q.pairs) == value


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
    arithmetic: the read gains a coefficient of 2^(8*nb) at its lowest
    power, which no width test accepts."""
    unpacked = burau._unpacked

    def too_wide(value, low, nb):
        return unpacked(value, low, nb) + Laurent.term(1 << 8 * nb, low)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(burau, "_unpacked", too_wide)
        assert determinant(m) == _bareiss_reference(m)
