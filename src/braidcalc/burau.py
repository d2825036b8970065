"""Exact Laurent-polynomial arithmetic and the reduced Burau representation.

Everything here is integer arithmetic in Z[t, t^-1]; coefficients are
Python ints, so nothing overflows.  A polynomial is a lowest power plus
the dense run of coefficients from there up, so sums and shifts are
list operations, and a product or an exact quotient of two of them is a
schoolbook loop; the Alexander polynomial's division by 1 + t + ... +
t^(n-1) takes stride-n prefix sums instead (``links``).  Kronecker
packing, which holds a polynomial as one big integer, its value at a
power of two, is used in two places only, and ``_chunks`` is the one
splitter of packed integers in both: it cuts an integer's bytes into
digits of the proven width with one ``struct`` call, so no bytecode runs
per digit.  The Bareiss determinant packs its input once.  Each
elimination step works at one digit width w for the step, on values at
t = 2^(w/2) and t = -2^(w/2) (Harvey's multipoint Kronecker
substitution), so its integers are half as long as one value at 2^w.
Every entry is a difference of packed products and one divmod at each
point; the quotient read from the two is accepted when its digits are
too narrow to have carried into each other, which proves it exact
without multiplying back.  It then stays packed, as the digit chunks of
its even and odd coefficients, until a later step re-cuts them to that
step's width by whole bytes; only the last entry, and any entry that a
refused quotient sends to ``divexact``, is read back as a ``Laurent``.

The other is the Burau walk.  The reduced Burau matrix of a word on n
strands is (n-1) x (n-1) and is built column by column, one syllable (a
generator with its power, such as s1^5) at a time, on Kronecker-packed
integers: each entry is shifted to a polynomial and held as its value at
t = 2^w.  A letter of a middle generator is then a few shifts and adds
of two integer columns, and a longer syllable, or any syllable of the
last generator, is applied at once in O(log power) of them.  The word
is walked in segments.  Each segment packs the entries once and unpacks
them once at its end, at a digit width w proven by a bound on every
coefficient that starts from the true coefficients and is carried per
column through the segment's syllables, so no digit can have carried
into the next.  A segment ends before its bound grows _ROOM_BITS
past where it began, or after _SEGMENT_SYLLABLES syllables, so words
whose true coefficients stay small, such as periodic ones, keep narrow
digits and short entries however long they are.  The last segment's
entries stay packed until read: ``burau_matrix`` unpacks them all.
``_packed_trace`` adds the two diagonal entries of a 3-strand walk
while still packed; ``burau_trace``, which is all the 3-strand
Alexander polynomial and the B3 oracle's char-poly battery need, unpacks
only that sum, and ``certify`` compares two such sums through
``_packed_trace`` without unpacking them.
"""

from __future__ import annotations

from itertools import groupby, repeat
from operator import add, sub
from struct import Struct

from .words import BraidWord, _value_class

__all__ = [
    "Laurent",
    "burau_matrix",
    "burau_trace",
    "determinant",
]

Matrix = tuple[tuple["Laurent", ...], ...]

# Build coefficient tuples from lists, never from generators: tuple(<genexpr>)
# fills CPython's small-tuple free lists and raised peak RSS by 9-17 %.


@_value_class
class Laurent:
    """Laurent polynomial over Z: ``sum(coeffs[i] * t^(low + i))``.

    The first and last coefficients are nonzero and zero is ``(0, ())``,
    so equality and hashing are structural.  Products and exact quotients
    are schoolbook loops over the coefficients.
    """

    __slots__ = ("low", "coeffs")
    low: int
    coeffs: tuple[int, ...]

    def __init__(self, low: int = 0, coeffs: tuple[int, ...] = ()) -> None:
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is Laurent:
            return self.low == other.low and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.low, self.coeffs))

    def __reduce__(self) -> tuple:
        # copy and pickle would set the slots through the refusing __setattr__
        return Laurent, (self.low, self.coeffs)

    @classmethod
    def zero(cls) -> Laurent:
        return _ZERO

    @classmethod
    def one(cls) -> Laurent:
        return cls(0, (1,))

    @classmethod
    def term(cls, coeff: int, power: int = 0) -> Laurent:
        return cls(power, (coeff,)) if coeff else _ZERO

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """The nonzero terms as ``(power, coeff)``, by increasing power."""
        low = self.low
        return tuple([(low + i, c) for i, c in enumerate(self.coeffs) if c])

    def is_zero(self) -> bool:
        return not self.coeffs

    def min_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.low

    def max_degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return self.low + len(self.coeffs) - 1

    def _combine(self, other: Laurent, op) -> Laurent:
        a, b = self.coeffs, other.coeffs
        la, lb = self.low, other.low
        low = la if la < lb else lb
        end_a, end_b = la + len(a), lb + len(b)
        out = [0] * ((end_a if end_a > end_b else end_b) - low)
        out[la - low:end_a - low] = a
        j, k = lb - low, end_b - low
        out[j:k] = map(op, out[j:k], b)
        return _trimmed(low, out)

    def __add__(self, other: Laurent) -> Laurent:
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        return self._combine(other, add)

    def __neg__(self) -> Laurent:
        return Laurent(self.low, tuple([-c for c in self.coeffs]))

    def __sub__(self, other: Laurent) -> Laurent:
        if not other.coeffs:
            return self
        if not self.coeffs:
            return -other
        return self._combine(other, sub)

    def __mul__(self, other: Laurent) -> Laurent:
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return _ZERO
        width = len(b)
        out = [0] * (len(a) + width - 1)
        for i, c in enumerate(a):
            if c:
                out[i:i + width] = map(add, out[i:i + width], [c * d for d in b])
        # Z is an integral domain: the end coefficients of a product are nonzero
        return Laurent(self.low + other.low, tuple(out))

    def divexact(self, divisor: Laurent) -> Laurent:
        """Exact quotient by long division from the top; raises ValueError
        if division leaves a remainder."""
        num, div = self.coeffs, divisor.coeffs
        if not div:
            raise ZeroDivisionError("division by zero polynomial")
        if not num:
            return _ZERO
        rem = list(num)
        width = len(div)
        lead = div[-1]
        quot = [0] * (len(rem) - width + 1)
        for k in range(len(quot) - 1, -1, -1):
            q, r = divmod(rem[k + width - 1], lead)
            if r != 0:
                raise ValueError("inexact polynomial division")
            if q:
                quot[k] = q
                rem[k:k + width] = map(sub, rem[k:k + width], [q * d for d in div])
        if not quot or any(rem[:width - 1]):
            raise ValueError("inexact polynomial division")
        # an exact quotient of polynomials with nonzero ends has nonzero ends
        return Laurent(self.low - divisor.low, tuple(quot))

    def unit_normalized(self) -> Laurent:
        """Representative up to units +-t^k: min degree 0, top coefficient > 0."""
        if not self.coeffs:
            return self
        shifted = Laurent(0, self.coeffs)
        return shifted if self.coeffs[-1] > 0 else -shifted

    def __str__(self) -> str:
        pairs = self.pairs
        if not pairs:
            return "0"
        parts: list[str] = []
        for p, c in pairs:
            if p == 0:
                body = str(abs(c))
            else:
                var = "t" if p == 1 else f"t^{p}"
                body = var if abs(c) == 1 else f"{abs(c)}*{var}"
            parts.append(("- " if c < 0 else "+ ") + body)
        head = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([head] + parts[1:])


_ZERO = Laurent()
_ONE = Laurent.one()


def _trimmed(low: int, dense: list[int]) -> Laurent:
    """The polynomial sum(dense[i] * t^(low + i)), with end zeros dropped."""
    if dense[0] and dense[-1]:
        return Laurent(low, tuple(dense))
    end = len(dense)
    while end and not dense[end - 1]:
        end -= 1
    if not end:
        return _ZERO
    start = 0
    while not dense[start]:
        start += 1
    return Laurent(low + start, tuple(dense[start:end]))


# Kronecker substitution: a coefficient list c_0..c_(n-1) is packed into
# the integer sum(c_i * 2^(8*nb*i)), one signed digit of nb bytes per
# coefficient, so that a product or an exact quotient of polynomials is
# one product or divmod of integers, done in C.  Digits are stored with
# the offset half = 2^(8*nb - 1) added, which maps [-half, half) onto the
# unsigned bytes that to_bytes/from_bytes read and write.


def _offsets(n: int, nb: int, half: int) -> int:
    """The offset ``half`` in each of n digits of nb bytes."""
    return int.from_bytes(half.to_bytes(nb, "little") * n, "little")


def _pack(coeffs: tuple[int, ...] | list[int], nb: int) -> int:
    half = 1 << (8 * nb - 1)
    data = b"".join([(c + half).to_bytes(nb, "little") for c in coeffs])
    return int.from_bytes(data, "little") - _offsets(len(coeffs), nb, half)


def _chunks(value: int, nb: int) -> tuple[bytes, ...]:
    """The signed digits of ``value`` at t = 2^(8*nb), highest first.

    Each digit d in [-2^(w-1), 2^(w-1)), w = 8*nb, is the big-endian
    chunk of nb bytes that holds d + 2^(w-1), so chunks compare as their
    digits do.  A value of b bits needs at most (b + 1) // w + 1 digits,
    and the top one may be zero.  The offset bytes are split by one
    ``Struct`` of n items of nb bytes, built for this call, as
    ``struct.unpack`` would cache a compiled format per digit count.
    """
    if not value:
        return ()
    w = 8 * nb
    n = (abs(value).bit_length() + 1) // w + 1
    data = (value + _offsets(n, nb, 1 << (w - 1))).to_bytes(n * nb, "big")
    return Struct(f"{nb}s" * n).unpack(data)


def _unpacked(value: int, low: int, nb: int) -> Laurent:
    """The polynomial whose value at t = 2^(8*nb) is ``value``, times t^low.

    Every integer is one sum of signed digits in [-2^(w-1), 2^(w-1)),
    w = 8*nb, and this reads them (``_chunks``), a zero top digit
    trimmed.  Zero low digits are dropped first, so only the digits from
    the lowest nonzero one up are read.  Each chunk is read and shifted
    back by ``map``, so no bytecode runs per digit.
    """
    if not value:
        return _ZERO
    w = 8 * nb
    skip = ((value & -value).bit_length() - 1) // w
    digits = list(map(int.from_bytes, _chunks(value >> skip * w, nb), repeat("big")))
    digits.reverse()
    return _trimmed(low + skip, list(map(sub, digits, repeat(1 << (w - 1)))))


# A segment of the Burau walk ends before the syllable that would take
# its coefficient bound more than _ROOM_BITS past the bound after its
# first syllable, or once it holds _SEGMENT_SYLLABLES syllables.  The
# second limit is for words whose bound grows slowly, as on two strands:
# a segment's entries carry one zero digit per inverse letter in it, and
# a segment as long as the word would make every letter pay for them all.
_ROOM_BITS = 64
_SEGMENT_SYLLABLES = 128


def _grow(bound: list[int], index: int, sign: int, power: int) -> None:
    """Carry the column bounds of the Burau walk through one syllable.

    ``bound[j]`` bounds the size of every coefficient in column j.  A
    letter sigma_i sends the bounds (x, y) of columns c, c1 to (2x + y, x),
    its inverse to (y, x + 2y); a syllable of k >= 3 letters adds k(x + y)
    to both, as S_e has k coefficients of size 1.  The last generator
    replaces its column by the sum of all the bounds once per letter, or
    for k >= 3 letters grows it by k times that sum.  ``_walk`` applies a
    middle generator's syllables of one or two letters letter by letter
    and its longer ones by the series rule; only the last generator always
    takes the series rule.  A bound limits the product, not the route
    that computes it, so one or two letters of the last generator still
    take the per-letter bound: it is the tighter one and keeps digits
    narrower.
    """
    c = index - 1
    if index < len(bound):
        x, y = bound[c], bound[c + 1]
        if power >= 3:
            grow = power * (x + y)
            x, y = x + grow, y + grow
        else:
            for _ in range(power):
                x, y = (2 * x + y, x) if sign > 0 else (y, x + 2 * y)
        bound[c], bound[c + 1] = x, y
    elif power >= 3:
        bound[c] += power * (sum(bound) + bound[c])
    else:
        for _ in range(power):
            bound[c] = sum(bound)


def _segment(
    syllables: list[tuple[int, int, int]], start: int, bound: list[int]
) -> tuple[int, int]:
    """The end of the walk segment from ``start`` and its digit bytes.

    ``bound`` holds the column bounds at ``start``.  The segment takes at
    least one syllable.  Two bits of room over its final bound make every
    coefficient it produces a signed digit.
    """
    _grow(bound, *syllables[start])
    limit = max(bound).bit_length() + _ROOM_BITS
    end = start + 1
    while end < len(syllables) and end - start < _SEGMENT_SYLLABLES:
        trial = bound[:]
        _grow(trial, *syllables[end])
        if max(trial).bit_length() > limit:
            break
        bound = trial
        end += 1
    return end, (max(bound).bit_length() + 2 + 7) // 8


def _series_product(d: int, e: int, w: int) -> int:
    """S_e * d at t = 2^w for S_e = (1 - (-t)^e) / (1 + t), any nonzero e.

    ``d`` is a polynomial at t = 2^w.  For e = k > 0, S_k is built by
    doubling, S_2n = S_n * (1 + (-t)^n) and S_(n+1) = 1 + (-t) * S_n, in
    O(log k) shifts and adds.  For e = -k, S_e = -(-t)^-k * S_k, and the
    shift by k digits is exact when the caller knows S_e * d to be a
    polynomial.
    """
    if not d:
        return 0
    k = abs(e)
    x, n = d, 1
    for bit in bin(k)[3:]:
        x = x - (x << n * w) if n % 2 else x + (x << n * w)
        n *= 2
        if bit == "1":
            x = d - (x << w)
            n += 1
    if e > 0:
        return x
    x >>= k * w
    return x if k % 2 else -x


def burau_matrix(word: BraidWord) -> Matrix:
    """Reduced Burau matrix of ``word``, size (strands-1) squared.

    Convention: the generator with index i < strands-1 acts as the
    identity except for the 2x2 block [[1-t, t], [1, 0]] at (i, i); the
    last generator acts as the identity except for its final column
    (-1, ..., -1, -t)^T.  Determinants are (-t)^(exponent sum).
    """
    cols, low, nb = _packed_walk(word)
    return tuple(zip(*[[_unpacked(x, low, nb) for x in col] for col in cols]))


def burau_trace(word: BraidWord) -> Laurent:
    """Trace of the reduced Burau matrix of a 3-strand ``word``; other
    strand counts raise ValueError (see ``_packed_trace``)."""
    return _unpacked(*_packed_trace(word))


def _packed_trace(word: BraidWord) -> tuple[int, int, int]:
    """The Burau trace of a 3-strand ``word`` as (value, low, nb) for ``_unpacked``.

    The two diagonal entries are added while still packed.  Their sum
    fits the walk's digits: ``_segment`` leaves two bits over the largest
    bound, so every coefficient a, b of the two entries has |a + b| <=
    2*max(bound) < 2^(8*nb - 1), a signed digit.  So two words whose
    walks end at the same ``low`` and ``nb`` have equal traces exactly
    when their values are equal, as signed digits are unique.  Three or
    more diagonal entries would need more room, so other strand counts
    raise ValueError.
    """
    if word.strands != 3:
        raise ValueError(f"burau_trace takes 3-strand words, not {word.strands}")
    cols, low, nb = _packed_walk(word)
    return cols[0][0] + cols[1][1], low, nb


def _packed_walk(word: BraidWord) -> tuple[list[list[int]], int, int]:
    """The Burau columns of ``word`` as the walk's last segment left them.

    Returns (cols, low, nb): row i of column j is
    ``_unpacked(cols[j][i], low, nb)``.  The word is walked in segments
    of syllables.  At the start of each, the bound of every column is its
    largest true coefficient; ``_grow`` carries these bounds through the
    segment's syllables, and the digit width comes from the largest bound
    at its end (``_segment``).  The segment is then applied by ``_walk``,
    and its result is unpacked only if another segment follows.
    Evaluation at 2^w is a ring homomorphism, so the packed integers are
    exact whatever their size; only reading the coefficients back needs
    them to fit their w-bit digits, which the bound proves, so nothing is
    checked or tried again.
    """
    m = word.strands - 1
    syllables = [
        (index, sign, len(list(run))) for (index, sign), run in groupby(word.letters)
    ]
    cols = [[_ONE if i == j else _ZERO for i in range(m)] for j in range(m)]
    # the packed identity is the result only for a word with no syllables
    packed, low, nb = [[int(i == j) for i in range(m)] for j in range(m)], 0, 1
    start = 0
    while start < len(syllables):
        if start:
            cols = [[_unpacked(x, low, nb) for x in col] for col in packed]
        bound = [max([max(map(abs, x.coeffs)) for x in col if x.coeffs]) for col in cols]
        end, nb = _segment(syllables, start, bound)
        packed, low = _walk(cols, syllables[start:end], nb)
        start = end
    return packed, low, nb


def _walk(
    cols: list[list[Laurent]], syllables: list[tuple[int, int, int]], nb: int
) -> tuple[list[list[int]], int]:
    """The columns ``cols`` right-multiplied by ``syllables``, on digits of nb bytes.

    Every entry is multiplied by t^(N - low), N the number of inverse
    letters in the syllables and low the lowest power in ``cols``, so it
    is a polynomial, packed once as one integer: its value at t = 2^w,
    w = 8*nb.  Multiplying by t is a shift left by w bits and dividing
    by t a shift right.  The shift is exact: while j inverse letters are
    still to come, no entry has a power of t below j.

    Every generator G satisfies (G - I)(G + t) = 0, so G^e = I + S_e (G - I)
    with S_e = (1 - (-t)^e) / (1 + t).  The last generator takes this one
    rule at every power: only the last column moves, by S_e times
    d = -(c_0 + ... + c_(m-2)) - (1 + t)*c_(m-1).  A middle generator
    sigma_i moves two columns c, c1.  At |e| >= 3 the columns of M (G - I)
    are d and -d with d = c1 - t*c, so c += S_e*d and c1 -= S_e*d.  One
    or two letters are applied one at a time, which is faster there:
    sigma_i gives c' = c - t*c + c1 and c1' = t*c; its inverse gives
    c' = t^-1*c1 and c1' = c + c1 - t^-1*c1.  The columns are returned
    packed, with the power of t their lowest digit stands for.
    """
    m = len(cols)
    w = 8 * nb
    scale = sum([power for _, sign, power in syllables if sign < 0])
    low = min([x.low for col in cols for x in col if x.coeffs])
    cols = [
        [_pack(x.coeffs, nb) << w * (x.low - low + scale) if x.coeffs else 0 for x in col]
        for col in cols
    ]
    for index, sign, power in syllables:
        c = index - 1
        if index < m:
            left, right = cols[c], cols[c + 1]
            if power >= 3:
                e = sign * power
                step = [_series_product(y - (x << w), e, w) for x, y in zip(left, right)]
                left, right = list(map(add, left, step)), list(map(sub, right, step))
            elif sign > 0:
                for _ in range(power):
                    up = [x << w for x in left]
                    left, right = [x - u + y for x, u, y in zip(left, up, right)], up
            else:
                for _ in range(power):
                    down = [y >> w for y in right]
                    left, right = down, [x + y - z for x, y, z in zip(left, right, down)]
            cols[c], cols[c + 1] = left, right
        else:
            cols[c] = [
                x + _series_product(-(s + (x << w)), sign * power, w)
                for x, s in zip(cols[c], map(sum, zip(*cols)))
            ]
    return cols, low - scale


# A Bareiss entry stays packed from the step that computes it to the
# steps that use it, as the tuple (low, top, size, even, odd): the entry
# is t^low * (E(t^2) + t*O(t^2)), and ``even`` and ``odd`` hold the
# digits of E and O as ``_chunks`` does, at one width nb.  Its lowest
# coefficient is nonzero, so ``even`` is never empty.  ``top`` is the bit
# length of its largest coefficient and ``size`` is at least its length.
# A zero entry is None.


def _entry(x: Laurent) -> tuple | None:
    """``x`` as a packed entry, at the fewest bytes that hold its coefficients."""
    c = x.coeffs
    if not c:
        return None
    top = max(map(abs, c)).bit_length()
    nb = top // 8 + 1
    half = 1 << (8 * nb - 1)
    return (
        x.low,
        top,
        len(c),
        tuple([(d + half).to_bytes(nb, "big") for d in c[0::2][::-1]]),
        tuple([(d + half).to_bytes(nb, "big") for d in c[1::2][::-1]]),
    )


def _laurent(x: tuple | None) -> Laurent:
    """The polynomial of a packed entry."""
    if x is None:
        return _ZERO
    # the first point at 2*nb bytes is t = 2^(8*nb), where every
    # coefficient is one signed digit of the chunks' nb bytes
    nb = len(x[3][0])
    return _unpacked(_two_points(x, 2 * nb)[0], x[0], nb)


_FLIP = bytes([b ^ 0x80 for b in range(256)])


def _value(chunks: tuple[bytes, ...], nb: int) -> int:
    """The value at t = 2^(8*nb) of the digits that ``chunks`` hold.

    The chunks are of some width old, each its digit d plus 2^(8*old - 1).
    Widening pads each with nb - old zero bytes in front, so each digit
    still carries the offset 2^(8*old - 1), now at the spacing of nb
    bytes.  Narrowing keeps each chunk's low nb bytes, which hold d +
    2^(8*old - 1) modulo 2^(8*nb), that is d modulo 2^(8*nb), and flips
    their top bit, which adds the offset 2^(8*nb - 1): every digit the
    caller narrows lies in [-2^(8*nb - 1), 2^(8*nb - 1)).  Either way
    only whole bytes move, and no digit is read.
    """
    if not chunks:
        return 0
    old = len(chunks[0])
    if nb < old:
        data = bytearray(b"".join(chunks))
        for cut in range(old, nb, -1):
            del data[::cut]
        data[::nb] = data[::nb].translate(_FLIP)
        old = nb
    else:
        # the first chunk's pad would be leading zero bytes
        data = bytes(nb - old).join(chunks)
    return int.from_bytes(data, "big") - _offsets(len(chunks), nb, 1 << (8 * old - 1))


def _two_points(x: tuple, nb: int) -> tuple[int, int]:
    """A packed entry at t = 2^h and at t = -2^h, h = 4*nb, with its
    power t^low left out.

    With E and O its halves at 2^(2h), the entry is E(t^2) + t*O(t^2), so
    its values at the two points are E + 2^h*O and E - 2^h*O.
    """
    even = _value(x[3], nb)
    odd = _value(x[4], nb) << 4 * nb
    return even + odd, even - odd


def _quotient(even: int, odd: int, low: int, nb: int) -> tuple:
    """The packed entry t^low * (E(t^2) + t*O(t^2)), E and O the values
    ``even`` and ``odd`` at t = 2^(8*nb), not both zero.

    Low zero coefficients are trimmed exactly: the lowest nonzero one is
    the 2s-th, from E's lowest nonzero digit, or the (2s + 1)-th, from
    O's.  Dividing by t^(2s) shifts both halves by s digits; dividing by
    t^(2s + 1) makes O, shifted by s digits, the new even half and E,
    shifted by s + 1, the new odd half.  The largest coefficient is read
    from the largest and smallest chunk, and the length is bounded by the
    digit counts.
    """
    w = 8 * nb
    if even:
        s = ((even & -even).bit_length() - 1) // w * 2
        if odd:
            s = min(s, ((odd & -odd).bit_length() - 1) // w * 2 + 1)
    else:
        s = ((odd & -odd).bit_length() - 1) // w * 2 + 1
    d = s >> 1
    if s & 1:
        even, odd = odd >> d * w, even >> (d + 1) * w
    else:
        even, odd = even >> d * w, odd >> d * w
    even, odd = _chunks(even, nb), _chunks(odd, nb)
    both = even + odd
    half = 1 << (w - 1)
    top = max(
        int.from_bytes(max(both), "big") - half, half - int.from_bytes(min(both), "big")
    )
    return low + s, top.bit_length(), max(2 * len(even) - 1, 2 * len(odd)), even, odd


def _bareiss_step(a: list[list[tuple | None]], k: int, prev: tuple) -> None:
    """Eliminate below the pivot a[k][k], whose predecessor was ``prev``.

    The entries are packed (``_entry``).  Every a[i][j] with i, j > k
    becomes (a_kk*a_ij - a_ik*a_kj) / prev, an exact quotient, and
    a[i][k] becomes zero.  One digit width w = 8*nb serves the whole
    step: with B the largest coefficient bits and L the longest length
    bound of the active submatrix, every numerator N has coefficients
    below 2^(2B + bits(L) + 1), and the width fits prev too.  Every
    entry the step reads is re-cut to nb bytes by whole bytes
    (``_value``): each of its coefficients has at most B bits, and prev's
    at most bits(max|prev|), so each fits a signed w-bit digit.

    The integers are values at the two points t = 2^h and t = -2^h,
    h = w/2, as in D. Harvey's multipoint Kronecker substitution ("Faster
    polynomial multiplication via multipoint Kronecker substitution",
    J. Symbolic Comput. 44, 2009, arXiv:0712.4046).  Each is half as long
    as the value at 2^w, so a divmod costs about half as much and a
    product about two thirds.  The pivot, its row, each a_ik and prev
    are re-cut once per step, at both points (``_two_points``).  At each
    point a numerator is the difference of two products, aligned by
    shifting whole digits of h bits; a shift by t^d also negates the
    value at -2^h when d is odd.  One divmod by prev at each point gives
    q+ and q-, and the quotient q is read by ``_quotient`` as two
    polynomials at 2^w, its even coefficients from (q+ + q-)/2 and its
    odd ones from (q+ - q-)/2^(h+1), and stays packed.

    The read is accepted when prev is nonzero at both points, neither
    divmod leaves a remainder, q+ - q- is divisible by 2^(h+1) (so that
    q+ + q- is even), and bits(max|q|) + bits(max|prev|) + bits(min(len
    q, len prev)) + 2 <= w, with the lengths' upper bounds.  Then q is q+
    at 2^h and q- at -2^h, so R = q*prev - N vanishes at both points,
    and R's even and odd parts, (R(2^h) + R(-2^h))/2 and (R(2^h) -
    R(-2^h))/2^(h+1) at t = 2^w, vanish at 2^w.  The width test makes
    every coefficient of q*prev a signed w-bit digit, as every
    coefficient of N is.  So the even parts of q*prev and N are two
    signed-digit expansions of one integer, as are their odd parts;
    signed digits are unique, so R = 0.  By the same argument a
    numerator that is zero at both points is zero.  Trimming q's low
    zero coefficients changes its low power, not its polynomial.  Any
    refusal sends that one entry to ``*`` and ``divexact``.
    """
    size = len(a)
    active = [x for row in a[k:] for x in row[k:] if x]
    top = max([x[1] for x in active])
    longest = max([x[2] for x in active]).bit_length()
    prev_low, div_bits, div_len = prev[:3]
    nb = (max(2 * top + longest, div_bits) + 2 + 7) // 8
    width, half = 8 * nb, 4 * nb
    odd_mask = (1 << half + 1) - 1
    div_plus, div_minus = _two_points(prev, nb)
    pivot = a[k][k]
    piv_plus, piv_minus = _two_points(pivot, nb)
    row = [(x[0], *_two_points(x, nb)) if x else None for x in a[k][k + 1:]]
    for i in range(k + 1, size):
        ai = a[i]
        c = ai[k]
        if c:
            col_plus, col_minus = _two_points(c, nb)
        for j, r in enumerate(row, k + 1):
            x = ai[j]
            # (low, +2^h value, -2^h value) of a_kk*a_ij and of -a_ik*a_kj
            terms = []
            if x:
                x_plus, x_minus = _two_points(x, nb)
                terms.append((pivot[0] + x[0], piv_plus * x_plus, piv_minus * x_minus))
            if c and r:
                terms.append((c[0] + r[0], -col_plus * r[1], -col_minus * r[2]))
            low = min([t[0] for t in terms], default=0)
            num_plus = num_minus = 0
            for t_low, plus, minus in terms:
                d = t_low - low
                num_plus += plus << half * d
                num_minus += (-minus if d % 2 else minus) << half * d
            if not (num_plus or num_minus):
                ai[j] = None
                continue
            q = None
            if div_plus and div_minus:
                q_plus, rem_plus = divmod(num_plus, div_plus)
                q_minus, rem_minus = divmod(num_minus, div_minus)
                diff = q_plus - q_minus
                if not (rem_plus or rem_minus or diff & odd_mask):
                    q = _quotient(q_plus + q_minus >> 1, diff >> half + 1, low - prev_low, nb)
                    if q[1] + div_bits + min(q[2], div_len).bit_length() + 2 > width:
                        q = None
            if q is None:
                num = _laurent(pivot) * _laurent(x) - _laurent(c) * _laurent(a[k][j])
                q = _entry(num.divexact(_laurent(prev)))
            ai[j] = q
        ai[k] = None


def determinant(m: Matrix) -> Laurent:
    """Fraction-free Bareiss determinant; exact over Z[t, t^-1].

    The entries are packed once (``_entry``) and stay packed between
    elimination steps.  Each step runs on Kronecker-packed integers at
    two points, t = 2^(w/2) and t = -2^(w/2), one digit width w per
    step (see ``_bareiss_step``).
    """
    size = len(m)
    if size == 0:
        return Laurent.one()
    a = [[_entry(x) for x in row] for row in m]
    sign = 1
    prev = _entry(_ONE)
    for k in range(size - 1):
        if a[k][k] is None:
            for r in range(k + 1, size):
                if a[r][k] is not None:
                    a[k], a[r] = a[r], a[k]
                    sign = -sign
                    break
            else:
                return Laurent.zero()
        _bareiss_step(a, k, prev)
        prev = a[k][k]
    det = _laurent(a[size - 1][size - 1])
    return det if sign == 1 else -det
