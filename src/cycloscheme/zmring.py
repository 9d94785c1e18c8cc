"""The partition identities in Z[Z_M] = Z[x]/(x^M - 1).

An element of Z[Z_M] is its list of M integer coefficients; a set S of
residues is the indicator sum_{i in S} [i].  A product is one Kronecker
substitution: each operand is packed into one Python int, its value at
x = 2^w, and one integer product is read back as balanced base-2^w digits
and folded modulo x^M - 1 (Kronecker 1882; Harvey, J. Symb. Comput. 2009).
The digit width follows the operands' bound, so every product is exact.
"""

from array import array

from .reporting import Report


class GroupRingError(ValueError):
    pass


# array typecodes of the signed digit widths, in bytes, that pack at C speed
_TYPECODES = {1: "b", 2: "h", 4: "i", 8: "q"}


def _halves(n: int, width: int) -> int:
    """sum of 2^(8 width - 1) * 2^(8 width k) for k < n: the top bit of each
    of n digits, which turns two's-complement digits into biased ones."""
    return int.from_bytes((bytes(width - 1) + b"\x80") * n, "little")


def _pack(seq, width: int) -> int:
    """sum seq[k] 2^(8 width k), each |seq[k]| below 2^(8 width - 1): the
    two's-complement digits, read as one unsigned int, with the borrows
    of the negative digits put back."""
    if width in _TYPECODES:
        raw = array(_TYPECODES[width], seq).tobytes()
    else:
        raw = b"".join([c.to_bytes(width, "little", signed=True) for c in seq])
    halves = _halves(len(seq), width)
    return (int.from_bytes(raw, "little") ^ halves) - halves


def _unpack(value: int, n: int, width: int) -> list[int]:
    """The n balanced digits of ``value`` in base 2^(8 width), the inverse
    of ``_pack``."""
    halves = _halves(n, width)
    raw = ((value + halves) ^ halves).to_bytes(n * width, "little")
    if width in _TYPECODES:
        return memoryview(raw).cast(_TYPECODES[width]).tolist()
    return [int.from_bytes(raw[i:i + width], "little", signed=True)
            for i in range(0, len(raw), width)]


def _cyclic_product(a, b) -> list[int]:
    """a * b in Z[Z_M] by Kronecker substitution.  No coefficient of a, b
    or their plain product reaches (sum |a| + 1)(max |b| + 1), so digits of
    a power-of-two number of bytes whose half exceeds that bound keep the
    digits apart.  The augmentation a(1) b(1) is rechecked."""
    M = len(a)
    if len(b) != M:
        raise GroupRingError("modulus mismatch")
    bound = (sum(map(abs, a)) + 1) * (max(map(abs, b)) + 1)
    width = 1
    while 8 * width <= bound.bit_length():
        width *= 2
    full = _unpack(_pack(a, width) * _pack(b, width), 2 * M - 1, width)
    cyclic = [x + y for x, y in zip(full, full[M:])] + full[M - 1:M]
    if sum(cyclic) != sum(a) * sum(b):
        raise GroupRingError("augmentation mismatch after the product")
    return cyclic


def _inverse(a):
    """The image of a under [i] -> [-i]: the coefficient at i moves to -i mod M."""
    return a[:1] + a[:0:-1]


def _indicator(S, M: int) -> list[int]:
    """The indicator of the residue set S as M coefficients."""
    out = [0] * M
    for i in S:
        out[i] += 1
    return out


def _combine(*terms) -> list[int]:
    """sum of c * v over the (c, v) in ``terms``, coefficientwise."""
    out = [0] * len(terms[0][1])
    for c, v in terms:
        out = [o + c * x for o, x in zip(out, v)]
    return out


def _equation_check(report: Report, name: str, lhs: list, rhs: list) -> None:
    diff = next((i for i, (l, r) in enumerate(zip(lhs, rhs)) if l != r), None)
    report.add(name, diff is None, "" if diff is None else
               f"first differing coefficient at index {diff}: {lhs[diff]} != {rhs[diff]}")


def _terms(part) -> tuple[list[int], ...]:
    """The indicators of T1, T2, T3, the identity [0] and Z_M."""
    return tuple(_indicator(S, part.M)
                 for S in (part.T1, part.T2, part.T3, (0,), range(part.M)))


def verify_lemma2(part, s: int) -> Report:
    """(T2 - T3) * Tk^(-1) identities for k = 1, 2, 3."""
    T1, T2, T3, one, Z = _terms(part)
    delta = _combine((1, T2), (-1, T3))
    q, h = 1 << s, 1 << (s - 1)
    report = Report(f"partition convolution identities (s={s})")
    _equation_check(report, "delta*T1inv", _cyclic_product(delta, _inverse(T1)),
                    _combine((q, T1)))
    _equation_check(report, "delta*T2inv", _cyclic_product(delta, _inverse(T2)),
                    _combine((q * h, one), (h, Z), (-h, T1)))
    _equation_check(report, "delta*T3inv", _cyclic_product(delta, _inverse(T3)),
                    _combine((-q * h, one), (h, Z), (-h, T1)))
    return report


def verify_remark_eqs(part, s: int) -> Report:
    """The six T1-convolution consequences of the planar difference set."""
    T1, T2, T3, one, Z = _terms(part)
    q = 1 << s
    h = 1 << (s - 1)
    T1inv = _inverse(T1)
    T1sq = _cyclic_product(T1, T1)
    report = Report(f"difference-set consequences (s={s})")
    _equation_check(report, "T1*T1inv", _cyclic_product(T1, T1inv),
                    _combine((q, one), (1, Z)))
    _equation_check(report, "T1*T2inv", _cyclic_product(T1, _inverse(T2)),
                    _combine((h, T1inv), (h, Z), (-h, one)))
    _equation_check(report, "T1*T3inv", _cyclic_product(T1, _inverse(T3)),
                    _combine((-h, T1inv), (h, Z), (-h, one)))
    _equation_check(report, "T1^2*T1inv", _cyclic_product(T1sq, T1inv),
                    _combine((q, T1), (q + 1, Z)))
    # the Z_M coefficient is 2^s + 2^(2s-1): expanding T1^2 = T1 + 2 T2 and
    # eliminating T2*T2inv against the delta identities leaves |T2| + 2^(s-1)
    # copies of Z_M
    _equation_check(report, "T1^2*T2inv", _cyclic_product(T1sq, _inverse(T2)),
                    _combine((h * q, one), (q + h * q, Z), (-h, T1)))
    _equation_check(report, "T1^2*T3inv", _cyclic_product(T1sq, _inverse(T3)),
                    _combine((-h * q, one), (h * q, Z), (-h, T1)))
    return report


def delta_square_check(part, s: int) -> Report:
    """(T2 - T3)(T2 - T3)^(-1) = 2^(2s) * [identity]."""
    if part.M <= 1:
        raise GroupRingError("partition modulus must exceed 1")
    _, T2, T3, one, _ = _terms(part)
    delta = _combine((1, T2), (-1, T3))
    report = Report(f"delta square identity (s={s})")
    _equation_check(report, "delta*deltainv", _cyclic_product(delta, _inverse(delta)),
                    _combine((1 << (2 * s), one)))
    return report


def doubling_check(part) -> Report:
    """{2i : i in T1} must equal T1 setwise."""
    report = Report("T1 doubling invariance")
    doubled = sorted((2 * i) % part.M for i in part.T1)
    report.add("2*T1 == T1", doubled == sorted(part.T1),
               "" if doubled == sorted(part.T1) else f"2*T1 = {doubled}")
    return report
