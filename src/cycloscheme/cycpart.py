"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

Two independent routes compute the partition: the character sums
psi(omega^a D), and the tangent/secant point counts |S_a| on the
trace quadric.  They must agree.

D, the quadric Q = {u : tr(u^(q+1)) = 0} and Z = ker tr_{F/E} are
unions of the order-M classes C_r = omega^r E*, so both routes are
products in Z[Z_M] of M-periodic indicators over the exponents k of
g^k = omega^k.  The indicators are bit strings read off the bit-sliced
power table of F, so strided slices and counts do the class arithmetic.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from typing import NamedTuple

from .binfield import (BinaryField, FieldTower, InternalCheckError, parity_string,
                       relative_trace_forms)
from .reporting import Report
from .zmring import _cyclic_product, _indicator, _inverse


class CyclotomicPartition(namedtuple("CyclotomicPartition", "s M T1 T2 T3")):
    """The tuples T1, T2, T3 of Z_M; their sizes and their union are checked
    on every construction, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, s: int, M: int, T1: tuple, T2: tuple, T3: tuple):
        q = 1 << s
        for name, block, size in zip(cls._fields[2:], (T1, T2, T3),
                                     (q + 1, (q * q + q) // 2, (q * q - q) // 2)):
            if len(block) != size:
                raise InternalCheckError(f"|{name}| = {len(block)}, expected {size}")
        if sorted(T1 + T2 + T3) != list(range(M)):
            raise InternalCheckError("T1, T2, T3 do not partition Z_M")
        return super().__new__(cls, s, M, T1, T2, T3)

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


class _ClassIndicators(NamedTuple):
    """Bit strings over the exponents k in [0, |F*|): character k is '1'
    when g^k lies in the set."""
    Z: str  # tr_{F/E}(g^k) = 0
    D: str  # g^k in D: tr_{F/E}(g^-k) = 0
    Q: str  # g^k on the quadric: tr_{F/E}(g^(k(q+1))) = 0


_FLIP = str.maketrans("01", "10")


def _trace_zero_indicator(F: BinaryField, s: int) -> str:
    """Character k is '1' when tr_{F/E}(g^k) = 0, i.e. when g^k has even
    parity against every ``relative_trace_forms`` mask of 1."""
    return parity_string(F, relative_trace_forms(F, s, [1])[0]).translate(_FLIP)


def _gather(bits: str, step: int) -> str:
    """Character k is bits[k * step mod n], n = len(bits): the strided
    slices bits[o::step], each pass starting where the last one wrapped."""
    n, passes, o, total = len(bits), [], 0, 0
    while total < n:
        passes.append(bits[o::step])
        total += len(passes[-1])
        o = (o - n) % step
    return "".join(passes)[:n]


@cache
def _class_indicators(tower: FieldTower) -> _ClassIndicators:
    """Z, D and Q as index maps of one trace-zero indicator, checked before
    any route folds them: |D| = q^2 - 1, D equals Q (the quadratic-form
    description of D), and all three are E*-invariant, i.e. cut into q - 1
    rows of length M their rows are equal."""
    F, M = tower.F, tower.M
    q = 1 << tower.s
    zero = _trace_zero_indicator(F, tower.s)
    # gcd(q + 1, q^3 - 1) = 1, so k -> k(q + 1) permutes the exponents
    ind = _ClassIndicators(zero, zero[:1] + zero[:0:-1], _gather(zero, q + 1))
    size = ind.D.count("1")
    if size != q * q - 1:
        raise InternalCheckError(f"|D| = {size}, expected {q * q - 1}")
    if ind.D != ind.Q:
        raise InternalCheckError("quadratic-form description of D failed")
    for name, bits in ind._asdict().items():
        if bits != bits[:M] * (q - 1):
            raise InternalCheckError(f"{name} is not E*-invariant")
    return ind


def _row(bits: str, M: int) -> list[int]:
    """The first M characters of a bit string as 0/1 coefficients."""
    return [int(c) for c in bits[:M]]


def _class_psi_sums(tower: FieldTower) -> list[int]:
    """c[r] = sum over j of psi(omega^(r + jM)): the psi-sum over the class
    C_r, read from the power table, independent of the period walk."""
    F, M = tower.F, tower.M
    ones = parity_string(F, [F.trace_mask])
    return [F.order // M - 2 * ones[r::M].count("1") for r in range(M)]


def _split(tower: FieldTower, values, keys, name: str) -> CyclotomicPartition:
    """T1, T2, T3: the a whose value is keys[0], keys[1], keys[2]."""
    blocks = {key: [] for key in keys}
    for a, value in enumerate(values):
        if value not in blocks:
            raise InternalCheckError(f"{name.format(a)} = {value} outside {keys}")
        blocks[value].append(a)
    return CyclotomicPartition(tower.s, tower.M, *map(tuple, blocks.values()))


@cache
def _psi_route(tower: FieldTower) -> tuple[tuple[int, ...], CyclotomicPartition]:
    """psi(omega^a D) = sum over r in dlog D mod M of c[(a + r) mod M] for
    every a, and the partition by its three values -1, q - 1, -q - 1."""
    q = 1 << tower.s
    D = _row(_class_indicators(tower).D, tower.M)
    values = tuple(_cyclic_product(_class_psi_sums(tower), _inverse(D)))
    return values, _split(tower, values, (-1, q - 1, -q - 1), "psi(omega^{} D)")


def partition_by_psiD(tower: FieldTower) -> CyclotomicPartition:
    return _psi_route(tower)[1]


def partition_by_trace(tower: FieldTower) -> CyclotomicPartition:
    """Independent route: T1 from trace zeros of omega^i, the T2/T3 split
    from the sizes of S_a = {u : tr(u^(q+1)) = 0, tr(omega^a u) = 0},
    |S_a| = (q - 1) * #{r in dlog Q mod M : (a + r) mod M in dlog Z mod M}."""
    q, M = 1 << tower.s, tower.M
    ind = _class_indicators(tower)
    zero_row = _row(ind.Z, M)
    sizes = [(q - 1) * c for c in _cyclic_product(zero_row, _inverse(_row(ind.Q, M)))]
    part = _split(tower, sizes, (q - 1, 2 * (q - 1), 0), "|S_{}|")
    if zero_row != [int(size == q - 1) for size in sizes]:
        raise InternalCheckError("tangent-count T1 disagrees with trace-zero T1")
    return part


@cache
def get_partition(tower: FieldTower) -> CyclotomicPartition:
    """The cross-validated partition."""
    by_psi = partition_by_psiD(tower)
    if by_psi != partition_by_trace(tower):
        raise InternalCheckError("the two partition routes disagree")
    return by_psi


def d_class_check(tower: FieldTower) -> Report:
    """D must be the union of the cyclotomic classes indexed by -T1; D is
    E*-invariant, so its first row of exponents decides that."""
    part = get_partition(tower)
    M = tower.M
    neg_t1 = _inverse(_indicator(part.T1, M))
    report = Report(f"D as a class union (s={tower.s})")
    report.add("D == union of C_i, i in -T1",
               _row(_class_indicators(tower).D, M) == neg_t1)
    return report
