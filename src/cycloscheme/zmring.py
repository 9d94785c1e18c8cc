"""Exact group-ring arithmetic in Z[Z_M], its image Z[zeta_M], and the
partition identities.

A set S of residues doubles as the group-ring element sum_{i in S} [i];
all coefficients are arbitrary-precision ints.  Z[zeta_M] = Z[x]/(Phi_M)
is a quotient of Z[Z_M] = Z[x]/(x^M - 1), so one element type serves
both: ``reduce`` picks the canonical representative modulo Phi_M, and two
elements are equal in Z[zeta_M] exactly when their reductions are equal.

Products and reductions are integer numpy code: int64 under a bound that
rules out overflow, Python ints (dtype=object) otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .reporting import Report


class GroupRingError(ValueError):
    pass


def _divide(num: list[int], den) -> list[int]:
    """Long division by a monic polynomial (coefficients low degree first).
    Returns the quotient and leaves the remainder in ``num``: its first
    len(den) - 1 entries, with zeros above."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    dd = len(den) - 1
    terms = [(j, d) for j, d in enumerate(den) if d]
    quotient = [0] * max(0, len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c:
            quotient[i - dd] = c
            for j, d in terms:
                num[i - dd + j] -= c * d
    return quotient


@cache
def cyclotomic_polynomial(M: int) -> tuple[int, ...]:
    """Coefficients of Phi_M, low degree first: x^M - 1 divided exactly by
    Phi_d for every proper divisor d of M."""
    if M < 1:
        raise ValueError("M must be >= 1")
    poly = [-1] + [0] * (M - 1) + [1]
    for d in range(1, M):
        if M % d == 0:
            quotient = _divide(poly, cyclotomic_polynomial(d))
            if any(poly):
                raise ValueError("division not exact")
            poly = quotient
    return tuple(poly)


@cache
def _reduction_tail(M: int) -> tuple[np.ndarray, int]:
    """The int64 matrix whose row k is x^(phi(M) + k) mod Phi_M, and the
    growth factor 1 + (its largest column abs-sum): a reduction's
    coefficients are at most that factor times the largest input one."""
    phi_poly = cyclotomic_polynomial(M)
    phi = len(phi_poly) - 1
    low = np.array(phi_poly[:phi], dtype=object)
    row = -low
    rows = []
    for _ in range(M - phi):
        rows.append(row)
        # x * row, with its x^phi term rewritten as -top * (Phi_M - x^phi)
        row = np.concatenate(([0], row[:-1])) - row[-1] * low
    tail = np.array(rows, dtype=np.int64).reshape(M - phi, phi)
    return tail, 1 + int(np.abs(tail).sum(axis=0).max(initial=0))


def exact_array(values, bound: int) -> np.ndarray:
    """``values`` as int64 when ``bound`` caps every absolute value the
    caller computes from them below 2^63, as Python ints otherwise."""
    return np.asarray(values, dtype=np.int64 if bound < 1 << 63 else object)


def reduce_rows(M: int, rows, peak: int) -> np.ndarray:
    """The phi(M) low coefficients of each row's remainder modulo Phi_M
    (rows of length M, no entry above ``peak`` in absolute value): the low
    part plus the high part times the tail matrix."""
    tail, growth = _reduction_tail(M)
    rows = exact_array(rows, peak * growth)
    phi = M - len(tail)
    return rows[..., :phi] + rows[..., phi:] @ tail.astype(rows.dtype, copy=False)


@dataclass(frozen=True)
class GroupRingElement:
    M: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.M < 1:
            raise GroupRingError("modulus must be >= 1")
        if len(self.coeffs) != self.M:
            raise GroupRingError(
                f"coefficient array has length {len(self.coeffs)}, expected {self.M}"
            )

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_set(cls, M: int, S) -> "GroupRingElement":
        coeffs = [0] * M
        for i in S:
            if not (0 <= i < M):
                raise GroupRingError(f"residue {i} out of range [0, {M})")
            coeffs[i] += 1
        return cls(M, tuple(coeffs))

    @classmethod
    def identity(cls, M: int) -> "GroupRingElement":
        return cls(M, (1,) + (0,) * (M - 1))

    @classmethod
    def all_ones(cls, M: int) -> "GroupRingElement":
        return cls(M, (1,) * M)

    # -- ring structure ---------------------------------------------------------

    def _coerce(self, other) -> "GroupRingElement":
        if isinstance(other, GroupRingElement):
            if other.M != self.M:
                raise GroupRingError("modulus mismatch")
            return other
        if isinstance(other, int):
            return GroupRingElement.identity(self.M).scale(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GroupRingElement(self.M, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GroupRingElement(self.M, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return GroupRingElement(self.M, tuple(-a for a in self.coeffs))

    def scale(self, k: int) -> "GroupRingElement":
        return GroupRingElement(self.M, tuple(k * a for a in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return convolve(self, o)

    __rmul__ = __mul__

    def involute(self) -> "GroupRingElement":
        """Coefficient at i moves to -i mod M."""
        return GroupRingElement(self.M, self.coeffs[:1] + self.coeffs[:0:-1])

    def augmentation(self) -> int:
        return sum(self.coeffs)

    def reduce(self) -> "GroupRingElement":
        """The canonical representative of the image in Z[zeta_M]: the
        remainder modulo Phi_M, zero from index phi(M) upward."""
        low = reduce_rows(self.M, self.coeffs, max(map(abs, self.coeffs))).tolist()
        return GroupRingElement(self.M, tuple(low) + (0,) * (self.M - len(low)))


def from_set(M: int, S) -> GroupRingElement:
    return GroupRingElement.from_set(M, S)


def convolve(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    if a.M != b.M:
        raise GroupRingError("modulus mismatch")
    M = a.M
    # a cyclic coefficient is a sum of M products; peaks taken >= 1 make the
    # bound cover the operands too
    bound = max(1, *map(abs, a.coeffs)) * max(1, *map(abs, b.coeffs)) * M
    full = np.convolve(exact_array(a.coeffs, bound), exact_array(b.coeffs, bound))
    cyclic = full[:M]
    cyclic[:M - 1] += full[M:]
    result = GroupRingElement(M, tuple(cyclic.tolist()))
    if result.augmentation() != a.augmentation() * b.augmentation():
        raise GroupRingError("augmentation mismatch after convolution")
    return result


def involute(a: GroupRingElement) -> GroupRingElement:
    return a.involute()


def _equation_check(report: Report, name: str, lhs: GroupRingElement,
                    rhs: GroupRingElement) -> None:
    diff = [i for i, (l, r) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if l != r]
    report.add(name, not diff, f"first differing coefficient at index {diff[0]}: "
                               f"{lhs.coeffs[diff[0]]} != {rhs.coeffs[diff[0]]}"
               if diff else "")


def _t_elements(part):
    return tuple(GroupRingElement.from_set(part.M, T) for T in (part.T1, part.T2, part.T3))


def verify_lemma2(part, s: int) -> Report:
    """(T2 - T3) * Tk^(-1) identities for k = 1, 2, 3."""
    M = part.M
    T1, T2, T3 = _t_elements(part)
    Z = GroupRingElement.all_ones(M)
    one = GroupRingElement.identity(M)
    delta = T2 - T3
    report = Report(f"partition convolution identities (s={s})")
    _equation_check(report, "delta*T1inv", delta * T1.involute(), T1.scale(1 << s))
    _equation_check(report, "delta*T2inv", delta * T2.involute(),
                    one.scale(1 << (2 * s - 1)) + (Z - T1).scale(1 << (s - 1)))
    _equation_check(report, "delta*T3inv", delta * T3.involute(),
                    one.scale(-(1 << (2 * s - 1))) + (Z - T1).scale(1 << (s - 1)))
    return report


def verify_remark_eqs(part, s: int) -> Report:
    """The six T1-convolution consequences of the planar difference set."""
    M = part.M
    T1, T2, T3 = _t_elements(part)
    Z = GroupRingElement.all_ones(M)
    one = GroupRingElement.identity(M)
    q = 1 << s
    h = 1 << (s - 1)
    T1inv = T1.involute()
    T1sq = T1 * T1
    report = Report(f"difference-set consequences (s={s})")
    _equation_check(report, "T1*T1inv", T1 * T1inv, one.scale(q) + Z)
    _equation_check(report, "T1*T2inv", T1 * T2.involute(),
                    T1inv.scale(h) + Z.scale(h) - one.scale(h))
    _equation_check(report, "T1*T3inv", T1 * T3.involute(),
                    T1inv.scale(-h) + Z.scale(h) - one.scale(h))
    _equation_check(report, "T1^2*T1inv", T1sq * T1inv,
                    T1.scale(q) + Z.scale(q + 1))
    # the Z_M coefficient is 2^s + 2^(2s-1): expanding T1^2 = T1 + 2 T2 and
    # eliminating T2*T2inv against the delta identities leaves |T2| + 2^(s-1)
    # copies of Z_M
    _equation_check(report, "T1^2*T2inv", T1sq * T2.involute(),
                    one.scale(h * q) + Z.scale(q + h * q) - T1.scale(h))
    _equation_check(report, "T1^2*T3inv", T1sq * T3.involute(),
                    one.scale(-h * q) + Z.scale(h * q) - T1.scale(h))
    return report


def delta_square_check(part, s: int) -> Report:
    """(T2 - T3)(T2 - T3)^(-1) = 2^(2s) * [identity]."""
    if part.M <= 1:
        raise GroupRingError("partition modulus must exceed 1")
    _, T2, T3 = _t_elements(part)
    delta = T2 - T3
    report = Report(f"delta square identity (s={s})")
    _equation_check(report, "delta*deltainv", delta * delta.involute(),
                    GroupRingElement.identity(part.M).scale(1 << (2 * s)))
    return report


def doubling_check(part) -> Report:
    """{2i : i in T1} must equal T1 setwise."""
    report = Report("T1 doubling invariance")
    doubled = sorted((2 * i) % part.M for i in part.T1)
    report.add("2*T1 == T1", doubled == sorted(part.T1),
               "" if doubled == sorted(part.T1) else f"2*T1 = {doubled}")
    return report
