"""The partition identities in Z[Z_M] = Z[x]/(x^M - 1).

An element of Z[Z_M] is its int64 array of M
coefficients; a set S of residues is the indicator sum_{i in S} [i].  A
product is refused unless a bound from its operands keeps every partial
sum below 2^63, so each identity is decided exactly.
"""

from __future__ import annotations

import numpy as np

from .reporting import Report


class GroupRingError(ValueError):
    pass


def _cyclic_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b in Z[Z_M]: np.convolve folded modulo x^M - 1.  Every partial
    sum of a cyclic coefficient is at most sum |a| * max |b|, so that bound
    below 2^63 makes the int64 product exact."""
    M = len(a)
    if len(b) != M:
        raise GroupRingError("modulus mismatch")
    if sum(map(abs, a.tolist())) * max(map(abs, b.tolist())) >= 1 << 63:
        raise GroupRingError("product may not fit int64")
    full = np.convolve(a, b)
    cyclic = full[:M]
    cyclic[:M - 1] += full[M:]
    if sum(cyclic.tolist()) != sum(a.tolist()) * sum(b.tolist()):
        raise GroupRingError("augmentation mismatch after convolution")
    return cyclic


def _inverse(a: np.ndarray) -> np.ndarray:
    """The image of a under [i] -> [-i]: the coefficient at i moves to -i mod M."""
    return a[-np.arange(len(a)) % len(a)]


def _equation_check(report: Report, name: str, lhs: np.ndarray, rhs: np.ndarray) -> None:
    diff = np.flatnonzero(lhs != rhs)
    report.add(name, not len(diff), f"first differing coefficient at index {diff[0]}: "
                                    f"{lhs[diff[0]]} != {rhs[diff[0]]}"
               if len(diff) else "")


def _terms(part) -> tuple[np.ndarray, ...]:
    """The indicators of T1, T2, T3, the identity [0] and Z_M."""
    return tuple(np.bincount(S, minlength=part.M)
                 for S in (part.T1, part.T2, part.T3, (0,), range(part.M)))


def verify_lemma2(part, s: int) -> Report:
    """(T2 - T3) * Tk^(-1) identities for k = 1, 2, 3."""
    T1, T2, T3, one, Z = _terms(part)
    delta = T2 - T3
    report = Report(f"partition convolution identities (s={s})")
    _equation_check(report, "delta*T1inv", _cyclic_product(delta, _inverse(T1)),
                    (1 << s) * T1)
    _equation_check(report, "delta*T2inv", _cyclic_product(delta, _inverse(T2)),
                    (1 << (2 * s - 1)) * one + (1 << (s - 1)) * (Z - T1))
    _equation_check(report, "delta*T3inv", _cyclic_product(delta, _inverse(T3)),
                    -(1 << (2 * s - 1)) * one + (1 << (s - 1)) * (Z - T1))
    return report


def verify_remark_eqs(part, s: int) -> Report:
    """The six T1-convolution consequences of the planar difference set."""
    T1, T2, T3, one, Z = _terms(part)
    q = 1 << s
    h = 1 << (s - 1)
    T1inv = _inverse(T1)
    T1sq = _cyclic_product(T1, T1)
    report = Report(f"difference-set consequences (s={s})")
    _equation_check(report, "T1*T1inv", _cyclic_product(T1, T1inv), q * one + Z)
    _equation_check(report, "T1*T2inv", _cyclic_product(T1, _inverse(T2)),
                    h * T1inv + h * Z - h * one)
    _equation_check(report, "T1*T3inv", _cyclic_product(T1, _inverse(T3)),
                    -h * T1inv + h * Z - h * one)
    _equation_check(report, "T1^2*T1inv", _cyclic_product(T1sq, T1inv),
                    q * T1 + (q + 1) * Z)
    # the Z_M coefficient is 2^s + 2^(2s-1): expanding T1^2 = T1 + 2 T2 and
    # eliminating T2*T2inv against the delta identities leaves |T2| + 2^(s-1)
    # copies of Z_M
    _equation_check(report, "T1^2*T2inv", _cyclic_product(T1sq, _inverse(T2)),
                    h * q * one + (q + h * q) * Z - h * T1)
    _equation_check(report, "T1^2*T3inv", _cyclic_product(T1sq, _inverse(T3)),
                    -h * q * one + h * q * Z - h * T1)
    return report


def delta_square_check(part, s: int) -> Report:
    """(T2 - T3)(T2 - T3)^(-1) = 2^(2s) * [identity]."""
    if part.M <= 1:
        raise GroupRingError("partition modulus must exceed 1")
    _, T2, T3, one, _ = _terms(part)
    delta = T2 - T3
    report = Report(f"delta square identity (s={s})")
    _equation_check(report, "delta*deltainv", _cyclic_product(delta, _inverse(delta)),
                    (1 << (2 * s)) * one)
    return report


def doubling_check(part) -> Report:
    """{2i : i in T1} must equal T1 setwise."""
    report = Report("T1 doubling invariance")
    doubled = sorted((2 * i) % part.M for i in part.T1)
    report.add("2*T1 == T1", doubled == sorted(part.T1),
               "" if doubled == sorted(part.T1) else f"2*T1 = {doubled}")
    return report
