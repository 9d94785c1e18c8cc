"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

Two independent routes compute the partition: the character sums
psi(omega^a D), and the tangent/secant point counts |S_a| on the
trace quadric.  They must agree.

D, the quadric Q = {u : tr(u^(q+1)) = 0} and Z = ker tr_{F/E} are
unions of the order-M classes C_r = omega^r E*, so both routes are
products in Z[Z_M] of M-periodic indicators over the exponents k of
g^k = omega^k.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from .binfield import BinaryField, FieldTower, InternalCheckError, parities
from .reporting import Report
from .zmring import _cyclic_product, _inverse


@dataclass(frozen=True)
class CyclotomicPartition:
    s: int
    M: int
    T1: tuple[int, ...]
    T2: tuple[int, ...]
    T3: tuple[int, ...]

    def __post_init__(self):
        q = 1 << self.s
        expected = {
            "T1": q + 1,
            "T2": (1 << (2 * self.s - 1)) + (1 << (self.s - 1)),
            "T3": (1 << (2 * self.s - 1)) - (1 << (self.s - 1)),
        }
        for name, size in expected.items():
            got = len(getattr(self, name))
            if got != size:
                raise InternalCheckError(f"|{name}| = {got}, expected {size}")
        if sorted(self.T1 + self.T2 + self.T3) != list(range(self.M)):
            raise InternalCheckError("T1, T2, T3 do not partition Z_M")


class _ClassIndicators(NamedTuple):
    """Read-only boolean arrays over the exponents k in [0, |F*|)."""
    Z: np.ndarray  # tr_{F/E}(g^k) = 0
    D: np.ndarray  # g^k in D: tr_{F/E}(g^-k) = 0
    Q: np.ndarray  # g^k on the quadric: tr_{F/E}(g^(k(q+1))) = 0


def _trace_zero_indicator(F: BinaryField, s: int) -> np.ndarray:
    """Z[k] is True when tr_{F/E}(g^k) = 0, i.e. when g^k has even parity
    against every mask of ``subfield_zero_masks``."""
    return ~parities(F.powers, F.subfield_zero_masks(s)).any(axis=0)


@cache
def _class_indicators(tower: FieldTower) -> _ClassIndicators:
    """Z, D and Q as index maps of one trace-zero indicator, checked before
    any route folds them: |D| = q^2 - 1, D equals Q (the quadratic-form
    description of D), and all three are E*-invariant, i.e. reshaped to
    (q - 1, M) their rows are equal."""
    F, M = tower.F, tower.M
    q = 1 << tower.s
    zero = _trace_zero_indicator(F, tower.s)
    k = np.arange(F.order)
    # gcd(q + 1, q^3 - 1) = 1, so k -> k(q + 1) permutes the exponents
    ind = _ClassIndicators(zero, zero[-k % F.order], zero[k * (q + 1) % F.order])
    size = int(ind.D.sum())
    if size != q * q - 1:
        raise InternalCheckError(f"|D| = {size}, expected {q * q - 1}")
    if not np.array_equal(ind.D, ind.Q):
        raise InternalCheckError("quadratic-form description of D failed")
    for name, arr in ind._asdict().items():
        if not (arr.reshape(q - 1, M) == arr[:M]).all():
            raise InternalCheckError(f"{name} is not E*-invariant")
        arr.flags.writeable = False
    return ind


@cache
def compute_D(tower: FieldTower) -> frozenset[int]:
    """Nonzero u in F with tr_{F/E}(1/u) = 0; invariant under E* scaling."""
    D = _class_indicators(tower).D
    return frozenset(np.array(tower.F.powers)[D].tolist())


def _class_psi_sums(tower: FieldTower) -> np.ndarray:
    """c[r] = sum over j of psi(omega^(r + jM)): the psi-sum over the class
    C_r, read from the power table, independent of the period walk."""
    F, M = tower.F, tower.M
    ones = parities(F.powers, [F.trace_mask]).reshape(-1, M).sum(axis=0, dtype=np.int64)
    return F.order // M - 2 * ones


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
    D = _class_indicators(tower).D[:tower.M].astype(np.int64)
    values = tuple(_cyclic_product(_class_psi_sums(tower), _inverse(D)).tolist())
    return values, _split(tower, values, (-1, q - 1, -q - 1), "psi(omega^{} D)")


def partition_by_psiD(tower: FieldTower) -> CyclotomicPartition:
    return _psi_route(tower)[1]


def partition_by_trace(tower: FieldTower) -> CyclotomicPartition:
    """Independent route: T1 from trace zeros of omega^i, the T2/T3 split
    from the sizes of S_a = {u : tr(u^(q+1)) = 0, tr(omega^a u) = 0},
    |S_a| = (q - 1) * #{r in dlog Q mod M : (a + r) mod M in dlog Z mod M}."""
    q, M = 1 << tower.s, tower.M
    ind = _class_indicators(tower)
    zero_row = ind.Z[:M]
    counts = _cyclic_product(zero_row.astype(np.int64), _inverse(ind.Q[:M].astype(np.int64)))
    sizes = (q - 1) * counts
    part = _split(tower, sizes.tolist(), (q - 1, 2 * (q - 1), 0), "|S_{}|")
    if not np.array_equal(zero_row, sizes == q - 1):
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
    neg_t1 = _inverse(np.bincount(part.T1, minlength=M))
    report = Report(f"D as a class union (s={tower.s})")
    report.add("D == union of C_i, i in -T1",
               np.array_equal(_class_indicators(tower).D[:M], neg_t1))
    return report
