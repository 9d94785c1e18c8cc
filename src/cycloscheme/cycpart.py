"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

Two independent routes compute the partition: the character sums
psi(omega^a D), and the tangent/secant point counts |S_a| on the
trace quadric.  They must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .binfield import FieldError, FieldTower, InternalCheckError
from .reporting import Report


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


@dataclass(frozen=True)
class InverseTraceSet:
    """Nonzero u in F with tr_{F/E}(1/u) = 0; invariant under E* scaling."""
    members: frozenset[int]


@cache
def compute_D(tower: FieldTower) -> InverseTraceSet:
    F, s = tower.F, tower.s
    q = 1 << s
    powers = F.powers
    # the inverse of omega^k is omega^(-k)
    members = {u for k, u in enumerate(powers)
               if F.rel_trace_is_zero(s, powers[-k % F.order])}
    if len(members) != q * q - 1:
        raise InternalCheckError(f"|D| = {len(members)}, expected {q * q - 1}")
    # quadratic-form description: D = {u : tr(u^(q+1)) = 0}
    for u in powers:
        qform_zero = F.rel_trace_is_zero(s, F.mul(F.pow(u, q), u))
        if (u in members) != qform_zero:
            raise InternalCheckError("quadratic-form description of D failed")
    # E*-invariance: D * g = D for every nonzero g in the embedded E
    e_star = {F.pow(tower.omega, k * tower.M) for k in range(q - 1)}
    for g in e_star:
        if {F.mul(d, g) for d in members} != members:
            raise InternalCheckError("D is not E*-invariant")
    return InverseTraceSet(frozenset(members))


@cache
def psi_omega_a_D(tower: FieldTower, a: int) -> int:
    if not (0 <= a < tower.M):
        raise FieldError(f"a = {a} out of range [0, {tower.M})")
    F = tower.F
    wa = F.pow(tower.omega, a)
    total = sum(F.psi(F.mul(wa, u)) for u in compute_D(tower).members)
    q = 1 << tower.s
    if total not in (-1, q - 1, -q - 1):
        raise InternalCheckError(
            f"psi(omega^{a} D) = {total} outside the three-value set"
        )
    return total


def partition_by_psiD(tower: FieldTower) -> CyclotomicPartition:
    q = 1 << tower.s
    t1, t2, t3 = [], [], []
    for a in range(tower.M):
        v = psi_omega_a_D(tower, a)
        if v == -1:
            t1.append(a)
        elif v == q - 1:
            t2.append(a)
        else:
            t3.append(a)
    return CyclotomicPartition(tower.s, tower.M, tuple(t1), tuple(t2), tuple(t3))


def partition_by_trace(tower: FieldTower) -> CyclotomicPartition:
    """Independent route: T1 from trace zeros of omega^i, the T2/T3 split
    from the sizes of S_a = {u : tr(u^(q+1)) = 0, tr(omega^a u) = 0}."""
    F, s, M = tower.F, tower.s, tower.M
    q = 1 << s
    powers = F.powers
    quadric = [u for u in powers if F.rel_trace_is_zero(s, F.mul(F.pow(u, q), u))]
    trace_zero_T1 = {i for i in range(M) if F.rel_trace_is_zero(s, powers[i])}
    t1, t2, t3 = [], [], []
    for a in range(M):
        wa = powers[a]
        size = sum(1 for u in quadric if F.rel_trace_is_zero(s, F.mul(wa, u)))
        if size == q - 1:
            t1.append(a)
        elif size == 2 * (q - 1):
            t2.append(a)
        elif size == 0:
            t3.append(a)
        else:
            raise InternalCheckError(f"|S_{a}| = {size} outside the allowed sizes")
    if set(t1) != trace_zero_T1:
        raise InternalCheckError("tangent-count T1 disagrees with trace-zero T1")
    return CyclotomicPartition(s, M, tuple(t1), tuple(t2), tuple(t3))


@cache
def get_partition(tower: FieldTower) -> CyclotomicPartition:
    """The cross-validated partition."""
    by_psi = partition_by_psiD(tower)
    if by_psi != partition_by_trace(tower):
        raise InternalCheckError("the two partition routes disagree")
    return by_psi


def d_class_check(tower: FieldTower) -> Report:
    """D must be the union of the cyclotomic classes indexed by -T1."""
    part = get_partition(tower)
    M = tower.M
    neg_t1 = {(-i) % M for i in part.T1}
    union = {u for k, u in enumerate(tower.F.powers) if k % M in neg_t1}
    report = Report(f"D as a class union (s={tower.s})")
    report.add("D == union of C_i, i in -T1", union == compute_D(tower).members)
    return report
