"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

Two independent routes compute the partition: the character sums
psi(omega^a D), and the tangent/secant point counts |S_a| on the
trace quadric.  They must agree.

D, the quadric Q = {u : tr(u^(q+1)) = 0} and Z = ker tr_{F/E} are
unions of the order-M classes C_r = omega^r E*, so each is a 0/1 row
over Z_M and both routes are products of rows in Z[Z_M].  The rows come
from the psi-sums c[r] over the classes, counts in strided slices of F's
trace string: C_r lies in Z exactly when c[r] = q - 1, D is Z read at -r
and Q is Z read at r(q + 1).
"""

from collections import namedtuple
from functools import cache

from .binfield import FieldTower, InternalCheckError
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


@cache
def _class_psi_sums(tower: FieldTower) -> tuple[int, ...]:
    """c[r] = sum over j of psi(omega^(r + jM)): the psi-sum over the class
    C_r, read from F's trace string, independent of the period walk."""
    F, M = tower.F, tower.M
    return tuple(F.order // M - 2 * F.trace_string[r::M].count("1") for r in range(M))


@cache
def _class_rows(tower: FieldTower) -> tuple[tuple[int, ...], ...]:
    """The rows Z, D, Q over Z_M: entry r is 1 when the class C_r lies in
    the set.  C_0 = E* spans E and E's trace form is nondegenerate, so
    psi sums to q - 1 over C_r when tr_{F/E}(omega^r) = 0 and to -1
    otherwise; any other sum is refused.  Inversion and the (q + 1)-th
    power map classes to classes, so D is Z read at -r and Q is Z read at
    r(q + 1).  |D| = q^2 - 1 and D equals Q (the quadratic-form
    description of D) are checked next."""
    M, q = tower.M, 1 << tower.s
    c = _class_psi_sums(tower)
    for r, value in enumerate(c):
        if value not in (q - 1, -1):
            raise InternalCheckError(f"psi sums to {value} over C_{r}, "
                                     f"neither q - 1 = {q - 1} nor -1")
    Z = tuple(int(value == q - 1) for value in c)
    D = _inverse(Z)
    size = (q - 1) * sum(D)
    if size != q * q - 1:
        raise InternalCheckError(f"|D| = {size}, expected {q * q - 1}")
    Q = tuple(Z[k * (q + 1) % M] for k in range(M))
    if D != Q:
        raise InternalCheckError("quadratic-form description of D failed")
    return Z, D, Q


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
    D = _class_rows(tower)[1]
    values = tuple(_cyclic_product(_class_psi_sums(tower), _inverse(D)))
    return values, _split(tower, values, (-1, q - 1, -q - 1), "psi(omega^{} D)")


def partition_by_psiD(tower: FieldTower) -> CyclotomicPartition:
    return _psi_route(tower)[1]


def partition_by_trace(tower: FieldTower) -> CyclotomicPartition:
    """Independent route: T1 from trace zeros of omega^i, the T2/T3 split
    from the sizes of S_a = {u : tr(u^(q+1)) = 0, tr(omega^a u) = 0},
    |S_a| = (q - 1) * #{r in dlog Q mod M : (a + r) mod M in dlog Z mod M}."""
    q = 1 << tower.s
    Z, _, Q = _class_rows(tower)
    sizes = [(q - 1) * c for c in _cyclic_product(Z, _inverse(Q))]
    part = _split(tower, sizes, (q - 1, 2 * (q - 1), 0), "|S_{}|")
    if Z != tuple(int(size == q - 1) for size in sizes):
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
    """D must be the union of the cyclotomic classes indexed by -T1, its row
    over Z_M the indicator of -T1; a failure names the first differing r."""
    neg_t1 = _inverse(_indicator(get_partition(tower).T1, tower.M))
    bad = [f"r={r}: D has {d}, -T1 has {t}"
           for r, (d, t) in enumerate(zip(_class_rows(tower)[1], neg_t1)) if d != t]
    report = Report(f"D as a class union (s={tower.s})")
    report.add("D == union of C_i, i in -T1", not bad, bad[0] if bad else "")
    return report
