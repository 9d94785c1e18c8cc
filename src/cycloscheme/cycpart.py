"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

D, the quadric Q = {u : tr(u^(q+1)) = 0} and Z = ker tr_{F/E} are unions
of the order-M classes C_r = omega^r E*, each a 0/1 row over Z_M read
from the psi-sums c[r] over the classes: C_r lies in Z exactly when
c[r] = q - 1, D is Z read at -r and Q is Z read at r(q + 1).  The
partition splits psi(omega^a D), one product in Z[Z_M], by its values.
Checked here: each c[r], |D|, D = Q, T1 = Z and the block sizes.  The
checks against independent walks are in ``charsum``: the T1 identity
(eta_F from the walk of F) and the eta' law (eta_G from the walk of G).
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


@cache
def _psi_route(tower: FieldTower) -> tuple[int, ...]:
    """psi(omega^a D) = sum over r in dlog D mod M of c[(a + r) mod M], all a."""
    return tuple(_cyclic_product(_class_psi_sums(tower), _inverse(_class_rows(tower)[1])))


@cache
def get_partition(tower: FieldTower) -> CyclotomicPartition:
    """T1, T2, T3: the a with psi(omega^a D) = -1, q - 1, -q - 1.  As
    c = q 1_Z - 1 and D^-1 = Z, psi(omega^a D) = q n_a - (q + 1) with
    n = Z * Z, and (q - 1) n_a = |{u : tr(u^(q+1)) = 0, tr(omega^a u) = 0}|,
    the tangent/secant count; T1, the a whose line is tangent, must be Z."""
    q = 1 << tower.s
    blocks = {key: [] for key in (-1, q - 1, -q - 1)}
    for a, value in enumerate(_psi_route(tower)):
        if value not in blocks:
            raise InternalCheckError(f"psi(omega^{a} D) = {value} outside {tuple(blocks)}")
        blocks[value].append(a)
    part = CyclotomicPartition(tower.s, tower.M, *map(tuple, blocks.values()))
    if _indicator(part.T1, tower.M) != list(_class_rows(tower)[0]):
        raise InternalCheckError("tangent-count T1 disagrees with trace-zero T1")
    return part


def d_class_check(tower: FieldTower) -> Report:
    """D must be the union of the classes indexed by -T1, its row over Z_M
    the indicator of -T1; a failure names the first differing r.  It cannot
    fail: D is Z read at -r, and ``get_partition`` has checked T1 = Z."""
    neg_t1 = _inverse(_indicator(get_partition(tower).T1, tower.M))
    bad = [f"r={r}: D has {d}, -T1 has {t}"
           for r, (d, t) in enumerate(zip(_class_rows(tower)[1], neg_t1)) if d != t]
    report = Report(f"D as a class union (s={tower.s})")
    report.add("D == union of C_i, i in -T1", not bad, bad[0] if bad else "")
    return report
