"""The inverse-trace set D and the partition T1, T2, T3 of Z_M.

D, the quadric Q = {u : tr(u^(q+1)) = 0} and Z = ker tr_{F/E} are unions
of the order-M classes C_r = omega^r E*, each a 0/1 row over Z_M read
from the psi-sums c[r] over the classes: C_r lies in Z exactly when
c[r] = q - 1, D is Z read at -r and Q is Z read at r(q + 1).  The
partition splits psi(omega^a D), one product in Z[Z_M], by its values
into the ``FusionPattern`` T1, T2, T3.  Checked here: each c[r], |D|,
D = Q and T1 = Z, which fix the block sizes (see ``get_partition``).  The
checks against independent walks are in ``charsum``: the T1 identity
(eta_F from the walk of F) and the eta' law (eta_G from the walk of G).
"""

from collections import namedtuple
from functools import cache

from .binfield import FieldTower, InternalCheckError
from .reporting import Report
from .zmring import _cyclic_product, _equation_check, _indicator, _inverse


class SchemeError(ValueError):
    """Invalid fusion pattern or violated scheme precondition."""


class FusionPattern(namedtuple("FusionPattern", "M blocks")):
    """Nonempty disjoint index sets covering Z_M; block k fuses the classes
    C_i, i in block k.  The blocks are sorted tuples, checked on every
    construction, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, M: int, blocks):
        blocks = tuple(tuple(sorted(b)) for b in blocks)
        if not all(blocks) or sorted(i for b in blocks for i in b) != list(range(M)):
            raise SchemeError("blocks do not partition Z_M")
        return super().__new__(cls, M, blocks)

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
def get_partition(tower: FieldTower) -> FusionPattern:
    """T1, T2, T3: the a with psi(omega^a D) = -1, q - 1, -q - 1.  As
    c = q 1_Z - 1 and D^-1 = Z, psi(omega^a D) = q n_a - (q + 1) with
    n = Z * Z, and (q - 1) n_a = |{u : tr(u^(q+1)) = 0, tr(omega^a u) = 0}|,
    the tangent/secant count; T1, the a whose line is tangent, must be Z.
    The sizes follow: |T1| = |Z| = |D| = q + 1, and the values sum to
    (sum c) |D| = -(q + 1), which the product's augmentation recheck
    holds, so |T2| = q(q + 1)/2 and |T3| = q(q - 1)/2."""
    q = 1 << tower.s
    blocks = {key: [] for key in (-1, q - 1, -q - 1)}
    for a, value in enumerate(_psi_route(tower)):
        if value not in blocks:
            raise InternalCheckError(f"psi(omega^{a} D) = {value} outside {tuple(blocks)}")
        blocks[value].append(a)
    if _indicator(blocks[-1], tower.M) != list(_class_rows(tower)[0]):
        raise InternalCheckError("tangent-count T1 disagrees with trace-zero T1")
    return FusionPattern(tower.M, blocks.values())


def d_class_check(tower: FieldTower) -> Report:
    """D must be the union of the classes indexed by -T1, its row over Z_M
    the indicator of -T1.  It cannot fail: D is Z read at -r, and
    ``get_partition`` has checked T1 = Z."""
    report = Report(f"D as a class union (s={tower.s})")
    _equation_check(report, "D == union of C_i, i in -T1", _class_rows(tower)[1],
                    _inverse(_indicator(get_partition(tower).blocks[0], tower.M)))
    return report
