"""Exact Gauss periods, and the identities between their Gauss sums.

The periods are trace-zero counts over E*-orbits, read from bit-sliced
power tables, and come back as a tuple of Python ints.  A Gauss sum
G(phi^ell) = sum_j eta_j zeta^(j ell) is the value at x = zeta^ell of
eta = sum_j eta_j [j] in Z[Z_M], but none is formed here: an identity
between Gauss sums holds for every nonprincipal ell at once when X, the
difference of its two sides in Z[Z_M], vanishes at every zeta^ell with
ell != 0, that is, when X is a multiple of 1 + x + ... + x^(M-1), a
constant.  The sides are ``zmring._cyclic_product``s of the periods,
exact at every size.
"""

from functools import cache

from .binfield import (DEGREE_LIMIT, BinaryField, FieldError, FieldTower,
                       InternalCheckError, odd_parities, power_blocks,
                       relative_trace_forms)
from .cycpart import _psi_route, get_partition
from .reporting import Report
from .zmring import _combine, _cyclic_product, _equation_check, _indicator, _inverse


# ---------------------------------------------------------------------------
# Gauss periods
# ---------------------------------------------------------------------------

def _doubling_orbits(M: int) -> list[list[int]]:
    """The orbits r, 2r, 4r, ... of doubling on Z_M, by least member."""
    orbits, seen = [], set()
    for r in range(M):
        if r not in seen:
            orbit = [r]
            while 2 * orbit[-1] % M != r:
                orbit.append(2 * orbit[-1] % M)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def _even_against_every_mask(table: list[int], masks: list[list[int]],
                             width: int) -> list[int]:
    """Entry j: the number of the first ``width`` exponents of a bit-sliced
    table whose element has even parity against every mask of masks[j]:
    ``width`` less the popcount of the OR of the masks' parity words."""
    keep = (1 << width) - 1
    return [width - (odd_parities(table, row) & keep).bit_count() for row in masks]


def _trace_zero_counts(K: BinaryField, M: int, s: int) -> list[int]:
    """Z[r] = #{0 <= n < P : n = r mod M and Tr_{K/E}(g^n) = 0}, with g the
    generator of K, E = GF(2^s) and P = |K*|/(2^s - 1), a multiple of M.

    n = r + M t is counted when g^(M t) has even parity against the s
    ``relative_trace_forms`` masks of g^r (those of Tr(beta^i g^r u),
    beta = g^P).  The g^(M t) are the ``power_blocks`` of g^M.  u -> u^2
    sends g^n to g^(2n) and keeps the relative trace zero, so Z is constant
    on each orbit of doubling on Z_M: the walk counts two members, r and 2r,
    of every orbit, which must agree.
    """
    if K.degree > DEGREE_LIMIT:
        raise FieldError(f"the Gauss-period walk supports degree <= "
                         f"{DEGREE_LIMIT}, not {K.degree}")
    g, q = K.generator, 1 << s
    P = K.order // (q - 1)
    N = P // M  # strided exponents per residue
    orbits = _doubling_orbits(M)
    walked = [r for orbit in orbits for r in orbit[:2]]
    masks = relative_trace_forms(K, s, [K.pow(g, r) for r in walked])
    counts = [0] * len(walked)
    for _, width, table in power_blocks(K, K.pow(g, M), N):
        counts = [c + e for c, e in zip(counts, _even_against_every_mask(table, masks, width))]
    count = dict(zip(walked, counts))
    zeros = [0] * M
    for orbit in orbits:
        if count[orbit[0]] != count[orbit[1 % len(orbit)]]:
            raise InternalCheckError(f"trace-zero counts differ on the doubling "
                                     f"orbit of {orbit[0]}")
        for r in orbit:
            zeros[r] = count[orbit[0]]
    # the E-hyperplane ker Tr_{K/E} holds (q^(d-1) - 1)/(q - 1) orbits u E*
    if sum(zeros) != (q ** (K.degree // s - 1) - 1) // (q - 1):
        raise InternalCheckError("the trace-zero counts do not fill a hyperplane")
    return zeros


@cache
def gauss_periods(tower: FieldTower, label: str) -> tuple[int, ...]:
    """eta_a = sum of psi over the a-th order-M cyclotomic class, for all a,
    as an immutable tuple of Python ints.

    The class of g^n is n*step mod M.  E* = <g^P> lies in the class of 1,
    as M divides P = |K*|/(q - 1), so the class r*step is the union of the
    orbits u E*, u = g^n with n < P and n = r mod M.  On one orbit psi sums
    to q - 1 if Tr_{K/E}(u) = 0 and to -1 otherwise, so eta at class r*step
    is q Z[r] - P/M, Z the trace-zero counts.  step is a unit mod M and
    the hyperplane count of Z is checked, so the periods sum to -1.
    """
    K = tower.field(label)
    M, q = tower.M, 1 << tower.s
    step = tower.class_step(label)
    per_class = K.order // (q - 1) // M
    eta = [0] * M
    for r, zeros in enumerate(_trace_zero_counts(K, M, tower.s)):
        eta[r * step % M] = q * zeros - per_class
    return tuple(eta)


def eta_prime_law_check(tower: FieldTower) -> Report:
    """eta'_a over G must equal -2^s * psi(omega^a D) - 1 for every a."""
    eta_g = gauss_periods(tower, "G")
    law = [-(1 << tower.s) * v - 1 for v in _psi_route(tower)]
    bad = next((a for a, (e, v) in enumerate(zip(eta_g, law)) if e != v), None)
    report = Report(f"G-period law (s={tower.s})")
    report.add("eta'_a == -2^s psi(omega^a D) - 1 for all a", bad is None,
               "" if bad is None else f"first mismatch at a={bad}: {eta_g[bad]} != {law[bad]}")
    return report


# ---------------------------------------------------------------------------
# Gauss-sum identities, as products in Z[Z_M]
# ---------------------------------------------------------------------------

def _constant_check(report: Report, name: str, X: list[int]) -> Report:
    """Add the check that X in Z[Z_M] vanishes at every zeta^ell, ell != 0.
    Those are the roots of 1 + x + ... + x^(M-1), so it holds exactly when
    that polynomial divides X, that is, when X is constant; the detail
    names the first coefficient that differs from X_0."""
    _equation_check(report, name, X, X[:1] * len(X))
    return report


def verify_t1_gauss_identity(tower: FieldTower) -> Report:
    """G_F(chi^ell) = 2^s * sum over x in T1 of zeta^(ell*x), for every
    nonprincipal ell: eta_F - 2^s 1_T1 is constant.  chi is evaluated at
    powers of omega; the norm-lifted character of G or H reads the classes
    of F pulled back by the norm, so this equality covers it too."""
    q = 1 << tower.s
    T1 = get_partition(tower).T1
    eta = gauss_periods(tower, "F")
    return _constant_check(Report(f"Gauss sum vs T1 identity (s={tower.s})"),
                           "G_F(chi^ell) == 2^s sum_{x in T1} zeta^(ell x), all ell",
                           _combine((1, eta), (-q, _indicator(T1, tower.M))))


@cache
def _eta_f_power(tower: FieldTower, degree: int) -> tuple[int, ...]:
    """eta_F^degree in Z[Z_M], degree 2 or 3: the cube reuses the square."""
    eta_f = gauss_periods(tower, "F")
    return tuple(_cyclic_product(_eta_f_power(tower, 2) if degree == 3 else eta_f, eta_f))


def verify_hasse_davenport(tower: FieldTower, lift_degree: int) -> Report:
    """Norm-lifted Gauss sums: degree 2 gives -(G_F)^2 over G, degree 3
    gives +(G_F)^3 over H, exactly in Z[zeta_M]: eta_G + eta_F^2 or
    eta_H - eta_F^3 is constant."""
    if lift_degree not in (2, 3):
        raise FieldError("lift degree must be 2 or 3")
    label, sign = ("G", -1) if lift_degree == 2 else ("H", 1)
    return _constant_check(
        Report(f"Hasse-Davenport lift degree {lift_degree} (s={tower.s})"),
        f"G_{label}(chi'^ell) == {'-' if sign < 0 else ''}(G_F(chi^ell))^{lift_degree}",
        _combine((1, gauss_periods(tower, label)), (-sign, _eta_f_power(tower, lift_degree))))


def gauss_sum_modulus_check(tower: FieldTower, label: str) -> Report:
    """|G(chi^ell)|^2 = |K| for nonprincipal ell: eta eta^-1 - |K| [0] is
    constant, eta^-1 taking the value conj(G(chi^ell)) at zeta^ell."""
    size = tower.field(label).size
    eta = gauss_periods(tower, label)
    X = _cyclic_product(eta, _inverse(eta))
    X[0] -= size
    return _constant_check(Report(f"Gauss sum modulus over {label} (s={tower.s})"),
                           f"G * conj(G) == {size}", X)


def period_expansion_check(tower: FieldTower, label: str) -> Report:
    """eta_a = (1/M) sum_l G(phi^(-l)) zeta^(l*a) must reproduce every
    direct period: M eta_a - eta(1) is the sum over l != 0, and
    M [0] - 1_{Z_M} is M at every zeta^l, l != 0, and 0 at l = 0, so
    eta (M [0] - 1_{Z_M}) == M eta - eta(1) 1_{Z_M}.  This holds for every
    integer vector eta, so it checks the product kernel, not the periods."""
    M = tower.M
    eta = gauss_periods(tower, label)
    total = sum(eta)
    report = Report(f"period-from-sums expansion over {label} (s={tower.s})")
    _equation_check(report, "expansion reproduces all periods",
                    _cyclic_product(eta, [M - 1] + [-1] * (M - 1)),
                    [M * e - total for e in eta])
    return report


def conjugation_symmetry_check(tower: FieldTower, label: str) -> Report:
    """conj(G(chi^ell)) == G(chi^(M-ell)); psi(-1) = +1 in characteristic 2.
    eta^-1 takes the value G(chi^(M-ell)) at zeta^ell, so G conj(G) at ell
    and at M - ell are one value: eta eta^-1 is its own inverse.  This
    holds for every integer vector eta, so it checks the product kernel,
    not the periods."""
    eta = gauss_periods(tower, label)
    product = _cyclic_product(eta, _inverse(eta))
    report = Report(f"conjugation symmetry over {label} (s={tower.s})")
    _equation_check(report, "conj(G(ell)) == G(M-ell)", _inverse(product), product)
    return report
