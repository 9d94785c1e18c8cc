"""Exact Gauss periods, and the identities between their Gauss sums.

The periods are trace-zero counts over E*-orbits, read from bit-sliced
power tables, and come back as a tuple of Python ints.  A Gauss sum
G(phi^ell) = sum_j eta_j zeta^(j ell) lives in Z[zeta_M], but none is
formed here: the identities between Gauss sums are verified for every ell
at once, by comparing number-theoretic DFT tables of the periods modulo
primes p = 1 (mod M) whose product exceeds an L1 bound on the difference
of the two sides; a norm argument makes that comparison exact.  Each table
is a Bluestein transform, one Kronecker product in Z[Z_M].
"""

from __future__ import annotations

from functools import cache
from math import gcd, isqrt

from .binfield import (DEGREE_LIMIT, BinaryField, FieldError, FieldTower,
                       InternalCheckError, _is_prime, _prime_factors,
                       odd_parities, power_blocks, relative_trace_forms)
from .cycpart import _psi_route, get_partition
from .reporting import Report
from .zmring import _cyclic_product, _indicator, _inverse


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
    is q Z[r] - P/M, Z the trace-zero counts.
    """
    K = tower.field(label)
    M, q = tower.M, 1 << tower.s
    if K.order % M:
        raise FieldError(f"M = {M} does not divide |{label}*| = {K.order}")
    step = tower.class_step(label)
    per_class = K.order // (q - 1) // M
    eta = [0] * M
    for r, zeros in enumerate(_trace_zero_counts(K, M, tower.s)):
        eta[r * step % M] = q * zeros - per_class
    if sum(eta) != -1:
        raise InternalCheckError("Gauss periods do not sum to -1")
    return tuple(eta)


def eta_prime_law_check(tower: FieldTower) -> Report:
    """eta'_a over G must equal -2^s * psi(omega^a D) - 1 for every a."""
    eta_g = gauss_periods(tower, "G")
    law = [-(1 << tower.s) * v - 1 for v in _psi_route(tower)[0]]
    bad = next((a for a, (e, v) in enumerate(zip(eta_g, law)) if e != v), None)
    report = Report(f"G-period law (s={tower.s})")
    report.add("eta'_a == -2^s psi(omega^a D) - 1 for all a", bad is None,
               "" if bad is None else f"first mismatch at a={bad}: {eta_g[bad]} != {law[bad]}")
    return report


# ---------------------------------------------------------------------------
# Gauss-sum identities, evaluated in DFT tables
# ---------------------------------------------------------------------------
#
# Let p = 1 (mod M) be prime and r of order M mod p.  A check's two tables
# differ at m by X(r^m) mod p, X in Z[Z_M] the difference of the identity's
# two sides, and its ``bound`` B is an L1 bound sum |X_j|: |eta_F| + q |T1|
# for T1, |eta_K| + |eta_F|^deg for Hasse-Davenport, |eta|^2 + |K| for the
# modulus, 2 |eta| for conjugation.  For d | M, d > 1, the phi(d) maps
# zeta_d -> r^m with gcd(m, M) = M/d are all the maps Z[zeta_d] -> F_p; p
# splits completely in Q(zeta_d), so their kernels are the primes above p
# and their product is (p) (Washington, Cyclotomic Fields, ch. 2).  Tables
# that agree at every m in [1, M) thus put X(zeta_d) in pZ[zeta_d] for each
# prime used.  A nonzero X(zeta_d) would have a norm divisible by
# (prod p)^phi(d), yet at most B^phi(d), as no conjugate exceeds B; so
# prod p > B makes X(zeta_d) = 0 for every d at once.  The identity at ell
# is X(zeta_M^ell) = 0, a conjugate of X(zeta_d) for d = M/gcd(ell, M), so
# the first failing ell is the least gcd(m, M) over the failing m.  The
# period expansion keeps its bound 2 M |eta| under the same rule.

@cache
def _dft_prime(M: int, index: int) -> tuple[int, int]:
    """(p, r): the index-th largest prime p = 1 (mod M) with
    M (p-1)^2 < 2^63, and r = x^((p-1)/M) of exact order M for the least
    such x >= 2.  A sum of M products of residues stays below 2^63, so the
    digits of a Bluestein product are at most 8 bytes wide."""
    top = _dft_prime(M, index - 1)[0] if index else \
        (isqrt(((1 << 63) - 1) // M) // M + 1) * M + 1
    p = next((p for p in range(top - M, M, -M) if _is_prime(p)), 1)
    cofactors = [M // f for f in _prime_factors(M)]
    roots = (pow(x, (p - 1) // M, p) for x in range(2, p))
    r = next((r for r in roots if all(pow(r, c, p) != 1 for c in cofactors)), 0)
    if not (r and _is_prime(p) and p % M == 1 and M * (p - 1) ** 2 < 1 << 63
            and pow(r, M, p) == 1):
        raise InternalCheckError(f"no DFT prime for M = {M} at index {index}")
    return p, r


def _primes(M: int, bound: int) -> list[tuple[int, int]]:
    """The leading DFT primes whose product exceeds ``bound``."""
    primes, product = [], 1
    while product <= bound:
        primes.append(_dft_prime(M, len(primes)))
        product *= primes[-1][0]
    return primes


@cache
def _chirp(M: int, p: int, r: int) -> tuple[list[int], list[int]]:
    """(c, d): c[k] = w^(k^2) and d[k] = w^(-k^2) mod p for k < M, with
    w = r^h and h = 2^-1 mod M (M is odd), so that w^(k^2) has period M."""
    w = pow(r, pow(2, -1, M), p)
    powers = [1] * M
    for k in range(1, M):
        powers[k] = powers[k - 1] * w % p
    return ([powers[k * k % M] for k in range(M)],
            [powers[-k * k % M] for k in range(M)])


@cache
def _dft(values: tuple, M: int, p: int, r: int) -> tuple[int, ...]:
    """out[m] = sum_j values[j] r^(j m) mod p, built once per table and
    prime.  Bluestein: jm = h((j+m)^2 - j^2 - m^2) mod M, so out[m] is
    d[m] sum_j (values[j] d[j]) c[j + m], the chirp c read cyclically: one
    cyclic correlation, the Kronecker product c * (values d)^-1 in Z[Z_M]."""
    c, d = _chirp(M, p, r)
    weighted = [v * x % p for v, x in zip(values, d)]
    return tuple(y * x % p for y, x in zip(_cyclic_product(c, _inverse(weighted)), d))


def _l1(eta) -> int:
    return sum(map(abs, eta))


def _table_check(report: Report, name: str, bound: int, vectors, agree) -> Report:
    """Add the check that ``agree(p, m, *tables)``, the tables DFT_p of
    ``vectors``, holds at every m in [1, M) for each prime the coefficient
    bound needs; the detail names the first failing ell."""
    M = len(vectors[0])
    failing = set()
    for p, r in _primes(M, bound):
        tables = [_dft(tuple(v), M, p, r) for v in vectors]
        failing.update(m for m in range(1, M) if not agree(p, m, *tables))
    report.add(name, not failing,
               f"ell={min(gcd(m, M) for m in failing)}" if failing else "")
    return report


def verify_t1_gauss_identity(tower: FieldTower) -> Report:
    """G_F(chi^ell) = 2^s * sum over x in T1 of zeta^(ell*x), for every
    nonprincipal ell: V_F = 2^s DFT(1_T1).  chi is evaluated at powers of
    omega; the norm-lifted character of G or H reads the classes of F
    pulled back by the norm, so this equality covers it too."""
    q = 1 << tower.s
    T1 = get_partition(tower).T1
    eta = gauss_periods(tower, "F")
    return _table_check(Report(f"Gauss sum vs T1 identity (s={tower.s})"),
                        "G_F(chi^ell) == 2^s sum_{x in T1} zeta^(ell x), all ell",
                        _l1(eta) + q * len(T1), [eta, _indicator(T1, tower.M)],
                        lambda p, m, v, w: v[m] == q * w[m] % p)


def verify_hasse_davenport(tower: FieldTower, lift_degree: int) -> Report:
    """Norm-lifted Gauss sums: degree 2 gives -(G_F)^2 over G, degree 3
    gives +(G_F)^3 over H, exactly in Z[zeta_M]: V_K = -V_F^2 or V_F^3."""
    if lift_degree not in (2, 3):
        raise FieldError("lift degree must be 2 or 3")
    label, sign = ("G", -1) if lift_degree == 2 else ("H", 1)
    eta_f, eta = gauss_periods(tower, "F"), gauss_periods(tower, label)
    return _table_check(
        Report(f"Hasse-Davenport lift degree {lift_degree} (s={tower.s})"),
        f"G_{label}(chi'^ell) == {'-' if sign < 0 else ''}(G_F(chi^ell))^{lift_degree}",
        _l1(eta) + _l1(eta_f) ** lift_degree, [eta_f, eta],
        lambda p, m, v_f, v: v[m] == sign * pow(v_f[m], lift_degree, p) % p)


def gauss_sum_modulus_check(tower: FieldTower, label: str) -> Report:
    """|G(chi^ell)|^2 = |K| for nonprincipal ell: V[m] V[-m] = |K|."""
    size = tower.field(label).size
    eta = gauss_periods(tower, label)
    return _table_check(Report(f"Gauss sum modulus over {label} (s={tower.s})"),
                        f"G * conj(G) == {size}", _l1(eta) ** 2 + size, [eta],
                        lambda p, m, v: v[m] * v[-m] % p == size % p)


def period_expansion_check(tower: FieldTower, label: str) -> Report:
    """eta_a = (1/M) sum_l G(phi^(-l)) zeta^(l*a) must reproduce every
    direct period: the inverse DFT of V is M eta.  This holds for every
    integer vector eta, so it checks the tables, not the periods."""
    M = tower.M
    eta = gauss_periods(tower, label)
    failing = set()
    for p, r in _primes(M, 2 * M * _l1(eta)):
        twice = _dft(_dft(tuple(eta), M, p, r), M, p, r)
        failing.update(a for a in range(M) if twice[-a] != eta[a] % p * M % p)
    bad = min(failing, default=None)
    report = Report(f"period-from-sums expansion over {label} (s={tower.s})")
    report.add("expansion reproduces all periods", bad is None,
               "" if bad is None else f"a={bad}: inverse DFT is not M*eta_a")
    return report


def conjugation_symmetry_check(tower: FieldTower, label: str) -> Report:
    """conj(G(chi^ell)) == G(chi^(M-ell)); psi(-1) = +1 in characteristic 2.
    The table of eta read backwards must be V[-m]; this holds for every
    integer vector eta, so it checks the tables, not the periods."""
    eta = gauss_periods(tower, label)
    return _table_check(Report(f"conjugation symmetry over {label} (s={tower.s})"),
                        "conj(G(ell)) == G(M-ell)", 2 * _l1(eta), [_inverse(eta), eta],
                        lambda p, m, back, v: back[m] == v[-m])
