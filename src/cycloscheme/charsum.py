"""Exact Gauss periods, and the identities between their Gauss sums.

A Gauss sum G(phi^ell) = sum_j eta_j zeta^(j ell) lives in Z[zeta_M], but
none is formed here: the identities between Gauss sums are verified for
every ell at once, by comparing number-theoretic DFT tables of the periods
modulo primes p = 1 (mod M) whose product exceeds an L1 bound on the
difference of the two sides; a norm argument makes that comparison exact.
"""

from __future__ import annotations

from functools import cache
from math import isqrt

import numpy as np

from .binfield import (WALK_DEGREE_LIMIT, BinaryField, FieldError, FieldTower,
                       InternalCheckError, _apply, _is_prime, _mul_tables,
                       _prime_factors, power_table, trace_forms)
from .cycpart import _psi_route, get_partition
from .reporting import Report


# ---------------------------------------------------------------------------
# Gauss periods
# ---------------------------------------------------------------------------

# Words per chunk of the strided power table walked by the period kernel;
# it bounds the kernel's working set (the words, one AND and its parities,
# about 0.3 MB).  Fields with fewer strided exponents get one chunk.
_CHUNK_WORDS = 1 << 14


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


def _even_against_every_mask(words: np.ndarray, masks: np.ndarray) -> np.ndarray:
    """Entry j: the number of words with even parity against every mask of
    row j.  Bit 0 of an OR of popcounts is the OR of their parities."""
    counts = np.empty(len(masks), dtype=np.int64)
    for j, row in enumerate(masks):
        odd = np.bitwise_count(words & row[0])
        for mask in row[1:]:
            odd |= np.bitwise_count(words & mask)
        counts[j] = len(words) - np.count_nonzero(odd & 1)
    return counts


def _trace_zero_counts(K: BinaryField, M: int, s: int) -> list[int]:
    """Z[r] = #{0 <= n < P : n = r mod M and Tr_{K/E}(g^n) = 0}, with g the
    generator of K, E = GF(2^s) and P = |K*|/(2^s - 1), a multiple of M.

    Tr_{K/E}(u) = 0 iff Tr(beta^i u) = 0 for every i < s, beta = g^P a
    generator of E*.  So n = r + M t is counted when the word g^(M t) has
    even parity against the s trace-form masks of beta^i g^r.  The words
    are a power table of g^M, walked in chunks of L and moved on by g^(M L).
    u -> u^2 sends g^n to g^(2n) and keeps the relative trace zero, so Z
    is constant on each orbit of doubling on Z_M: the walk counts two
    members, r and 2r, of every orbit, which must agree.  Integer arrays
    only; the words are uint64, hence the degree bound.
    """
    if K.degree > WALK_DEGREE_LIMIT:
        raise FieldError(f"the Gauss-period walk needs degree <= "
                         f"{WALK_DEGREE_LIMIT}, not {K.degree}")
    g, q = K.generator, 1 << s
    P = K.order // (q - 1)
    N = P // M  # strided exponents per residue
    orbits = _doubling_orbits(M)
    walked = [r for orbit in orbits for r in orbit[:2]]
    starts = power_table(K, g, M)[walked]
    beta = K.pow(g, P)
    masks = trace_forms(K, np.concatenate(
        [_apply(_mul_tables(K, K.pow(beta, i)), starts) for i in range(s)]))
    masks = masks.reshape(s, -1).T  # row j: the s masks of residue walked[j]
    L = min(N, _CHUNK_WORDS)
    start = power_table(K, K.pow(g, M), L)
    advance = _mul_tables(K, K.pow(g, M * L))
    counts = np.zeros(len(walked), dtype=np.int64)
    words, done = start, 0
    while done < N:
        counts += _even_against_every_mask(words[:N - done], masks)
        words = _apply(advance, words)
        done += L
    # g^|K*| = 1: multiplying by g^(-M*done) must restore the start
    rewind = _mul_tables(K, K.pow(g, -M * done % K.order))
    if not np.array_equal(_apply(rewind, words), start):
        raise InternalCheckError("period walk did not return to its start")
    count = dict(zip(walked, counts.tolist()))
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
def gauss_periods(tower: FieldTower, label: str) -> np.ndarray:
    """eta_a = sum of psi over the a-th order-M cyclotomic class, for all a,
    as a read-only int64 array.

    The class of g^n is n*step mod M.  E* = <g^P> lies in the class of 1,
    as M divides P = |K*|/(q - 1), so the class r*step is the union of the
    orbits u E*, u = g^n with n < P and n = r mod M.  On one orbit psi sums
    to q - 1 if Tr_{K/E}(u) = 0 and to -1 otherwise, so eta at class r*step
    is q Z[r] - P/M, Z the trace-zero counts.  sum |eta| bounds any sum of
    distinct periods, and it is at most |K*|, below 2^63 for every field
    the walk accepts; the guard keeps that a checked fact.
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
    if sum(map(abs, eta)) >= 1 << 63:
        raise InternalCheckError(f"periods over {label} do not fit int64")
    eta = np.array(eta, dtype=np.int64)
    eta.flags.writeable = False
    return eta


def eta_prime_law_check(tower: FieldTower) -> Report:
    """eta'_a over G must equal -2^s * psi(omega^a D) - 1 for every a."""
    eta_g = gauss_periods(tower, "G")
    law = -(1 << tower.s) * np.array(_psi_route(tower)[0]) - 1
    bad = np.flatnonzero(eta_g != law)
    report = Report(f"G-period law (s={tower.s})")
    report.add("eta'_a == -2^s psi(omega^a D) - 1 for all a", not len(bad),
               f"first mismatch at a={bad[0]}: {eta_g[bad[0]]} != {law[bad[0]]}"
               if len(bad) else "")
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

# Rows per block of a DFT matrix: a block is this many rows of length M.
_DFT_ROWS = 64


@cache
def _dft_prime(M: int, index: int) -> tuple[int, int]:
    """(p, r): the index-th largest prime p = 1 (mod M) with
    M (p-1)^2 < 2^63, so that a sum of M products of residues fits int64,
    and r = x^((p-1)/M) of exact order M for the least such x >= 2."""
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


def _dft(values, M: int, p: int, r: int) -> np.ndarray:
    """out[m] = sum_j values[j] r^(j m) mod p: one int64 matrix-vector
    product, the matrix gathered in blocks of rows from the powers of r.
    Both factors are residues below p, so no sum reaches M (p-1)^2."""
    powers = np.array([pow(r, k, p) for k in range(M)], dtype=np.int64)
    x = (np.asarray(values) % p).astype(np.int64)
    out = np.empty(M, dtype=np.int64)
    for start in range(0, M, _DFT_ROWS):
        m = np.arange(start, min(start + _DFT_ROWS, M))[:, None]
        out[start:start + len(m)] = powers[m * np.arange(M) % M] @ x % p
    return out


def _l1(eta: np.ndarray) -> int:
    return int(np.abs(eta).sum())


def _table_check(report: Report, name: str, bound: int, vectors, agree) -> Report:
    """Add the check that ``agree(p, *tables)``, the tables DFT_p of
    ``vectors``, holds at every m in [1, M) for each prime the coefficient
    bound needs; the detail names the first failing ell."""
    M = len(vectors[0])
    failing = np.zeros(M, dtype=bool)
    for p, r in _primes(M, bound):
        failing |= ~agree(p, *(_dft(v, M, p, r) for v in vectors))
    m = np.flatnonzero(failing[1:]) + 1
    report.add(name, not len(m), f"ell={np.gcd(m, M).min()}" if len(m) else "")
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
                        _l1(eta) + q * len(T1), [eta, np.bincount(T1, minlength=tower.M)],
                        lambda p, v, w: v == q * w % p)


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
        lambda p, v_f, v: v == sign * (v_f * v_f % p * v_f ** (lift_degree - 2)) % p)


def gauss_sum_modulus_check(tower: FieldTower, label: str) -> Report:
    """|G(chi^ell)|^2 = |K| for nonprincipal ell: V[m] V[-m] = |K|."""
    size = tower.field(label).size
    eta = gauss_periods(tower, label)
    neg = -np.arange(tower.M) % tower.M
    return _table_check(Report(f"Gauss sum modulus over {label} (s={tower.s})"),
                        f"G * conj(G) == {size}", _l1(eta) ** 2 + size, [eta],
                        lambda p, v: v * v[neg] % p == size % p)


def period_expansion_check(tower: FieldTower, label: str) -> Report:
    """eta_a = (1/M) sum_l G(phi^(-l)) zeta^(l*a) must reproduce every
    direct period: the inverse DFT of V is M eta.  This holds for every
    integer vector eta, so it checks the tables, not the periods."""
    M = tower.M
    eta = gauss_periods(tower, label)
    failing = np.zeros(M, dtype=bool)
    for p, r in _primes(M, 2 * M * _l1(eta)):
        failing |= _dft(_dft(eta, M, p, r), M, p, r)[-np.arange(M) % M] != eta % p * M % p
    bad = np.flatnonzero(failing)
    report = Report(f"period-from-sums expansion over {label} (s={tower.s})")
    report.add("expansion reproduces all periods", not len(bad),
               f"a={bad[0]}: inverse DFT is not M*eta_a" if len(bad) else "")
    return report


def conjugation_symmetry_check(tower: FieldTower, label: str) -> Report:
    """conj(G(chi^ell)) == G(chi^(M-ell)); psi(-1) = +1 in characteristic 2.
    The table of eta read backwards must be V[-m]; this holds for every
    integer vector eta, so it checks the tables, not the periods."""
    eta = gauss_periods(tower, label)
    neg = -np.arange(tower.M) % tower.M
    return _table_check(Report(f"conjugation symmetry over {label} (s={tower.s})"),
                        "conj(G(ell)) == G(M-ell)", 2 * _l1(eta), [eta[neg], eta],
                        lambda p, back, v: back == v[neg])
