"""Exact Gauss periods and Gauss sums as cyclotomic integers.

A Gauss sum G(phi^ell) = sum_j eta_j zeta^(j ell) is the image in
Z[zeta_M] of the group-ring element sum_j eta_j [j ell] of Z[Z_M].  All
identities are verified on canonical representatives modulo Phi_M
(``GroupRingElement.reduce``), so two sides agree exactly when their
reductions are equal.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from .binfield import BinaryField, FieldError, FieldTower, InternalCheckError
from .cycpart import get_partition, psi_omega_a_D
from .reporting import Report
from .zmring import GroupRingElement, exact_array, reduce_rows


# ---------------------------------------------------------------------------
# Gauss periods
# ---------------------------------------------------------------------------

# Exponents per chunk of the period walk, rounded to a multiple of 64*M; it
# bounds the walk's working set (one uint8 per exponent, 1 MB).  Fields
# smaller than a chunk get one chunk of about |K*| exponents.
_CHUNK_BITS = 1 << 20

# The walk holds field elements in uint64 states.
WALK_DEGREE_LIMIT = 64

_U64 = np.dtype("<u8")


def _byte_tables(images: list[int]) -> np.ndarray:
    """Lookup tables of the GF(2)-linear map sending bit i to images[i]:
    row b takes byte b of the input to its share of the image, filled by
    XOR-doubling so that row[v | 2^j] = row[v] ^ image of bit j."""
    tables = np.zeros(((len(images) + 7) // 8, 256), dtype=_U64)
    for i, image in enumerate(images):
        row, bit = tables[i // 8], i % 8
        row[1 << bit:2 << bit] = row[:1 << bit] ^ np.uint64(image)
    return tables


def _apply(tables: np.ndarray, words: np.ndarray) -> np.ndarray:
    """The linear map encoded by ``tables`` applied to every word."""
    octets = words.view(np.uint8).reshape(-1, 8)
    out = tables[0][octets[:, 0]]
    for b in range(1, len(tables)):
        out ^= tables[b][octets[:, b]]
    return out


def _mul_tables(K: BinaryField, c: int) -> np.ndarray:
    return _byte_tables([K.mul(c, 1 << i) for i in range(K.degree)])


def _trace_word_tables(K: BinaryField) -> np.ndarray:
    """u -> the 64-bit word whose bit j is Tr(u * g^j)."""
    images = []
    for i in range(K.degree):
        u, word = 1 << i, 0
        for j in range(64):
            word |= K.abs_trace(u) << j
            u = K.mul(u, K.generator)
        images.append(word)
    return _byte_tables(images)


def _trace_one_counts(K: BinaryField, M: int) -> list[int]:
    """ones[r] = #{0 <= k < |K*| : k = r mod M and Tr(g^k) = 1}, g the
    generator of K.

    Tr(g^k) is the m-sequence of the primitive modulus, walked in chunks of
    L = 64*M*c exponents.  A chunk is held as M*c states g^(k0 + 64 i);
    one table lookup turns every state into its next 64 trace bits and one
    more (multiplication by g^L) moves it to the next chunk.  L is a
    multiple of M, so a bit's position in the chunk gives its residue.
    Integer arrays only; the states are uint64, hence the degree bound.
    """
    if K.degree > WALK_DEGREE_LIMIT:
        raise FieldError(f"the Gauss-period walk needs degree <= "
                         f"{WALK_DEGREE_LIMIT}, not {K.degree}")
    g = K.generator
    n_words = M * max(1, min(_CHUNK_BITS, K.order) // (64 * M))
    L = 64 * n_words
    start = np.ones(1, dtype=_U64)
    while len(start) < n_words:
        jump = _mul_tables(K, K.pow(g, 64 * len(start)))
        start = np.concatenate([start, _apply(jump, start)])
    start = start[:n_words]
    to_words = _trace_word_tables(K)
    advance = _mul_tables(K, K.pow(g, L))
    ones = np.zeros(M, dtype=np.int64)
    states = start
    walked = 0
    while walked < K.order:
        bits = np.unpackbits(_apply(to_words, states).view(np.uint8),
                             bitorder="little")
        bits[K.order - walked:] = 0
        ones += bits.reshape(-1, M).sum(axis=0, dtype=np.int64)
        states = _apply(advance, states)
        walked += L
    # g^|K*| = 1: rewinding by |K*| - walked steps must restore every start
    rewind = _mul_tables(K, K.pow(g, K.order - walked))
    if not np.array_equal(_apply(rewind, states), start):
        raise InternalCheckError("period walk did not return to its start")
    if int(ones.sum()) != 1 << (K.degree - 1):
        raise InternalCheckError("trace-one count is not 2^(n-1)")
    return ones.tolist()


@cache
def gauss_periods(tower: FieldTower, label: str) -> list[int]:
    """eta_a = sum of psi over the a-th order-M cyclotomic class, for all a.

    The class of g^k is k*step mod M, and each residue class of exponents
    holds |K*|/M elements, so eta at class r*step is |K*|/M minus twice the
    number of trace-one elements among the exponents k = r mod M.
    """
    K = tower.field(label)
    M = tower.M
    if K.order % M:
        raise FieldError(f"M = {M} does not divide |{label}*| = {K.order}")
    step = tower.class_step(label)
    per_class = K.order // M
    eta = [0] * M
    for r, count in enumerate(_trace_one_counts(K, M)):
        eta[r * step % M] = per_class - 2 * count
    if sum(eta) != -1:
        raise InternalCheckError("Gauss periods do not sum to -1")
    return eta


def eta_prime_law_check(tower: FieldTower) -> Report:
    """eta'_a over G must equal -2^s * psi(omega^a D) - 1 for every a."""
    q = 1 << tower.s
    eta_g = gauss_periods(tower, "G")
    report = Report(f"G-period law (s={tower.s})")
    bad = [(a, eta_g[a], -q * psi_omega_a_D(tower, a) - 1)
           for a in range(tower.M)
           if eta_g[a] != -q * psi_omega_a_D(tower, a) - 1]
    report.add("eta'_a == -2^s psi(omega^a D) - 1 for all a", not bad,
               "" if not bad else f"first mismatch at a={bad[0][0]}: "
                                  f"{bad[0][1]} != {bad[0][2]}")
    return report


# ---------------------------------------------------------------------------
# Gauss sums
# ---------------------------------------------------------------------------

@cache
def period_array(tower: FieldTower, label: str) -> np.ndarray:
    """``gauss_periods`` as a read-only array, int64 when sum |eta| (which
    bounds any sum of distinct periods) is below 2^63."""
    eta = gauss_periods(tower, label)
    eta = exact_array(eta, sum(map(abs, eta)))
    eta.flags.writeable = False
    return eta


def _power_vectors(tower: FieldTower, label: str, ells) -> np.ndarray:
    """Row i is the unreduced length-M power vector of G(phi^ells[i]), one
    scatter for all rows."""
    M = tower.M
    eta = period_array(tower, label)
    ells = np.asarray(ells)[:, None]
    vectors = np.zeros((len(ells), M), dtype=eta.dtype)
    np.add.at(vectors, (np.arange(len(ells))[:, None], ells * np.arange(M) % M), eta)
    return vectors


def gauss_sum_power_vector(tower: FieldTower, label: str, ell: int) -> list[int]:
    """Unreduced length-M power vector of G(phi^ell); coefficient at k is
    the sum of the periods eta_j over j with j*ell = k mod M."""
    return _power_vectors(tower, label, [ell % tower.M])[0].tolist()


@cache
def gauss_sum(tower: FieldTower, label: str, ell: int) -> GroupRingElement:
    """G(phi^ell), reduced modulo Phi_M, where phi sends the normalized
    primitive element (omega, gamma or beta) to zeta_M."""
    M = tower.M
    if not (0 <= ell < M):
        raise FieldError(f"character exponent {ell} out of range [0, {M})")
    vec = gauss_sum_power_vector(tower, label, ell)
    return GroupRingElement(M, tuple(vec)).reduce()


def _check_every_ell(report: Report, name: str, M: int, holds) -> None:
    """One check that ``holds(ell)`` for every nonprincipal ell; every ell
    is evaluated, and the detail names the first that fails."""
    bad = [ell for ell in range(1, M) if not holds(ell)]
    report.add(name, not bad, f"ell={bad[0]}" if bad else "")


def verify_t1_gauss_identity(tower: FieldTower) -> Report:
    """G_F(chi^ell) = 2^s * sum over x in T1 of zeta^(ell*x), for every
    nonprincipal ell.  chi is evaluated at powers of omega; since the
    norm-lifted character takes the same value at the matching powers of
    gamma, the gamma reading of the identity is verified by the same
    equality."""
    M = tower.M
    q = 1 << tower.s
    part = get_partition(tower)
    report = Report(f"Gauss sum vs T1 identity (s={tower.s})")

    def holds(ell):
        rhs = GroupRingElement.from_set(M, [(ell * x) % M for x in part.T1])
        return gauss_sum(tower, "F", ell) == rhs.scale(q).reduce()

    _check_every_ell(report, "G_F(chi^ell) == 2^s sum_{x in T1} zeta^(ell x), all ell",
                     M, holds)
    return report


def verify_hasse_davenport(tower: FieldTower, lift_degree: int) -> Report:
    """Norm-lifted Gauss sums: degree 2 gives -(G_F)^2 over G, degree 3
    gives +(G_F)^3 over H, exactly in Z[zeta_M]; lift_degree - 1 ring
    products per character."""
    if lift_degree not in (2, 3):
        raise FieldError("lift degree must be 2 or 3")
    label = "G" if lift_degree == 2 else "H"
    sign = -1 if lift_degree == 2 else 1
    M = tower.M
    report = Report(f"Hasse-Davenport lift degree {lift_degree} (s={tower.s})")

    def holds(ell):
        base = power = gauss_sum(tower, "F", ell)
        for _ in range(lift_degree - 1):
            power = (power * base).reduce()
        return gauss_sum(tower, label, ell) == power.scale(sign)

    _check_every_ell(report, f"G_{label}(chi'^ell) == {'-' if sign < 0 else ''}"
                             f"(G_F(chi^ell))^{lift_degree}", M, holds)
    return report


def gauss_sum_modulus_check(tower: FieldTower, label: str) -> Report:
    """|G(chi^ell)|^2 = |K| for nonprincipal ell, via G * conj(G)."""
    K = tower.field(label)
    M = tower.M
    size = GroupRingElement.identity(M).scale(K.size)
    report = Report(f"Gauss sum modulus over {label} (s={tower.s})")

    def holds(ell):
        g = gauss_sum(tower, label, ell)
        return (g * g.involute()).reduce() == size

    _check_every_ell(report, f"G * conj(G) == {K.size}", M, holds)
    return report


# Periods recovered per block of the expansion: a block's unreduced totals
# are this many rows of length M, which bounds what the reduction holds.
_EXPANSION_BLOCK = 64


def _periods_from_sums(M: int, sum_vectors, a_values) -> list[int]:
    """``recover_period_from_sums`` for each a in ``a_values``: one gather
    per a, one matrix product per block of a values reducing their sums
    modulo Phi_M."""
    stacked = np.asarray(sum_vectors)
    peak = max(int(stacked.max()), -int(stacked.min()))
    stacked = exact_array(stacked, M * peak)
    ell = np.arange(M)
    minus_ell = -ell % M
    # total[j] = sum over l of G(phi^(-l))[j - l*a]: window M - t of the
    # doubled row -l is that row shifted by t
    windows = np.lib.stride_tricks.sliding_window_view(
        np.concatenate([stacked, stacked], axis=1), M, axis=1)
    values = []
    for start in range(0, len(a_values), _EXPANSION_BLOCK):
        totals = [windows[minus_ell, M - a * ell % M].sum(axis=0)
                  for a in a_values[start:start + _EXPANSION_BLOCK]]
        reduced = reduce_rows(M, totals, M * peak)
        if reduced[:, 1:].any():
            raise InternalCheckError("period expansion is not a rational integer")
        values += reduced[:, 0].tolist()
    if any(value % M for value in values):
        raise InternalCheckError("period expansion not divisible by M")
    return [value // M for value in values]


def recover_period_from_sums(M: int, sum_vectors: list[list[int]], a: int) -> int:
    """eta_a from the M Gauss sums via the expansion
    eta_a = (1/M) * sum_l G(phi^(-l)) * zeta^(l*a).

    ``sum_vectors[ell]`` is the unreduced power vector of G(phi^ell).
    Raises if the combination fails to collapse to a rational integer
    divisible by M.
    """
    return _periods_from_sums(M, sum_vectors, [a])[0]


def period_expansion_check(tower: FieldTower, label: str) -> Report:
    """The Gauss-sum expansion must reproduce every direct period."""
    M = tower.M
    eta = gauss_periods(tower, label)
    report = Report(f"period-from-sums expansion over {label} (s={tower.s})")
    got = _periods_from_sums(M, _power_vectors(tower, label, range(M)), range(M))
    bad = next((a for a in range(M) if got[a] != eta[a]), None)
    report.add("expansion reproduces all periods", bad is None,
               "" if bad is None else f"a={bad}: {got[bad]} != {eta[bad]}")
    return report


def conjugation_symmetry_check(tower: FieldTower, label: str) -> Report:
    """conj(G(chi^ell)) == G(chi^(M-ell)); psi(-1) = +1 in characteristic 2."""
    M = tower.M
    report = Report(f"conjugation symmetry over {label} (s={tower.s})")
    _check_every_ell(report, "conj(G(ell)) == G(M-ell)", M,
                     lambda ell: gauss_sum(tower, label, ell).involute().reduce()
                     == gauss_sum(tower, label, M - ell))
    return report
