"""The DFT-table route of the Gauss-sum identities against the per-character
ring oracle, on the true periods and on perturbed ones, and the primes
that make the tables exact."""

from dataclasses import replace
from math import prod

import numpy as np
import pytest

import gauss_ring_oracle as oracle
from cycloscheme import charsum
from cycloscheme.binfield import InternalCheckError, _prime_factors, build_tower
from cycloscheme.cycpart import get_partition

TOWERS = {s: build_tower(s) for s in (1, 2, 3, 4)}

# check -> (the table route on a tower, the oracle on (periods, T1, tower))
CHECKS = {
    "t1": (charsum.verify_t1_gauss_identity,
           lambda eta, T1, tw: oracle.t1_identity(eta["F"], T1, 1 << tw.s)),
    "modulus": (lambda tw: charsum.gauss_sum_modulus_check(tw, "F"),
                lambda eta, T1, tw: oracle.modulus(eta["F"], tw.F.size)),
    "conjugation": (lambda tw: charsum.conjugation_symmetry_check(tw, "F"),
                    lambda eta, T1, tw: oracle.conjugation(eta["F"])),
    "expansion": (lambda tw: charsum.period_expansion_check(tw, "F"),
                  lambda eta, T1, tw: oracle.expansion(eta["F"])),
    "hd2": (lambda tw: charsum.verify_hasse_davenport(tw, 2),
            lambda eta, T1, tw: oracle.hasse_davenport(eta["F"], eta["G"], 2)),
    "hd3": (lambda tw: charsum.verify_hasse_davenport(tw, 3),
            lambda eta, T1, tw: oracle.hasse_davenport(eta["F"], eta["H"], 3)),
}

# (label, index, change) on one period, "swap" for T1 with one T2 element
# exchanged, "subgroup" for eta_F plus the indicator of the multiples of the
# least prime factor of M: at M = 21 that moves G_F(ell) only where 7 | ell
PERTURBATIONS = [None, ("F", 1, 1), ("F", 0, -1), ("G", 2, 1), ("G", 1, -1),
                 "swap", "subgroup"]

CASES = [(s, check) for s in (1, 2, 3) for check in CHECKS] + \
        [(4, check) for check in ("t1", "modulus", "hd2")]


def _inputs(tower, perturbation):
    labels = "FGH" if tower.s < 4 else "FG"
    eta = {label: np.array(charsum.gauss_periods(tower, label)) for label in labels}
    part = get_partition(tower)
    if perturbation == "swap":
        T1, T2 = list(part.T1), list(part.T2)
        T1[0], T2[0] = T2[0], T1[0]
        part = replace(part, T1=tuple(T1), T2=tuple(T2))
    elif perturbation == "subgroup":
        eta["F"][::min(_prime_factors(tower.M))] += 1
    elif perturbation:
        label, j, change = perturbation
        eta[label][j] += change
    return eta, part


def _table_report(monkeypatch, check, tower, eta, part):
    monkeypatch.setattr(charsum, "gauss_periods", lambda tw, label: eta[label])
    monkeypatch.setattr(charsum, "get_partition", lambda tw: part)
    (result,) = CHECKS[check][0](tower).checks
    return result


@pytest.mark.parametrize("perturbation", PERTURBATIONS, ids=str)
@pytest.mark.parametrize("s,check", CASES)
def test_tables_agree_with_ring_oracle(monkeypatch, s, check, perturbation):
    tower = TOWERS[s]
    eta, part = _inputs(tower, perturbation)
    expected = CHECKS[check][1](eta, part.T1, tower)
    result = _table_report(monkeypatch, check, tower, eta, part)
    assert result.passed == (expected is None)
    if check == "expansion":
        assert result.detail.split(":")[0] == ("" if expected is None else f"a={expected}")
    else:
        assert result.detail == ("" if expected is None else f"ell={expected}")


def test_true_periods_pass_and_perturbations_bite():
    # the oracle itself: every identity holds on the true inputs, and the
    # perturbations break the paper's identities (not conjugation and the
    # expansion, which hold for every integer vector)
    tower = TOWERS[2]
    eta, part = _inputs(tower, None)
    assert all(ring(eta, part.T1, tower) is None for _, ring in CHECKS.values())
    eta, part = _inputs(tower, ("F", 1, 1))
    assert oracle.t1_identity(eta["F"], part.T1, 4) == 1
    eta, part = _inputs(tower, "subgroup")
    assert oracle.t1_identity(eta["F"], part.T1, 4) == 7
    assert oracle.conjugation(eta["F"]) is None and oracle.expansion(eta["F"]) is None


def _count_primes(monkeypatch):
    """The list that collects the prime of every DFT table built."""
    used = []
    dft = charsum._dft

    def counted(values, M, p, r):
        used.append(p)
        return dft(values, M, p, r)

    monkeypatch.setattr(charsum, "_dft", counted)
    return used


def test_change_by_the_first_prime_is_caught(monkeypatch):
    # eta_F[2] + p1 leaves every table mod p1 unchanged; the coefficient
    # bound grows with the periods and must pull in a second prime
    tower = TOWERS[1]
    p1 = charsum._dft_prime(tower.M, 0)[0]
    eta, part = _inputs(tower, None)
    eta["F"][2] += p1
    used = _count_primes(monkeypatch)
    for check in ("t1", "modulus", "hd2"):
        used.clear()
        expected = CHECKS[check][1](eta, part.T1, tower)
        assert expected is not None
        result = _table_report(monkeypatch, check, tower, eta, part)
        assert not result.passed and result.detail == f"ell={expected}"
        assert len(set(used)) >= 2


@pytest.mark.parametrize("change,ell", [("one", 1), ("subgroup", 7)])
def test_one_prime_is_exact_below_the_norm_bound(monkeypatch, change, ell):
    # at M = 21, eta_F[1] + p1//4 or the multiples of 3 raised by p1//40 put
    # the T1 bound between p1/12 and p1: one prime is enough, since a nonzero
    # X(zeta_d) in p1 Z[zeta_d] would need a norm of at least p1^phi(d)
    tower = TOWERS[2]
    p1 = charsum._dft_prime(tower.M, 0)[0]
    eta, part = _inputs(tower, None)
    if change == "one":
        eta["F"][1] += p1 // 4
    else:
        eta["F"][::3] += p1 // 40
    assert p1 // 12 < charsum._l1(eta["F"]) + 4 * len(part.T1) < p1
    used = _count_primes(monkeypatch)
    for check in ("t1", "hd2"):
        used.clear()
        expected = CHECKS[check][1](eta, part.T1, tower)
        assert expected == ell
        result = _table_report(monkeypatch, check, tower, eta, part)
        assert not result.passed and result.detail == f"ell={ell}"
        if check == "t1":
            assert set(used) == {p1}


def test_table_faults_fail_the_code_checks(monkeypatch):
    # conjugation and the expansion hold for every integer vector, so they
    # fail only when the tables are wrong: corrupt one entry of each table
    dft = charsum._dft

    def faulty(values, M, p, r):
        out = dft(values, M, p, r)
        out[3] = (out[3] + 1) % p
        return out

    monkeypatch.setattr(charsum, "_dft", faulty)
    tower = TOWERS[1]
    (conj,) = charsum.conjugation_symmetry_check(tower, "F").checks
    assert not conj.passed and conj.detail == "ell=1"
    (expansion,) = charsum.period_expansion_check(tower, "F").checks
    assert not expansion.passed and expansion.detail.startswith("a=")


def _is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


@pytest.mark.parametrize("M", [7, 21, 73, 273, 1057])
def test_dft_primes(M):
    limit = 1 << 63
    primes = [charsum._dft_prime(M, i) for i in range(3)]
    # the largest candidate c = 1 (mod M) that keeps M (c-1)^2 below 2^63
    top = next(c for c in range(int((limit / M) ** 0.5) // M * M + 1 + 2 * M, 0, -M)
               if M * (c - 1) ** 2 < limit)
    assert M * (top - 1 + M) ** 2 >= limit
    for p, r in primes:
        assert _is_prime_by_division(p)
        assert p % M == 1 and M * (p - 1) ** 2 < limit
        assert pow(r, M, p) == 1
        assert all(pow(r, d, p) != 1 for d in range(1, M) if M % d == 0)
    # largest first, and no prime candidate skipped between them
    candidates = range(top, primes[-1][0] - 1, -M)
    assert [p for p, _ in primes] == [p for p in candidates if _is_prime_by_division(p)]


def test_dft_prime_search_refuses_when_no_prime_fits():
    # M^3 > 2^63: no p = 1 (mod M) keeps M (p-1)^2 below 2^63
    with pytest.raises(InternalCheckError):
        charsum._dft_prime((1 << 21) + 1, 0)


def test_primes_cover_the_crt_bound():
    M = TOWERS[2].M
    for bound in (1, 10 ** 9, 10 ** 20, 10 ** 40):
        primes = [p for p, _ in charsum._primes(M, bound)]
        assert prod(primes) > bound >= prod(primes[:-1])


def test_miller_rabin_matches_division():
    assert [n for n in range(2000) if charsum._is_prime(n)] == \
        [n for n in range(2000) if _is_prime_by_division(n)]
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not charsum._is_prime(n)
    assert charsum._is_prime((1 << 61) - 1)
