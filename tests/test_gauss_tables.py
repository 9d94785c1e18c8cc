"""The Z[Z_M]-product route of the Gauss-sum identities against the
per-character ring oracle, on the true periods and on perturbed ones.

Each identity is decided as "X is constant", X the difference of its two
sides; a failure names the first coefficient of X that differs from X_0,
and X is rebuilt here with the reference product to check that name."""

import pytest

import gauss_ring_oracle as oracle
from cycloscheme import charsum
from cycloscheme.binfield import _is_prime, _prime_factors, build_tower
from cycloscheme.cycpart import get_partition
from ring_oracle import convolve_reference, from_set

TOWERS = {s: build_tower(s) for s in (1, 2, 3, 4)}

# check -> (the product route on a tower, the oracle on (periods, T1, tower))
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
# least prime factor of M: at M = 21 that moves G_F(ell) only where 7 | ell.
# ("F", 0, -1) changes X_0 alone, which a comparison that starts at
# coefficient 1 would miss.
PERTURBATIONS = [None, ("F", 1, 1), ("F", 0, -1), ("G", 2, 1), ("G", 1, -1),
                 "swap", "subgroup"]

CASES = [(s, check) for s in (1, 2, 3) for check in CHECKS] + \
        [(4, check) for check in ("t1", "modulus", "hd2")]


def _inputs(tower, perturbation):
    labels = "FGH" if tower.s < 4 else "FG"
    eta = {label: list(charsum.gauss_periods(tower, label)) for label in labels}
    part = get_partition(tower)
    if perturbation == "swap":
        T1, T2 = list(part.T1), list(part.T2)
        T1[0], T2[0] = T2[0], T1[0]
        part = part._replace(T1=tuple(T1), T2=tuple(T2))
    elif perturbation == "subgroup":
        for j in range(0, tower.M, min(_prime_factors(tower.M))):
            eta["F"][j] += 1
    elif perturbation:
        label, j, change = perturbation
        eta[label][j] += change
    return eta, part


def _route_report(monkeypatch, check, tower, eta, part):
    monkeypatch.setattr(charsum, "gauss_periods", lambda tw, label: eta[label])
    monkeypatch.setattr(charsum, "get_partition", lambda tw: part)
    # eta_F's powers made afresh from the patched periods, not the tower's cache
    monkeypatch.setattr(charsum, "_eta_f_power", charsum._eta_f_power.__wrapped__)
    (result,) = CHECKS[check][0](tower).checks
    return result


def _difference(check, eta, T1, tower):
    """X in Z[Z_M], the identity's left side less its right, by the
    reference product, for the four checks that ask X to be constant."""
    M, eta_f = tower.M, eta["F"]
    if check == "t1":
        return [e - (1 << tower.s) * c for e, c in zip(eta_f, from_set(M, T1).coeffs)]
    if check == "modulus":
        X = list(convolve_reference(M, eta_f, eta_f[:1] + eta_f[:0:-1]))
        X[0] -= tower.F.size
        return X
    square = convolve_reference(M, eta_f, eta_f)
    if check == "hd2":
        return [g + c for g, c in zip(eta["G"], square)]
    return [h - c for h, c in zip(eta["H"], convolve_reference(M, square, eta_f))]


def _detail(X):
    """The failure detail of "X is constant": the first coefficient unlike X_0."""
    i = next((i for i, x in enumerate(X) if x != X[0]), None)
    return "" if i is None else f"first differing coefficient at index {i}: {X[i]} != {X[0]}"


@pytest.mark.parametrize("perturbation", PERTURBATIONS, ids=str)
@pytest.mark.parametrize("s,check", CASES)
def test_tables_agree_with_ring_oracle(monkeypatch, s, check, perturbation):
    tower = TOWERS[s]
    eta, part = _inputs(tower, perturbation)
    expected = CHECKS[check][1](eta, part.T1, tower)
    result = _route_report(monkeypatch, check, tower, eta, part)
    assert result.passed == (expected is None)
    # conjugation and the expansion hold for every integer vector
    assert result.detail == ("" if check in ("conjugation", "expansion")
                             else _detail(_difference(check, eta, part.T1, tower)))


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


@pytest.mark.parametrize("check", ["t1", "modulus", "hd2", "hd3"])
def test_a_period_moved_by_2_to_the_64_is_caught(monkeypatch, check):
    # the products widen their digits with the operands' bound, so a change
    # past int64 still leaves X nonconstant
    tower = TOWERS[1]
    eta, part = _inputs(tower, None)
    eta["F"][2] += 1 << 64
    expected = CHECKS[check][1](eta, part.T1, tower)
    assert expected is not None
    result = _route_report(monkeypatch, check, tower, eta, part)
    assert not result.passed
    assert result.detail == _detail(_difference(check, eta, part.T1, tower))


def _is_prime_by_division(n):
    return n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))


def test_miller_rabin_matches_division():
    assert [n for n in range(2000) if _is_prime(n)] == \
        [n for n in range(2000) if _is_prime_by_division(n)]
    # strong pseudoprimes to several small bases
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
              341550071728321, 3825123056546413051):
        assert not _is_prime(n)
    assert _is_prime((1 << 61) - 1)
