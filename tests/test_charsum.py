from types import SimpleNamespace

import numpy as np
import pytest

from cycloscheme import charsum
from cycloscheme.binfield import (FieldError, InternalCheckError, _byte_tables, build_field,
                                  build_tower)
from cycloscheme.charsum import (conjugation_symmetry_check, eta_prime_law_check,
                                 gauss_periods, gauss_sum_modulus_check,
                                 period_expansion_check, verify_hasse_davenport,
                                 verify_t1_gauss_identity)
from cycloscheme.cycpart import _psi_route
from cycloscheme.zmring import GroupRingError
from gauss_ring_oracle import gauss_sum, gauss_sum_power_vector, recover_period_from_sums
from period_oracle import gauss_periods_reference, trace_word_images_reference
from ring_oracle import GroupRingElement, cyclotomic_polynomial

# every (s, field) with |K*| <= 2^18
SMALL_FIELDS = [(1, "F"), (1, "G"), (1, "H"), (2, "F"), (2, "G"), (2, "H"),
                (3, "F"), (3, "G")]

# non-default primitive moduli per s, as (F, G, H); None keeps the default
OTHER_MODULI = {1: (0xd, 0x61, 0x221), 2: (0x61, 0x107b, 0x4004d),
                3: (0x221, 0x4004d, None)}


def test_cyclotomic_polynomial_small():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
    # Phi_21 = x^12 - x^11 + x^9 - x^8 + x^6 - x^4 + x^3 - x + 1
    assert cyclotomic_polynomial(21) == (1, -1, 0, 1, -1, 0, 1, 0, -1, 1, 0, -1, 1)


def test_cyclotomic_polynomials_multiply_back():
    for M in (7, 21, 73):
        prod = [1]
        for d in range(1, M + 1):
            if M % d == 0:
                phi = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(phi) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(phi):
                        new[i + j] += a * b
                prod = new
        expected = [0] * (M + 1)
        expected[0], expected[M] = -1, 1
        assert prod == expected


def test_gauss_periods_f_s1():
    tower = build_tower(1)
    eta = gauss_periods(tower, "F")
    # eta_a = q-1 on T1, -1 elsewhere for the base field
    assert eta.tolist() == [-1, 1, 1, -1, 1, -1, -1]
    assert sum(eta) == -1


def test_gauss_periods_g_s1_three_values():
    tower = build_tower(1)
    eta = gauss_periods(tower, "G")
    part = {a: v for a, v in enumerate(eta)}
    assert {part[a] for a in (1, 2, 4)} == {1}
    assert {part[a] for a in (3, 5, 6)} == {-3}
    assert part[0] == 5


def test_gauss_periods_h_s1_frozen_values():
    tower = build_tower(1)
    eta = gauss_periods(tower, "H")
    assert sum(eta) == -1
    assert eta[0] == 17
    assert sorted(eta) == [-7, -7, -7, 1, 1, 1, 17]


def _assert_walk_matches_oracle(tower, label):
    expected = gauss_periods_reference(tower.field(label), tower.M,
                                       tower.class_step(label))
    assert gauss_periods(tower, label).tolist() == expected


@pytest.mark.parametrize("other_moduli", [False, True])
@pytest.mark.parametrize("s,label", SMALL_FIELDS)
def test_gauss_periods_match_oracle(s, label, other_moduli):
    tower = build_tower(s, *OTHER_MODULI[s]) if other_moduli else build_tower(s)
    if other_moduli:
        assert tower.field(label).modulus == OTHER_MODULI[s]["FGH".index(label)]
    _assert_walk_matches_oracle(tower, label)


@pytest.mark.parametrize("chunk_bits", [1, 3 * 64 * 21])
@pytest.mark.parametrize("s,label", [(1, "H"), (2, "G"), (2, "H"), (3, "F")])
def test_gauss_periods_multi_chunk(monkeypatch, chunk_bits, s, label):
    # chunks of one or a few 64*M blocks: many full chunks, then a ragged
    # tail (|K*| is odd, so never a multiple of 64)
    monkeypatch.setattr(charsum, "_CHUNK_BITS", chunk_bits)
    _assert_walk_matches_oracle(build_tower(s), label)


class _StubTower:
    """Just enough of a tower for gauss_periods; hashable, as its cache needs."""
    M = 65793

    def field(self, label):
        return SimpleNamespace(degree=72, order=(1 << 72) - 1)

    def class_step(self, label):
        return 1


def test_trace_word_tables_match_the_product_loop():
    for m in range(3, 64):
        K = build_field(m)
        assert np.array_equal(charsum._trace_word_tables(K),
                              _byte_tables(trace_word_images_reference(K))), m


def test_gauss_periods_degree_guard():
    # GF(2^72) at s = 8: a uint64 state would wrap, so the walk must refuse
    # before it builds a table or touches an element
    with pytest.raises(FieldError, match="degree <= 64"):
        gauss_periods(_StubTower(), "H")


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_periods_are_read_only_int64(s):
    tower = build_tower(s)
    for label in "FGH":
        eta = gauss_periods(tower, label)
        assert eta.dtype == np.int64 and not eta.flags.writeable


class _TinyStubTower(_StubTower):
    """A stub with M = |K*| = 7, so each class holds one exponent."""
    M = 7

    def field(self, label):
        return SimpleNamespace(degree=3, order=7)


# sum |eta| just below 2^63 fits int64; past 2^63, or with a period that is
# itself past int64, the guard refuses.  Seven odd periods summing to -1
# have an odd sum |eta|, so 2^63 - 1 is the largest that fits.
@pytest.mark.parametrize("counts,fits", [
    ([2 - (1 << 61), (1 << 61) - 1, 0, 0, 1, 1, 1], True),
    ([1 << 61, -(1 << 61), 1, 1, 1, 1, 0], False),
    ([1 << 70, -(1 << 70), 0, 1, 1, 1, 1], False)])
def test_gauss_periods_int64_guard(monkeypatch, counts, fits):
    monkeypatch.setattr(charsum, "_trace_one_counts", lambda K, M: counts)
    tower = _TinyStubTower()  # a new cache key, so the stub is called
    periods = [1 - 2 * c for c in counts]
    assert sum(periods) == -1
    assert (sum(map(abs, periods)) < 1 << 63) == fits
    if fits:
        assert gauss_periods(tower, "F").tolist() == periods
    else:
        with pytest.raises(InternalCheckError, match="int64"):
            gauss_periods(tower, "F")


def test_gauss_sum_f_s1_value():
    tower = build_tower(1)
    g = gauss_sum(gauss_periods(tower, "F"), 1)
    assert g == GroupRingElement.from_set(7, {1, 2, 4}).scale(2).reduce()
    assert not any(g.coeffs[6:])  # reduced: phi(7) = 6


def test_gauss_sum_principal_character():
    tower = build_tower(1)
    assert gauss_sum(gauss_periods(tower, "F"), 0) == GroupRingElement.identity(7).scale(-1)


@pytest.mark.parametrize("s", [1, 2])
def test_t1_identity(s):
    assert verify_t1_gauss_identity(build_tower(s)).passed


@pytest.mark.parametrize("s", [1, 2])
def test_gauss_sum_modulus(s):
    assert gauss_sum_modulus_check(build_tower(s), "F").passed


@pytest.mark.parametrize("s", [1, 2])
def test_hasse_davenport_square_and_cube(s):
    tower = build_tower(s)
    assert verify_hasse_davenport(tower, 2).passed
    assert verify_hasse_davenport(tower, 3).passed


@pytest.mark.parametrize("lift_degree", [2, 3])
def test_hasse_davenport_products_per_character(monkeypatch, lift_degree):
    # no ring product per character: one forward DFT (a matrix-vector
    # product) per prime and per period vector, F and the lifted field
    primes = []
    dft = charsum._dft

    def counted(values, M, p, r):
        primes.append(p)
        return dft(values, M, p, r)

    monkeypatch.setattr(charsum, "_dft", counted)
    tower = build_tower(1)
    assert verify_hasse_davenport(tower, lift_degree).passed
    assert primes and all(primes.count(p) == 2 for p in primes)


def test_hasse_davenport_cube_s3():
    # walks H = GF(2^27) directly; ties those periods to the F Gauss sums
    assert verify_hasse_davenport(build_tower(3), 3).passed


def test_eta_prime_law():
    for s in (1, 2):
        assert eta_prime_law_check(build_tower(s)).passed


def test_eta_prime_law_names_the_first_mismatch(monkeypatch):
    tower = build_tower(2)
    eta_g = np.array(charsum.gauss_periods(tower, "G"))
    eta_g[[5, 9]] += 1
    monkeypatch.setattr(charsum, "gauss_periods", lambda tw, label: eta_g)
    (result,) = eta_prime_law_check(tower).checks
    assert result.name == "eta'_a == -2^s psi(omega^a D) - 1 for all a"
    assert not result.passed
    assert result.detail == \
        f"first mismatch at a=5: {eta_g[5]} != {-4 * _psi_route(tower)[0][5] - 1}"


def test_conjugation_symmetry():
    assert conjugation_symmetry_check(build_tower(1), "F").passed


@pytest.mark.parametrize("label", ["F", "G"])
def test_period_expansion_round_trip(label):
    tower = build_tower(1)
    eta = gauss_periods(tower, label)
    vectors = [gauss_sum_power_vector(eta, ell) for ell in range(7)]
    for a in (0, 1, 3):
        assert recover_period_from_sums(7, vectors, a) == eta[a]


def test_period_expansion_exact_beyond_int64():
    # scaled by 2^70 the sums no longer fit int64; the reference expansion
    # runs on Python ints and must still recover the scaled periods exactly
    tower = build_tower(1)
    eta = gauss_periods(tower, "F").tolist()
    vectors = [[c << 70 for c in gauss_sum_power_vector(eta, ell)]
               for ell in range(7)]
    assert [recover_period_from_sums(7, vectors, a) for a in range(7)] == \
        [e << 70 for e in eta]


def test_period_expansion_all_s2():
    assert period_expansion_check(build_tower(2), "F").passed


def test_perturbed_gauss_sums_rejected():
    # negative control: corrupt one sum vector and the expansion no longer
    # collapses to a rational multiple of M
    tower = build_tower(1)
    vectors = [gauss_sum_power_vector(gauss_periods(tower, "F"), ell) for ell in range(7)]
    vectors[3][2] += 1
    with pytest.raises(InternalCheckError):
        for a in range(7):
            recover_period_from_sums(7, vectors, a)


def test_mixed_cyclotomic_orders_rejected():
    with pytest.raises(GroupRingError):
        GroupRingElement.identity(7) + GroupRingElement.identity(21)
