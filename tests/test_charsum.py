from types import SimpleNamespace

import pytest

from cycloscheme import binfield, charsum
from cycloscheme.binfield import FieldError, InternalCheckError, build_tower
from cycloscheme.charsum import (conjugation_symmetry_check, eta_prime_law_check,
                                 gauss_periods, gauss_sum_modulus_check,
                                 period_expansion_check, verify_hasse_davenport,
                                 verify_t1_gauss_identity)
from cycloscheme.cycpart import _psi_route
from cycloscheme.zmring import GroupRingError
from gauss_ring_oracle import gauss_sum, gauss_sum_power_vector, recover_period_from_sums
from period_oracle import gauss_periods_reference, gauss_periods_walk
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
    assert list(eta) == [-1, 1, 1, -1, 1, -1, -1]
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
    assert list(gauss_periods(tower, label)) == expected


@pytest.mark.parametrize("other_moduli", [False, True])
@pytest.mark.parametrize("s,label", SMALL_FIELDS)
def test_gauss_periods_match_oracle(s, label, other_moduli):
    tower = build_tower(s, *OTHER_MODULI[s]) if other_moduli else build_tower(s)
    if other_moduli:
        assert tower.field(label).modulus == OTHER_MODULI[s]["FGH".index(label)]
    _assert_walk_matches_oracle(tower, label)


# the numpy walk over every element of K* stands in for the pure-Python
# reference, which would take minutes over the 2^30 - 1 elements of G at
# s = 5
KERNEL_FIELDS = [(s, label) for s in range(1, 6) for label in "FG"] + \
    [(s, "H") for s in range(1, 4)]


@pytest.mark.parametrize("s,label", KERNEL_FIELDS)
def test_gauss_periods_match_the_element_walk(s, label):
    tower = build_tower(s)
    K = tower.field(label)
    assert list(gauss_periods(tower, label)) == \
        gauss_periods_walk(K, tower.M, tower.class_step(label))


@pytest.mark.parametrize("label", "FGH")
def test_gauss_periods_match_the_element_walk_under_other_moduli(label):
    tower = build_tower(2, None, 0x107b, 0x4004d)
    K = tower.field(label)
    expected = gauss_periods_walk(K, tower.M, tower.class_step(label))
    assert expected == gauss_periods_reference(K, tower.M, tower.class_step(label))
    assert list(gauss_periods(tower, label)) == expected


@pytest.mark.parametrize("chunk_bits", [1, 3 * 64 * 21])
@pytest.mark.parametrize("s,label", [(1, "H"), (2, "G"), (2, "H"), (3, "F")])
def test_gauss_periods_multi_chunk(monkeypatch, chunk_bits, s, label):
    # blocks of one exponent: many full blocks; of 4032 exponents: one full
    # block and a ragged tail of 129 for H at s = 2 (4,161 strided
    # exponents), a single short block elsewhere
    monkeypatch.setattr(binfield, "_BLOCK", chunk_bits)
    _assert_walk_matches_oracle(build_tower(s), label)


def _zero_counts_under(monkeypatch, s, label, patch):
    """The kernel's trace-zero counts with ``patch(monkeypatch, K, tower)``
    applied; the tower is built first, so only the kernel sees the patch."""
    tower = build_tower(s)
    K = tower.field(label)
    patch(monkeypatch, K, tower)
    return charsum._trace_zero_counts(K, tower.M, s)


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("s,label", [(2, "F"), (2, "G"), (2, "H"), (3, "H"), (4, "G")])
def test_beta_one_power_off_is_caught(monkeypatch, s, label, delta):
    # beta = g^(P + delta): the masks read beta^i g^r times g^(delta i), and
    # the s masks no longer span a relative-trace kernel (at s = 1 there is
    # only beta^0, so the case needs s >= 2)
    def patch(mp, K, tower):
        forms = binfield.trace_forms

        def shifted(K_, elements):  # block i holds the elements beta^i g^r
            per_block = len(elements) // s
            return forms(K_, [K.mul(K.pow(K.generator, delta * (j // per_block)), u)
                              for j, u in enumerate(elements)])

        mp.setattr(binfield, "trace_forms", shifted)

    with pytest.raises(InternalCheckError, match="differ on the doubling orbit"):
        _zero_counts_under(monkeypatch, s, label, patch)


@pytest.mark.parametrize("s,label", [(1, "G"), (1, "H"), (2, "G"), (2, "H"), (3, "G"),
                                     (3, "H"), (4, "G")])
def test_a_stride_table_for_M_plus_one_is_caught(monkeypatch, s, label):
    # the words are g^((M + 1) t): residues drift from r; F has one word
    # per residue (P = M), so only G and H can show it
    def patch(mp, K, tower):
        blocks, stride = charsum.power_blocks, K.pow(K.generator, tower.M)
        mp.setattr(charsum, "power_blocks", lambda K_, base, count: blocks(
            K_, K.times_x(base) if base == stride else base, count))

    with pytest.raises(InternalCheckError, match="differ on the doubling orbit"):
        _zero_counts_under(monkeypatch, s, label, patch)


def _bump(walked_indices):
    def patch(mp, K, tower):
        count = charsum._even_against_every_mask

        def bumped(table, masks, width):
            out = count(table, masks, width)
            for j in walked_indices:
                out[j] += 1
            return out

        mp.setattr(charsum, "_even_against_every_mask", bumped)
    return patch


@pytest.mark.parametrize("s,label", [(1, "F"), (2, "G"), (3, "H"), (4, "G")])
def test_one_orbit_members_count_changed_is_caught(monkeypatch, s, label):
    # walked residues are 0, then 1 and 2, the two members of 1's orbit
    with pytest.raises(InternalCheckError, match="differ on the doubling orbit of 1"):
        _zero_counts_under(monkeypatch, s, label, _bump([2]))


@pytest.mark.parametrize("s,label", [(1, "F"), (2, "G"), (3, "H"), (4, "G")])
def test_counts_off_the_hyperplane_size_are_caught(monkeypatch, s, label):
    # both members of one orbit changed alike pass the Frobenius check
    with pytest.raises(InternalCheckError, match="fill a hyperplane"):
        _zero_counts_under(monkeypatch, s, label, _bump([1, 2]))


@pytest.mark.parametrize("s,label", [(1, "F"), (2, "G"), (2, "H")])
def test_a_walk_that_does_not_return_is_caught(monkeypatch, s, label):
    # one-exponent blocks move on by g^M; the first advance here by g^M x.
    # G and H at s = 2 walk 65 and 4,161 blocks; F at s = 1 walks one, and
    # its only advance is the step past the end that the rewind undoes
    def patch(mp, K, tower):
        mp.setattr(binfield, "_BLOCK", 1)
        apply, times_x, calls = binfield._apply, K.x_multiples(0b10, K.degree), []

        def skewed(images, table):  # power_table makes no call for one exponent
            calls.append(None)
            out = apply(images, table)
            return apply(times_x, out) if len(calls) == 1 else out

        mp.setattr(binfield, "_apply", skewed)

    with pytest.raises(InternalCheckError, match="did not return to its start"):
        _zero_counts_under(monkeypatch, s, label, patch)


class _StubTower:
    """Just enough of a tower for gauss_periods; hashable, as its cache needs."""
    M = 65793
    s = 8

    def field(self, label):
        return SimpleNamespace(degree=72, order=(1 << 72) - 1)

    def class_step(self, label):
        return 1


def test_gauss_periods_degree_guard():
    # GF(2^72) at s = 8 is outside the supported range, so the walk must
    # refuse before it builds a table or touches an element
    with pytest.raises(FieldError, match="degree <= 64"):
        gauss_periods(_StubTower(), "H")


@pytest.mark.parametrize("s", [1, 2, 3])
def test_gauss_periods_are_immutable_tuples_of_ints(s):
    tower = build_tower(s)
    for label in "FGH":
        eta = gauss_periods(tower, label)
        assert type(eta) is tuple and all(type(v) is int for v in eta)
        assert gauss_periods(tower, label) is eta


class _TinyStubTower(_StubTower):
    """A stub with M = |K*| = 7 and s = 1, so each class is one exponent
    and its period is 2 Z - 1, Z its trace-zero count."""
    M = 7
    s = 1

    def field(self, label):
        return SimpleNamespace(degree=3, order=7)


# sum |eta| just below 2^63, just past it, and with a period itself past
# 2^63: the periods are Python ints, exact on every side of the old int64
# bound.  Seven odd periods summing to -1 have an odd sum |eta|, so 2^63 - 1
# is the largest below it.
@pytest.mark.parametrize("counts,fits", [
    ([(1 << 61) - 1, 2 - (1 << 61), 1, 1, 0, 0, 0], True),
    ([1 - (1 << 61), 1 + (1 << 61), 0, 0, 0, 0, 1], False),
    ([1 - (1 << 70), 1 + (1 << 70), 1, 0, 0, 0, 0], False)])
def test_gauss_periods_exact_past_int64(monkeypatch, counts, fits):
    monkeypatch.setattr(charsum, "_trace_zero_counts", lambda K, M, s: counts)
    tower = _TinyStubTower()  # a new cache key, so the stub is called
    periods = [2 * z - 1 for z in counts]
    assert sum(periods) == -1
    assert (sum(map(abs, periods)) < 1 << 63) == fits
    assert gauss_periods(tower, "F") == tuple(periods)


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
    # no ring product per character: eta_F^2 or eta_F^3 as lift_degree - 1
    # products in Z[Z_M], which every character reads at once
    lengths = []
    product = charsum._cyclic_product

    def counted(a, b):
        lengths.append((len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(charsum, "_cyclic_product", counted)
    tower = build_tower(1)
    assert verify_hasse_davenport(tower, lift_degree).passed
    assert lengths == [(tower.M, tower.M)] * (lift_degree - 1)


def test_both_lift_degrees_square_eta_F_once(monkeypatch):
    # the cube multiplies the square that degree 2 made by eta_F
    lengths = []
    product = charsum._cyclic_product

    def counted(a, b):
        lengths.append((len(a), len(b)))
        return product(a, b)

    monkeypatch.setattr(charsum, "_cyclic_product", counted)
    tower = build_tower(2)
    assert verify_hasse_davenport(tower, 2).passed
    assert verify_hasse_davenport(tower, 3).passed
    assert lengths == [(tower.M, tower.M)] * 2


def test_a_lift_degree_other_than_2_or_3_is_refused():
    with pytest.raises(FieldError, match="lift degree must be 2 or 3"):
        verify_hasse_davenport(build_tower(1), 4)


def test_hasse_davenport_cube_s3():
    # walks H = GF(2^27) directly; ties those periods to the F Gauss sums
    assert verify_hasse_davenport(build_tower(3), 3).passed


def test_eta_prime_law():
    for s in (1, 2):
        assert eta_prime_law_check(build_tower(s)).passed


def test_eta_prime_law_names_the_first_mismatch(monkeypatch):
    tower = build_tower(2)
    eta_g = list(charsum.gauss_periods(tower, "G"))
    eta_g[5] += 1
    eta_g[9] += 1
    monkeypatch.setattr(charsum, "gauss_periods", lambda tw, label: tuple(eta_g))
    (result,) = eta_prime_law_check(tower).checks
    assert result.name == "eta'_a == -2^s psi(omega^a D) - 1 for all a"
    assert not result.passed
    assert result.detail == \
        f"first mismatch at a=5: {eta_g[5]} != {-4 * _psi_route(tower)[5] - 1}"


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
    eta = list(gauss_periods(tower, "F"))
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
