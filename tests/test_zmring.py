import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloscheme.binfield import build_tower
from cycloscheme.cycpart import CyclotomicPartition, get_partition
from cycloscheme import zmring
from cycloscheme.zmring import (GroupRingError, _cyclic_product, delta_square_check,
                                doubling_check, verify_lemma2, verify_remark_eqs)
from numpy_oracle import convolve_folded
from ring_oracle import (GroupRingElement, _divide, convolve_reference,
                         cyclotomic_polynomial, from_set, involute, partition_identities,
                         reduce_reference)

PART_S1 = CyclotomicPartition(1, 7, (1, 2, 4), (3, 5, 6), (0,))


def test_from_set_indicator():
    assert from_set(7, {1, 2, 4}).coeffs == (0, 1, 1, 0, 1, 0, 0)
    assert from_set(7, set()).coeffs == (0,) * 7
    assert from_set(7, range(7)) == GroupRingElement.all_ones(7)


def test_from_set_out_of_range():
    with pytest.raises(GroupRingError):
        from_set(7, {7})


def test_singer_identity_m7():
    T1 = from_set(7, {1, 2, 4})
    # T1 * T1^(-1) = 2*[id] + Z_7: nine pairwise differences, each nonzero
    # residue hit once
    assert (T1 * involute(T1)).coeffs == (3, 1, 1, 1, 1, 1, 1)


def test_t1_square_m7():
    T1 = from_set(7, {1, 2, 4})
    assert (T1 * T1).coeffs == (0, 1, 1, 2, 1, 2, 2)  # T1 + 2*T2


def test_involution_negates_support():
    assert involute(from_set(7, {1, 2, 4})) == from_set(7, {3, 5, 6})
    e = GroupRingElement.identity(7)
    assert involute(e) == e


def test_modulus_mismatch():
    with pytest.raises(GroupRingError):
        from_set(7, {1}) * from_set(21, {1})


def test_lemma2_s1_passes():
    assert verify_lemma2(PART_S1, 1).passed


def test_lemma2_eq3_value_s1():
    T1, T2, T3 = (from_set(7, s) for s in ((1, 2, 4), (3, 5, 6), (0,)))
    lhs = (T2 - T3) * involute(T2)
    assert lhs.coeffs == (3, 0, 0, 1, 0, 1, 1)


def test_lemma2_corrupted_partition_fails():
    # tuple.__new__ skips the partition's own validation
    bad = tuple.__new__(CyclotomicPartition, (1, 7, (1, 2, 3), (4, 5, 6), (0,)))
    report = verify_lemma2(bad, 1)
    assert not report.passed
    assert any("index" in c.detail for c in report.failures())


def test_remark_eqs_s1():
    report = verify_remark_eqs(PART_S1, 1)
    assert report.passed, str(report)


def test_remark_eq8_value_s1():
    T1 = from_set(7, {1, 2, 4})
    lhs = T1 * T1 * involute(T1)
    rhs = T1.scale(2) + GroupRingElement.all_ones(7).scale(3)
    assert lhs == rhs


def test_remark_eqs_s2_and_s3():
    for s in (2, 3):
        part = get_partition(build_tower(s))
        assert verify_lemma2(part, s).passed
        assert verify_remark_eqs(part, s).passed
        assert delta_square_check(part, s).passed


def test_delta_square_s1():
    report = delta_square_check(PART_S1, 1)
    assert report.passed
    T2, T3 = from_set(7, {3, 5, 6}), from_set(7, {0})
    d = T2 - T3
    assert d * involute(d) == GroupRingElement.identity(7).scale(4)


def test_delta_square_degenerate_modulus():
    tiny = tuple.__new__(CyclotomicPartition, (0, 1, (0,), (), ()))
    with pytest.raises(GroupRingError, match="partition modulus must exceed 1"):
        delta_square_check(tiny, 0)


def test_doubling_map_fixes_t1():
    assert doubling_check(PART_S1).passed
    assert doubling_check(get_partition(build_tower(2))).passed


small_elements = st.builds(
    lambda coeffs: GroupRingElement(7, tuple(coeffs)),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=7, max_size=7))


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_convolution_commutative(a, b):
    assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_convolution_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_involute_is_multiplicative(a, b):
    assert involute(a * b) == involute(a) * involute(b)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_augmentation_homomorphism(a, b):
    assert (a * b).augmentation() == a.augmentation() * b.augmentation()


# -- the quotient map Z[Z_M] -> Z[zeta_M], at M = 7 (prime) and 21 -------------

def _ring_tuples(n):
    def for_modulus(M):
        element = st.lists(st.integers(min_value=-50, max_value=50),
                           min_size=M, max_size=M).map(
            lambda c: GroupRingElement(M, tuple(c)))
        return st.tuples(*[element] * n)
    return st.sampled_from([7, 21]).flatmap(for_modulus)


def _phi(M):
    return len(cyclotomic_polynomial(M)) - 1


@settings(max_examples=60, deadline=None)
@given(_ring_tuples(1))
def test_reduce_is_canonical_and_idempotent(elements):
    (a,) = elements
    r = a.reduce()
    assert not any(r.coeffs[_phi(a.M):])
    assert r.reduce() == r


# a prime p = 1 mod M for each M, so F_p holds the primitive M-th roots of 1
_SPLITTING_PRIMES = {7: 29, 21: 43}


@settings(max_examples=60, deadline=None)
@given(_ring_tuples(1))
def test_reduce_keeps_values_at_primitive_roots(elements):
    # Phi_M vanishes at every primitive M-th root of unity mod p, so an
    # element and its reduction agree there
    (a,) = elements
    M, p = a.M, _SPLITTING_PRIMES[a.M]
    roots = [w for w in range(2, p)
             if pow(w, M, p) == 1 and all(pow(w, d, p) != 1 for d in range(1, M))]
    assert len(roots) == _phi(M)
    r = a.reduce()
    for w in roots:
        assert sum(c * pow(w, i, p) for i, c in enumerate(a.coeffs)) % p == \
            sum(c * pow(w, i, p) for i, c in enumerate(r.coeffs)) % p


@settings(max_examples=60, deadline=None)
@given(_ring_tuples(2))
def test_reduce_is_a_ring_homomorphism(elements):
    a, b = elements
    assert (a + b).reduce() == (a.reduce() + b.reduce()).reduce()
    assert (a * b).reduce() == (a.reduce() * b.reduce()).reduce()


@settings(max_examples=60, deadline=None)
@given(_ring_tuples(1))
def test_reduce_commutes_with_involute(elements):
    (a,) = elements
    assert a.involute().reduce() == a.reduce().involute().reduce()


@pytest.mark.parametrize("M", [7, 21])
def test_zeta_basics(M):
    # 1 + zeta + ... + zeta^(M-1) = 0, zeta^M = 1, conj(zeta) = zeta^(M-1)
    assert from_set(M, range(M)).reduce() == GroupRingElement(M, (0,) * M)
    x = from_set(M, {1})
    power = GroupRingElement.identity(M)
    for _ in range(M):
        power = power * x
    assert power.reduce() == GroupRingElement.identity(M)
    assert x.involute() == from_set(M, {M - 1})


# -- the identities and the product kernel against the references ------------

# (s, swap, checked s): the true partitions at s = 1..4, T2 and T3 trading
# one element at s = 2, and true partitions checked at the wrong s
IDENTITY_CASES = [(s, False, s) for s in (1, 2, 3, 4)] + \
    [(2, True, 2), (1, False, 2), (2, False, 3)]


@pytest.mark.parametrize("s,swap,checked_s", IDENTITY_CASES)
def test_identities_agree_with_ring_oracle(s, swap, checked_s):
    part = get_partition(build_tower(s))
    if swap:
        T2, T3 = list(part.T2), list(part.T3)
        T2[0], T3[0] = T3[0], T2[0]
        part = part._replace(T2=tuple(T2), T3=tuple(T3))
    expected = partition_identities(part, checked_s)
    checks = [c for verify in (verify_lemma2, verify_remark_eqs, delta_square_check)
              for c in verify(part, checked_s).checks]
    assert [c.name for c in checks] == list(expected)
    for c in checks:
        lhs, rhs = (x.coeffs for x in expected[c.name])
        diff = [i for i, (l, r) in enumerate(zip(lhs, rhs)) if l != r]
        assert c.passed == (not diff)
        assert c.detail == (f"first differing coefficient at index {diff[0]}: "
                            f"{lhs[diff[0]]} != {rhs[diff[0]]}" if diff else "")
    assert all(c.passed for c in checks) == (not swap and checked_s == s)


# M = q^2 + q + 1 for s = 1..4
ORACLE_MODULI = [7, 21, 73, 273]
INT64_MAX = (1 << 63) - 1


@pytest.mark.parametrize("M", ORACLE_MODULI + [4161])
def test_cyclic_product_matches_reference(M):
    # small operands against np.convolve folded; operands past 2^63 against
    # the pure-Python reference, and the schoolbook loop where it is quick
    rng = random.Random(M)
    for r, small in ((50, True), (1 << 80, False), (1 << 200, False)):
        a, b = ([rng.randint(-r, r) for _ in range(M)] for _ in range(2))
        product = _cyclic_product(a, b)
        assert all(type(c) is int for c in product)
        assert tuple(product) == convolve_reference(M, a, b)
        if small:
            assert product == convolve_folded(a, b)
        if M <= 73:
            assert tuple(product) == _schoolbook(M, a, b)
    ones = [rng.randint(0, 1) for _ in range(M)]
    assert _cyclic_product(ones, [0] * M) == _cyclic_product([0] * M, ones) == [0] * M
    assert _cyclic_product(ones, [-1] * M) == [-sum(ones)] * M


def _schoolbook(M, a, b):
    """The product in Z[x]/(x^M - 1) as a sum over all pairs of terms."""
    acc = [0] * (2 * M)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            acc[i + j] += ca * cb
    return tuple(x + y for x, y in zip(acc, acc[M:]))


@pytest.mark.parametrize("M", [7, 21, 73])
def test_kronecker_product_matches_the_schoolbook_loop(M):
    # small and huge signed coefficients, zeros, constant sequences whose
    # product coefficients sit next to the digit bound, and a zero factor
    rng = random.Random(M)
    small, huge = ([rng.randint(-r, r) for _ in range(M)] for r in (50, 1 << 80))
    sparse = [0] * (M - 1) + [-(1 << 64)]
    pairs = [(small, huge), (huge, small), (huge, huge), (sparse, small),
             (small, sparse), ((-(1 << 40),) * M, (1 << 40,) * M),
             ((-1,) * M, (-1,) * M), (small, (0,) * M), ((0,) * M, huge)]
    for a, b in pairs:
        assert convolve_reference(M, a, b) == _schoolbook(M, a, b)


@pytest.mark.parametrize("M", [7, 21, 73])
def test_reduction_matches_the_long_division(M):
    rng = random.Random(M)
    for r in (1, 50, 1 << 80):
        coeffs = [rng.randint(-r, r) for _ in range(M)]
        remainder = list(coeffs)
        _divide(remainder, cyclotomic_polynomial(M))
        assert reduce_reference(M, coeffs) == tuple(remainder)


@pytest.mark.parametrize("M", ORACLE_MODULI)
def test_convolve_either_side_of_the_int64_bound(M):
    # for constants A and B every cyclic coefficient of the product is
    # M*A*B: just below 2^63, just above it and far past it the product is
    # exact, as the digits widen with the operands' bound
    A = 1 << 31
    B = INT64_MAX // (M * A)
    assert M * A * B < 1 << 63 <= M * A * (B + 1)
    for b in (B, B + 1, B << 70):
        product = _cyclic_product([A] * M, [b] * M)
        assert product == [M * A * b] * M
        assert tuple(product) == convolve_reference(M, (A,) * M, (b,) * M)


@pytest.mark.parametrize("M", [7, 273])
def test_a_digit_read_back_wrong_fails_the_augmentation(monkeypatch, M):
    unpack = zmring._unpack

    def off_by_one(value, n, width):
        digits = unpack(value, n, width)
        digits[n // 2] += 1
        return digits

    monkeypatch.setattr(zmring, "_unpack", off_by_one)
    with pytest.raises(GroupRingError, match="augmentation"):
        _cyclic_product([1] * M, [2] * M)
