import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloscheme import zmring
from cycloscheme.binfield import build_tower
from cycloscheme.cycpart import CyclotomicPartition, get_partition
from cycloscheme.zmring import (GroupRingElement, GroupRingError, convolve,
                                cyclotomic_polynomial, delta_square_check,
                                doubling_check, from_set, involute,
                                verify_lemma2, verify_remark_eqs)
from ring_oracle import convolve_reference, reduce_reference

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
    assert convolve(T1, involute(T1)).coeffs == (3, 1, 1, 1, 1, 1, 1)


def test_t1_square_m7():
    T1 = from_set(7, {1, 2, 4})
    assert convolve(T1, T1).coeffs == (0, 1, 1, 2, 1, 2, 2)  # T1 + 2*T2


def test_involution_negates_support():
    assert involute(from_set(7, {1, 2, 4})) == from_set(7, {3, 5, 6})
    e = GroupRingElement.identity(7)
    assert involute(e) == e


def test_modulus_mismatch():
    with pytest.raises(GroupRingError):
        convolve(from_set(7, {1}), from_set(21, {1}))


def test_lemma2_s1_passes():
    assert verify_lemma2(PART_S1, 1).passed


def test_lemma2_eq3_value_s1():
    T1, T2, T3 = (from_set(7, s) for s in ((1, 2, 4), (3, 5, 6), (0,)))
    lhs = convolve(T2 - T3, involute(T2))
    assert lhs.coeffs == (3, 0, 0, 1, 0, 1, 1)


def test_lemma2_corrupted_partition_fails():
    bad = CyclotomicPartition.__new__(CyclotomicPartition)
    object.__setattr__(bad, "s", 1)
    object.__setattr__(bad, "M", 7)
    object.__setattr__(bad, "T1", (1, 2, 3))
    object.__setattr__(bad, "T2", (4, 5, 6))
    object.__setattr__(bad, "T3", (0,))
    report = verify_lemma2(bad, 1)
    assert not report.passed
    assert any("index" in c.detail for c in report.failures())


def test_remark_eqs_s1():
    report = verify_remark_eqs(PART_S1, 1)
    assert report.passed, str(report)


def test_remark_eq8_value_s1():
    T1 = from_set(7, {1, 2, 4})
    lhs = convolve(convolve(T1, T1), involute(T1))
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
    assert convolve(d, involute(d)) == GroupRingElement.identity(7).scale(4)


def test_delta_square_degenerate_modulus():
    tiny = CyclotomicPartition.__new__(CyclotomicPartition)
    object.__setattr__(tiny, "s", 0)
    object.__setattr__(tiny, "M", 1)
    object.__setattr__(tiny, "T1", (0,))
    object.__setattr__(tiny, "T2", ())
    object.__setattr__(tiny, "T3", ())
    with pytest.raises(GroupRingError):
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
    assert convolve(a, b) == convolve(b, a)


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements, small_elements)
def test_convolution_associative(a, b, c):
    assert convolve(convolve(a, b), c) == convolve(a, convolve(b, c))


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_involute_is_multiplicative(a, b):
    assert involute(convolve(a, b)) == convolve(involute(a), involute(b))


@settings(max_examples=60, deadline=None)
@given(small_elements, small_elements)
def test_augmentation_homomorphism(a, b):
    assert convolve(a, b).augmentation() == a.augmentation() * b.augmentation()


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


# -- the numpy kernels against the pure-Python reference ----------------------

# M = q^2 + q + 1 for s = 1..4
ORACLE_MODULI = [7, 21, 73, 273]
INT64_MAX = (1 << 63) - 1


@pytest.fixture
def chosen_dtypes(monkeypatch):
    """The dtype of every array the kernels build from Python coefficients."""
    dtypes = []
    exact_array = zmring.exact_array

    def recording(values, bound):
        array = exact_array(values, bound)
        dtypes.append(array.dtype)
        return array

    monkeypatch.setattr(zmring, "exact_array", recording)
    return dtypes


# small coefficients take the int64 path; coefficients near 2^70 overflow
# any int64 bound and take the Python-int path
@pytest.mark.parametrize("magnitude,dtype", [(50, np.int64), (1 << 70, object)])
@pytest.mark.parametrize("M", ORACLE_MODULI)
def test_kernels_match_reference(chosen_dtypes, M, magnitude, dtype):
    rng = random.Random(M)
    for _ in range(3):
        a, b = (tuple(rng.randint(-magnitude, magnitude) for _ in range(M))
                for _ in range(2))
        assert GroupRingElement(M, a).reduce().coeffs == reduce_reference(M, a)
        assert convolve(GroupRingElement(M, a), GroupRingElement(M, b)).coeffs == \
            convolve_reference(M, a, b)
    assert set(chosen_dtypes) == {np.dtype(dtype)}


@pytest.mark.parametrize("M", ORACLE_MODULI)
def test_convolve_either_side_of_the_int64_bound(chosen_dtypes, M):
    # every cyclic coefficient of a constant times a constant is M*A*B: just
    # below 2^63 on one side of the bound, at least 2^63 on the other
    A = 1 << 31
    B = INT64_MAX // (M * A)
    for b_value, dtype in ((B, np.int64), (B + 1, object)):
        a, b = (A,) * M, (b_value,) * M
        chosen_dtypes.clear()
        product = convolve(GroupRingElement(M, a), GroupRingElement(M, b))
        assert product.coeffs == convolve_reference(M, a, b) == (M * A * b_value,) * M
        assert chosen_dtypes == [np.dtype(dtype)] * 2


def test_convolve_by_zero_keeps_a_huge_operand_exact():
    # the product is 0, but the other operand itself does not fit int64
    huge = GroupRingElement(7, (1 << 70,) * 7)
    zero = GroupRingElement(7, (0,) * 7)
    assert convolve(huge, zero) == convolve(zero, huge) == zero


@pytest.mark.parametrize("M", ORACLE_MODULI)
def test_reduce_either_side_of_the_int64_bound(chosen_dtypes, M):
    # x^(phi + k) mod Phi_M from the reference; the column with the largest
    # abs-sum sets the growth factor, and an input whose high coefficients
    # carry that column's signs makes the reduction reach value * growth
    phi = _phi(M)
    tail = [reduce_reference(M, [0] * (phi + k) + [1] + [0] * (M - phi - k - 1))
            for k in range(M - phi)]
    col = max(range(phi), key=lambda j: sum(abs(row[j]) for row in tail))
    growth = 1 + sum(abs(row[col]) for row in tail)
    V = INT64_MAX // growth
    for value, dtype in ((V, np.int64), (V + 1, object)):
        coeffs = [0] * M
        coeffs[col] = value
        for k, row in enumerate(tail):
            coeffs[phi + k] = value if row[col] >= 0 else -value
        expected = reduce_reference(M, coeffs)
        assert expected[col] == value * growth
        chosen_dtypes.clear()
        assert GroupRingElement(M, tuple(coeffs)).reduce().coeffs == expected
        assert chosen_dtypes == [np.dtype(dtype)]
