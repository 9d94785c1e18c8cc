import random

import pytest

from cycloscheme import cycpart
from cycloscheme.binfield import InternalCheckError, build_tower
from cycloscheme.charsum import gauss_periods
from cycloscheme.cycpart import (CyclotomicPartition, _class_indicators, _psi_route,
                                 d_class_check, get_partition, partition_by_psiD,
                                 partition_by_trace)

from gf_oracle import gf_mul, gf_pow, gf_trace
from partition_oracle import (compute_D_reference, partition_by_trace_reference,
                              psi_omega_D_reference)


def brute_force_D(tower):
    """Independent route: enumerate F via the naive oracle and test
    tr_{F/E}(u^(-1)) = 0 by repeated squaring."""
    F = tower.F
    s = tower.s
    out = set()
    for u in range(1, F.size):
        inv = gf_pow(u, F.order - 1, F.modulus)
        t = inv
        total = 0
        for _ in range(3):  # [F:E] = 3
            total ^= t
            t = gf_pow(t, 1 << s, F.modulus)
        if total == 0:
            out.add(u)
    return out


def production_D(tower):
    """The g^k whose character in the partition's D indicator is '1'."""
    D = _class_indicators(tower).D
    return {u for u, bit in zip(tower.F.powers, D) if bit == "1"}


@pytest.mark.parametrize("s", [1, 2])
def test_D_matches_independent_enumeration(s):
    tower = build_tower(s)
    assert production_D(tower) == brute_force_D(tower)


def test_D_s1_explicit():
    # under x^3 + x + 1: the three elements with tr(1/u) = 0
    tower = build_tower(1)
    assert production_D(tower) == {0b011, 0b101, 0b111}


def test_D_size():
    for s in (1, 2, 3):
        tower = build_tower(s)
        assert len(production_D(tower)) == (1 << (2 * s)) - 1


def test_psi_omega_a_D_values_s1():
    tower = build_tower(1)
    values = list(_psi_route(tower)[0])
    assert sorted(set(values)) == [-3, -1, 1]
    assert values.count(-1) == 3 and values.count(1) == 3 and values.count(-3) == 1


def test_partition_s1():
    part = get_partition(build_tower(1))
    assert part.T1 == (1, 2, 4)
    assert part.T2 == (3, 5, 6)
    assert part.T3 == (0,)


def test_partition_sizes():
    for s in (1, 2, 3, 4):
        part = get_partition(build_tower(s))
        q = 1 << s
        assert (len(part.T1), len(part.T2), len(part.T3)) == \
            (q + 1, (q * q + q) // 2, (q * q - q) // 2)


def test_both_routes_agree():
    for s in (1, 2, 3):
        tower = build_tower(s)
        assert partition_by_psiD(tower) == partition_by_trace(tower)


def test_class_of_zero():
    # the class of a = 0 is decided by which branch psi(D) itself hits,
    # and that varies with s; freeze the observed placements
    expected = {1: "T3", 2: "T2", 3: "T3"}
    for s, name in expected.items():
        part = get_partition(build_tower(s))
        assert 0 in getattr(part, name)


def test_d_is_union_of_negated_T1_classes():
    for s in (1, 2):
        assert d_class_check(build_tower(s)).passed


def test_partition_invariant_enforced():
    with pytest.raises(InternalCheckError):
        CyclotomicPartition(1, 7, (1, 2), (3, 5, 6, 4), (0,))


def test_partition_replace_is_validated():
    part = CyclotomicPartition(1, 7, (1, 2, 4), (3, 5, 6), (0,))
    assert part._replace(T2=(3, 6, 5)).T2 == (3, 6, 5)
    with pytest.raises(InternalCheckError):
        part._replace(T1=(1, 2, 3))  # sizes hold, the union does not
    with pytest.raises(InternalCheckError):
        part._replace(T2=(3, 5))
    with pytest.raises(AttributeError):
        part.T1 = (0, 1, 2)


def test_trace_zero_abs_values_oracle_s1():
    # T1 = classes a with tr_{F/E}(omega^a) = 0, cross-checked naively
    tower = build_tower(1)
    F = tower.F
    zero_classes = set()
    u = 1
    for k in range(F.order):
        if gf_trace(u, F.modulus, 3) == 0:
            zero_classes.add(k % 7)
        u = gf_mul(u, F.generator, F.modulus)
    part = get_partition(tower)
    assert zero_classes == set(part.T1)


@pytest.mark.parametrize("s, poly_f", [(1, None), (2, None), (3, None), (4, None),
                                       (2, 0x61), (3, 0x221)])
def test_class_folds_match_the_element_walk(s, poly_f):
    tower = build_tower(s, poly_f)
    assert production_D(tower) == compute_D_reference(tower)
    assert list(_psi_route(tower)[0]) == psi_omega_D_reference(tower)
    part = partition_by_trace(tower)
    assert (part.T1, part.T2, part.T3) == partition_by_trace_reference(tower)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_class_psi_sums_are_the_F_periods(s):
    # route 1 reads the power table, the periods come from the trace-zero kernel
    tower = build_tower(s)
    assert cycpart._class_psi_sums(tower) == list(gauss_periods(tower, "F"))


def flip_class_zero(tower, zero):
    """One whole class: |D| moves by q - 1."""
    return range(0, tower.F.order, tower.M)


def swap_two_classes(tower, zero):
    """A trace-zero class r1 and a nonzero class r2 trade places: |D| and
    E*-invariance hold, but Z stops being invariant under r -> -(q+1)r,
    which is what D == Q needs."""
    M, w = tower.M, -((1 << tower.s) + 1)
    r1 = next(r for r in range(M) if zero[r] and r * w % M != r)
    r2 = next(r for r in range(M) if not zero[r] and r != r1 * w % M)
    return [k for k in range(tower.F.order) if k % tower.M in (r1, r2)]


def swap_two_orbits(tower, zero):
    """Two orbits of k -> -(q+1)k of one size, one inside Z and one outside,
    trade places: |D| and D == Q hold, but the orbits are not unions of
    classes."""
    N, w = tower.F.order, -((1 << tower.s) + 1)

    def orbit(j):
        out = [j]
        while out[-1] * w % N != j:
            out.append(out[-1] * w % N)
        return out

    def is_union_of_classes(o):
        return {(k + tower.M) % N for k in o} == set(o)

    inside = next(o for o in map(orbit, range(N))
                  if zero[o[0]] and not is_union_of_classes(o))
    outside = next(o for o in map(orbit, range(N))
                   if not zero[o[0]] and len(o) == len(inside))
    return inside + outside


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("flip, message", [
    (flip_class_zero, r"\|D\| = "),
    (swap_two_classes, "quadratic-form description"),
    (swap_two_orbits, r"is not E\*-invariant"),
])
def test_corrupted_trace_zero_indicator_is_caught(monkeypatch, s, flip, message):
    tower = build_tower(s)
    indicator = cycpart._trace_zero_indicator

    def corrupted(F, sub_degree):
        zero = [bit == "1" for bit in indicator(F, sub_degree)]
        for k in flip(tower, zero):
            zero[k] = not zero[k]
        return "".join("1" if bit else "0" for bit in zero)

    monkeypatch.setattr(cycpart, "_trace_zero_indicator", corrupted)
    with pytest.raises(InternalCheckError, match=message):
        get_partition(tower)


def test_psi_sum_outside_the_three_values_is_caught(monkeypatch):
    tower = build_tower(2)
    sums = cycpart._class_psi_sums
    monkeypatch.setattr(cycpart, "_class_psi_sums", lambda tw: [c + 2 for c in sums(tw)])
    with pytest.raises(InternalCheckError, match=r"psi\(omega\^0 D\) = -?\d+ outside"):
        get_partition(tower)


def test_tangent_count_T1_must_be_the_trace_zero_classes(monkeypatch):
    # dlog Q shifted by one class keeps |S_a| in {0, q - 1, 2(q - 1)} with
    # the right counts, but moves T1 off the trace-zero classes
    tower = build_tower(2)
    ind = cycpart._class_indicators(tower)
    monkeypatch.setattr(cycpart, "_class_indicators",
                        lambda tw: ind._replace(Q=ind.Q[-1:] + ind.Q[:-1]))
    with pytest.raises(InternalCheckError, match="tangent-count T1"):
        partition_by_trace(tower)


def test_indicators_are_read_only():
    # immutable bit strings over the exponents of F*
    tower = build_tower(2)
    for bits in cycpart._class_indicators(tower):
        assert type(bits) is str and len(bits) == tower.F.order
        assert set(bits) == {"0", "1"}
        with pytest.raises(TypeError):
            bits[0] = "1"


@pytest.mark.parametrize("n,step", [(7, 3), (63, 5), (4095, 17), (32767, 33), (511, 2)])
def test_gather_reads_the_exponent_multiples(n, step):
    # k -> k * step mod n, the permutation that carries Z to Q, as strided slices
    rng = random.Random(n)
    bits = "".join(rng.choice("01") for _ in range(n))
    assert cycpart._gather(bits, step) == "".join(bits[k * step % n] for k in range(n))
