import io
import re
from collections import Counter
from itertools import combinations
from math import gcd

import pytest

from cycloscheme import cli, cycpart
from cycloscheme.binfield import InternalCheckError, build_tower
from cycloscheme.charsum import gauss_periods
from cycloscheme.cycpart import (FusionPattern, SchemeError, _class_rows, _psi_route,
                                 d_class_check, get_partition)

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
    """The g^k whose class C_(k mod M) has a 1 in the partition's D row."""
    D, M = _class_rows(tower)[1], tower.M
    return {u for k, u in enumerate(tower.F.powers) if D[k % M]}


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
    values = list(_psi_route(tower))
    assert sorted(set(values)) == [-3, -1, 1]
    assert values.count(-1) == 3 and values.count(1) == 3 and values.count(-3) == 1


def test_partition_s1():
    assert get_partition(build_tower(1)) == FusionPattern(7, ((1, 2, 4), (3, 5, 6), (0,)))


def test_partition_sizes():
    for s in (1, 2, 3, 4):
        part = get_partition(build_tower(s))
        q = 1 << s
        assert tuple(map(len, part.blocks)) == (q + 1, (q * q + q) // 2, (q * q - q) // 2)


def test_both_routes_agree():
    # the package's one product of class rows against the reference's walk
    # over the elements of F, which shares no product with it
    for s in (1, 2, 3):
        tower = build_tower(s)
        assert get_partition(tower).blocks == partition_by_trace_reference(tower)


def test_class_of_zero():
    # the class of a = 0 is decided by which branch psi(D) itself hits,
    # and that varies with s; freeze the observed placements
    expected = {1: 2, 2: 1, 3: 2}  # T3, T2, T3
    for s, block in expected.items():
        assert 0 in get_partition(build_tower(s)).blocks[block]


def test_d_is_union_of_negated_T1_classes():
    for s in (1, 2):
        assert d_class_check(build_tower(s)).passed


@pytest.mark.parametrize("s", [1, 2])
def test_d_class_check_names_the_first_differing_residue(monkeypatch, s):
    # T1 and T2 trade one element: the sizes still hold, -T1 does not
    tower = build_tower(s)
    part = get_partition(tower)
    T1, T2, T3 = part.blocks
    t1, t2 = T1[0], T2[0]
    swapped = part._replace(blocks=((t2,) + T1[1:], (t1,) + T2[1:], T3))
    monkeypatch.setattr(cycpart, "get_partition", lambda _: swapped)
    check = d_class_check(tower).checks[0]
    first = min(-t1 % tower.M, -t2 % tower.M)
    has = int(first == -t1 % tower.M)
    assert check.passed is False
    assert check.detail == f"first differing coefficient at index {first}: {has} != {1 - has}"


def test_partition_replace_is_validated():
    part = FusionPattern(7, ((1, 2, 4), (3, 5, 6), (0,)))
    assert part._replace(blocks=((1, 2, 4), (3, 6, 5), (0,))) == part
    with pytest.raises(SchemeError, match="^blocks do not partition Z_M$"):
        part._replace(blocks=((1, 2, 3), (3, 5, 6), (0,)))  # sizes hold, the union does not
    # three nonempty blocks need M >= 3, so no instance has a degenerate modulus
    for M in (1, 6, 8):
        with pytest.raises(SchemeError, match="^blocks do not partition Z_M$"):
            part._replace(M=M)
    with pytest.raises(AttributeError):
        part.blocks = ((0, 1, 2),)


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
    assert zero_classes == set(get_partition(tower).blocks[0])


@pytest.mark.parametrize("s, poly_f", [(1, None), (2, None), (3, None), (4, None),
                                       (2, 0x61), (3, 0x221)])
def test_class_folds_match_the_element_walk(s, poly_f):
    tower = build_tower(s, poly_f)
    assert production_D(tower) == compute_D_reference(tower)
    assert list(_psi_route(tower)) == psi_omega_D_reference(tower)
    assert get_partition(tower).blocks == partition_by_trace_reference(tower)


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_class_psi_sums_are_the_F_periods(s):
    # the psi-sums read F's trace string, the periods come from the trace-zero kernel
    tower = build_tower(s)
    assert cycpart._class_psi_sums(tower) == gauss_periods(tower, "F")


def _use_trace_string(monkeypatch, tower, bits):
    """F's trace string replaced by ``bits``, the cached psi-sums dropped."""
    monkeypatch.setitem(vars(tower.F), "trace_string", bits)
    cycpart._class_psi_sums.cache_clear()


def _zero_classes(tower, trace):
    """The r whose class C_r has no '1' in the trace string: Z's classes."""
    return [r for r in range(tower.M) if "1" not in trace[r::tower.M]]


def flip_class_zero(tower, trace):
    """C_0 = E*, never trace-zero, takes the bits of a trace-zero class:
    every psi-sum stays q - 1 or -1, but Z gains a class and |D| moves by
    q - 1."""
    bits = list(trace)
    bits[::tower.M] = trace[_zero_classes(tower, trace)[0]::tower.M]
    return "".join(bits)


def swap_two_classes(tower, trace):
    """A trace-zero class r1 and a nonzero class r2 trade their bits: |D|
    holds, but Z stops being invariant under r -> -(q+1)r, which is what
    D == Q needs."""
    M, w = tower.M, -((1 << tower.s) + 1)
    zero = _zero_classes(tower, trace)
    r1 = next(r for r in zero if r * w % M != r)
    r2 = next(r for r in range(M) if r not in zero and r != r1 * w % M)
    bits = list(trace)
    bits[r1::M], bits[r2::M] = trace[r2::M], trace[r1::M]
    return "".join(bits)


@pytest.mark.parametrize("s", [2, 3])
@pytest.mark.parametrize("flip, message", [
    (flip_class_zero, r"\|D\| = "),
    (swap_two_classes, "quadratic-form description"),
])
def test_corrupted_trace_zero_indicator_is_caught(monkeypatch, s, flip, message):
    # the trace string is corrupted so that the row Z read from it is wrong
    tower = build_tower(s)
    _use_trace_string(monkeypatch, tower, flip(tower, tower.F.trace_string))
    with pytest.raises(InternalCheckError, match=message):
        get_partition(tower)


def test_psi_sum_outside_the_three_values_is_caught(monkeypatch):
    tower = build_tower(2)
    sums = cycpart._class_psi_sums
    monkeypatch.setattr(cycpart, "_class_psi_sums", lambda tw: [c + 2 for c in sums(tw)])
    with pytest.raises(InternalCheckError, match=r"psi sums to -?\d+ over C_0, neither"):
        get_partition(tower)


def test_tangent_count_T1_must_be_the_trace_zero_classes(monkeypatch):
    # D shifted by t classes keeps psi(omega^a D) in {-1, q - 1, -q - 1}
    # with the right counts, but moves T1 by t, and no t != 0 fixes the
    # Singer set Z
    rows = cycpart._class_rows
    for s in (2, 3):
        tower = build_tower(s)
        Z, D, Q = rows(tower)
        for t in range(1, tower.M):
            monkeypatch.setattr(cycpart, "_class_rows", lambda tw: (Z, D[-t:] + D[:-t], Q))
            cycpart._psi_route.cache_clear()
            with pytest.raises(InternalCheckError, match="tangent-count T1"):
                get_partition(tower)


def _partition_of_row(monkeypatch, tower, row):
    """``get_partition`` with the 0/1 row over Z_M as the trace-zero classes
    Z, fed in by the psi-sums c = q 1_row - 1."""
    q = 1 << tower.s
    monkeypatch.setattr(cycpart, "_class_psi_sums", lambda tw: tuple(q * b - 1 for b in row))
    for cached in (cycpart._class_rows, cycpart._psi_route, cycpart.get_partition):
        cached.cache_clear()
    return get_partition(tower)


def _guards_on_rows(monkeypatch, tower, rows):
    """The rows that ``_partition_of_row`` passes, and how often each guard
    fired on the others, its message with every value read as n."""
    passed, fired = set(), Counter()
    for row in rows:
        try:
            _partition_of_row(monkeypatch, tower, row)
            passed.add(row)
        except InternalCheckError as error:
            fired[re.sub(r"(?<!\w)-?\d+", "n", str(error))] += 1
    return passed, fired


def _unit_multiples(row):
    """The rows of u Z for the units u of Z_M, Z the set of ``row``."""
    M = len(row)
    return {tuple(row[u * r % M] for r in range(M)) for u in range(M) if gcd(u, M) == 1}


def _indicator_rows(M, sets):
    return [tuple(int(r in S) for r in range(M)) for S in map(set, sets)]


def test_the_rows_that_pass_are_the_singer_sets_s2(monkeypatch):
    # every set of q + 1 = 5 classes of Z_21: the two that pass are the unit
    # multiples of the trace-zero classes Z, Singer sets under another
    # generator; D = Q, the psi values' split and T1 = Z refuse the rest
    tower = build_tower(2)
    Z = cycpart._class_rows(tower)[0]
    passed, fired = _guards_on_rows(monkeypatch, tower,
                                    _indicator_rows(21, combinations(range(21), 5)))
    assert passed == _unit_multiples(Z) and len(passed) == 2
    assert fired == {"quadratic-form description of D failed": 20331,
                     "psi(omega^n D) = n outside (n, n, n)": 12,
                     "tangent-count T1 disagrees with trace-zero T1": 4}


def test_a_row_with_three_sums_to_one_residue_is_refused(monkeypatch):
    # {0, 1, 4, 7, 16} holds |D| and D = Q, but 2 = 1 + 1 = 7 + 16 = 16 + 7,
    # so (Z * Z)_2 = 3 and psi(omega^2 D) = 3q - (q + 1) = 7
    tower = build_tower(2)
    with pytest.raises(InternalCheckError,
                       match=r"^psi\(omega\^2 D\) = 7 outside \(-1, 3, -5\)$"):
        _partition_of_row(monkeypatch, tower, _indicator_rows(21, [{0, 1, 4, 7, 16}])[0])


def test_the_doubling_orbit_unions_that_pass_are_the_singer_sets_s3(monkeypatch):
    # Z is closed under doubling; every union of doubling orbits of Z_73
    # with q + 1 = 9 members passes, and each is a unit multiple of Z
    tower = build_tower(3)
    M, Z = tower.M, cycpart._class_rows(tower)[0]
    orbits = sorted({frozenset((r << i) % M for i in range(M)) for r in range(M)}, key=min)
    unions = [set().union(*group) for n in range(1, len(orbits) + 1)
              for group in combinations(orbits, n) if sum(map(len, group)) == 9]
    passed, fired = _guards_on_rows(monkeypatch, tower, _indicator_rows(M, unions))
    assert passed == _unit_multiples(Z) and len(passed) == 8
    assert fired == {}


def test_indicators_are_read_only():
    # the cached rows Z, D, Q over Z_M are immutable tuples of 0/1 ints
    tower = build_tower(2)
    for row in cycpart._class_rows(tower):
        assert type(row) is tuple and len(row) == tower.M
        assert {type(c) for c in row} == {int} and set(row) == {0, 1}
        with pytest.raises(TypeError):
            row[0] = 1


def _with_bit_flipped(bits, k):
    return bits[:k] + "10"[int(bits[k])] + bits[k + 1:]


@pytest.mark.parametrize("s, message", [(1, r"\|D\| = "),  # q - 1 = 1: sums stay +-1
                                        (2, "psi sums to"), (3, "psi sums to")])
def test_every_single_bit_flip_of_the_trace_string_is_caught(monkeypatch, s, message):
    # a flip moves one class's psi-sum by 2, off q - 1 and -1 unless q = 2;
    # every call raises, so no cached partition is kept for the tower
    tower = build_tower(s)
    trace = tower.F.trace_string
    for k in range(tower.F.order):
        _use_trace_string(monkeypatch, tower, _with_bit_flipped(trace, k))
        with pytest.raises(InternalCheckError, match=message):
            get_partition(tower)


def test_a_flip_in_the_second_row_never_passes_the_partition_target(monkeypatch):
    tower = build_tower(2)
    _use_trace_string(monkeypatch, tower, _with_bit_flipped(tower.F.trace_string, tower.M))
    monkeypatch.setattr(cli, "build_tower", lambda *moduli: tower)
    with pytest.raises(InternalCheckError, match="psi sums to"):
        cli.run(cli.RunConfig(s=2, targets=("partition",)), out=io.StringIO())
