import tracemalloc

import pytest

from cycloscheme.binfield import BinaryField, InternalCheckError, build_tower
from cycloscheme.cycpart import get_partition
from cycloscheme.schemecore import (FusionPattern, SchemeError, bannai_muzychuk_verify,
                                    build_dual_scheme, build_element_scheme, build_scheme,
                                    dual_scheme_tables_check, im10_construct,
                                    second_eigenmatrix, two_class_scheme)

from scheme_oracle import brute_force_intersection_oracle, character_row


def pattern_for(tower):
    return FusionPattern.from_partition(get_partition(tower))


@pytest.fixture(scope="module")
def tower1():
    return build_tower(1)


@pytest.fixture(scope="module")
def tower2():
    return build_tower(2)


def test_fusion_pattern_validates():
    with pytest.raises(SchemeError):
        FusionPattern(7, ((1, 2), (3, 4, 5, 6)))  # misses 0
    with pytest.raises(SchemeError):
        FusionPattern(7, ((0, 1, 2), (2, 3), (4, 5, 6)))  # overlap


def test_fusion_pattern_is_a_checked_value():
    # build_scheme's cache keys on the pattern, so equal blocks must hash equal
    pattern = FusionPattern(7, ((2, 1, 4), (6, 5, 3), (0,)))
    assert pattern.blocks == ((1, 2, 4), (3, 5, 6), (0,))
    same = FusionPattern(7, [[1, 2, 4], [3, 5, 6], [0]])
    assert pattern == same and hash(pattern) == hash(same)
    assert pattern != FusionPattern(7, ((0,), (1, 2, 4), (3, 5, 6)))
    with pytest.raises(SchemeError):
        pattern._replace(blocks=((1, 2, 4), (3, 5, 6)))
    assert pattern._replace(blocks=((0,), (4, 2, 1), (6, 3, 5))).blocks == \
        ((0,), (1, 2, 4), (3, 5, 6))
    with pytest.raises(AttributeError):
        pattern.M = 8


def test_character_rows_f_s1(tower1):
    pat = pattern_for(tower1)
    assert character_row(tower1, "F", pat, 0) == (1, 3, -3, -1)
    assert character_row(tower1, "F", pat, 6) == (1, -1, 1, -1)  # 6 = -1 in -T1
    assert character_row(tower1, "F", pat, None) == (1, 3, 3, 1)


def test_character_row_g_s1(tower1):
    pat = pattern_for(tower1)
    for a in (1, 2, 4):
        assert character_row(tower1, "G", pat, a) == (1, -5, 3, 1)


def test_bannai_muzychuk_f_s1(tower1):
    bm = bannai_muzychuk_verify(tower1, "F", pattern_for(tower1))
    assert bm.is_scheme
    assert {tuple(sorted(g)) for g in bm.dual_sets} == \
        {(0,), (3, 5, 6), (1, 2, 4)}


@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("corrupted", [False, True])
def test_census_rows_are_the_character_rows(tower2, label, corrupted):
    # the census gathers whole columns; character_row sums one a at a time
    pat = pattern_for(tower2)
    if corrupted:
        first, second, third = pat.blocks
        pat = FusionPattern(pat.M, (first[1:], second + first[:1], third))
    bm = bannai_muzychuk_verify(tower2, label, pat)
    assert sorted(a for group in bm.row_census.values() for a in group) == \
        list(range(pat.M))
    for row, group in bm.row_census.items():
        assert all(character_row(tower2, label, pat, a) == row for a in group)


def test_bannai_muzychuk_corrupted_pattern(tower1):
    bad = FusionPattern(7, ((1, 2, 3), (4, 5), (0, 6)))
    bm = bannai_muzychuk_verify(tower1, "F", bad)
    assert not bm.is_scheme
    assert len(bm.row_census) != 3


@pytest.mark.parametrize("scheme_id,label", [("thm1", "F"), ("thm2i", "G"),
                                             ("thm2ii", "H")])
def test_schemes_verify_s1(tower1, scheme_id, label):
    record = build_scheme(tower1, scheme_id)
    assert record.is_scheme
    assert record.field_label == label
    n = record.d + 1
    # P*Q = |X|*I and row sums of P vanish off the degree row
    for row in record.P[1:]:
        assert sum(row) == 0
    assert sum(record.degrees) == record.size
    assert sum(record.multiplicities) == record.size


def test_second_eigenmatrix_f_s1(tower1):
    record = build_scheme(tower1, "thm1")
    assert record.Q[0] == [1, 1, 3, 3]
    assert second_eigenmatrix(record.P, record.size) == record.Q


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("i", [1, 2, 3])
def test_second_eigenmatrix_rejects_a_perturbed_entry(tower2, i, l):
    record = build_scheme(tower2, "thm1")
    P = [list(row) for row in record.P]
    P[l][i] += 1
    with pytest.raises(InternalCheckError):
        second_eigenmatrix(P, record.size)


def test_intersection_matrices_f_s1(tower1):
    record = build_scheme(tower1, "thm1")
    assert record.B[0] == [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    assert record.B[1] == [[0, 3, 0, 0], [1, 2, 0, 0], [0, 0, 2, 1], [0, 0, 3, 0]]


def test_intersection_number_symmetries(tower2):
    record = build_scheme(tower2, "thm1")
    n = record.degrees
    B = record.B
    for i in range(4):
        for k in range(4):
            assert sum(B[i][k]) == n[i]
            for j in range(4):
                assert B[i][k][j] == B[j][k][i]  # p_ij^k = p_ji^k
                assert n[k] * B[i][k][j] == n[j] * B[i][j][k]  # n_k p_ij^k = n_j p_ik^j


@pytest.mark.parametrize("s,label", [(1, "F"), (1, "G"), (1, "H"), (2, "F")])
def test_oracle_agreement(s, label):
    tower = build_tower(s)
    pat = pattern_for(tower)
    sid = {"F": "thm1", "G": "thm2i", "H": "thm2ii"}[label]
    record = build_scheme(tower, sid)
    B, report = brute_force_intersection_oracle(tower, label, pat)
    assert report.passed
    assert B == record.B


def test_oracle_rejects_corrupted_pattern(tower1):
    bad = FusionPattern(7, ((1, 2, 3), (4, 5), (0, 6)))
    _, report = brute_force_intersection_oracle(tower1, "F", bad)
    assert not report.passed


def test_oracle_size_limit(tower2):
    with pytest.raises(SchemeError):
        brute_force_intersection_oracle(tower2, "H", pattern_for(tower2))


def test_thm1_flags(tower1, tower2):
    for tower in (tower1, tower2):
        flags = build_scheme(tower, "thm1").flags
        assert not flags["is_primitive"]  # R_0 u R_1 is the trace-zero subgroup
    # at q = 2 the dual partition happens to coincide with the primal one;
    # the coincidence disappears at q = 4
    assert build_scheme(tower1, "thm1").flags["is_self_dual"]
    assert not build_scheme(tower2, "thm1").flags["is_self_dual"]


def test_thm2i_flags_s2(tower2):
    flags = build_scheme(tower2, "thm2i").flags
    assert flags["is_primitive"]
    assert not flags["is_self_dual"]


def test_thm2i_self_duality_degenerates_at_s1(tower1):
    # at q = 2 the dual index partition {0} | T1 | rest coincides with
    # T3 | T1 | T2, and the matched eigenmatrices agree, so the q = 2
    # member of the family is self-dual even though the general one is not
    flags = build_scheme(tower1, "thm2i").flags
    assert flags["is_self_dual"]


def test_thm2ii_self_dual(tower1, tower2):
    for tower in (tower1, tower2):
        record = build_scheme(tower, "thm2ii")
        assert record.flags["is_self_dual"]  # classify() also checks P^2 = |X| I
        assert record.flags["is_primitive"]
        assert record.flags["srg_relations"] == [False, False, False]


def test_dual_structure_thm1(tower1, tower2):
    for tower in (tower1, tower2):
        assert dual_scheme_tables_check(tower, "thm1").passed


def test_dual_structure_thm2i(tower1, tower2):
    for tower in (tower1, tower2):
        assert dual_scheme_tables_check(tower, "thm2i").passed


def test_dual_of_dual_is_original(tower1):
    record = build_scheme(tower1, "thm1")
    dual = build_dual_scheme(tower1, record)
    assert set(dual.dual_sets) == set(record.pattern_sets)


def test_two_class_scheme_s1(tower1):
    record = two_class_scheme(tower1)
    assert record.is_scheme and record.d == 2
    assert record.degrees == [1, 3, 4]


def test_element_sets_must_partition_nonzero_elements(tower1):
    # blocks are exponents k of g^k, which must partition Z_|F*| = Z_7
    R1, R2 = two_class_scheme(tower1).pattern_sets
    assert build_element_scheme(tower1, "F", (R1, R2), "trace2").is_scheme
    for bad in ((R1 + R1[:1], R2),     # an exponent repeated within a block
                (R1, R2 + R1[:1]),     # an exponent in two blocks
                (R1, R2[1:]),          # an exponent in no block
                (R1, R2[1:] + (7,))):  # an exponent beyond |F*|
        with pytest.raises(SchemeError):
            build_element_scheme(tower1, "F", bad, "bad")


@pytest.mark.parametrize("construct", [two_class_scheme, im10_construct])
def test_element_fusions_hold_no_element_sets_at_s4(construct):
    # blocks stay exponent tuples from input to record: the two calls peak
    # at about 0.5 and 1.0 MB at s = 4, and element sets, name lists or a
    # discrete-log table over the 4,095 elements of F* beside the transform
    # take them past 1.2 MB
    tower = build_tower(4)
    construct(tower)  # fills the field's cached tables
    tracemalloc.start()
    try:
        construct(tower)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_200_000


def test_im10_scheme_s1(tower1):
    record = im10_construct(tower1)
    assert record.is_scheme
    assert record.flags["is_self_dual"]
    assert sum(record.flags["srg_relations"]) == 2  # two relations strongly regular


def test_im10_reproduces_thm1_at_s1(tower1):
    # at q = 2 the refinement of the trace-hyperplane scheme is exactly the
    # F-scheme again, eigenmatrix and all
    record = im10_construct(tower1)
    thm1 = build_scheme(tower1, "thm1")
    assert record.P == thm1.P


def test_im10_s2_differs_from_thm1():
    tower = build_tower(2)
    record = im10_construct(tower)
    assert record.is_scheme
    assert record.flags["is_self_dual"]
    assert record.P != build_scheme(tower, "thm1").P


def test_record_json_round_trip(tower1):
    import json
    record = build_scheme(tower1, "thm2ii")
    blob = json.dumps(record.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["P"] == record.P
    assert data["flags"]["is_self_dual"]


def test_dual_check_needs_the_subfield_block(monkeypatch):
    # every class omega^r C_0 plus 0 is an additive group of size q, so the
    # check must also see that the block is the subfield: it holds 1 and
    # is fixed by u -> u^q.  Reading omega^(Mt + 1) for omega^(Mt) hands
    # the check the block omega C_0.
    tower = build_tower(2)
    F, M = tower.F, tower.M
    name = "zero-indexed dual block plus 0 is additively closed of size 2^2"
    # the first run fills every cache the check reads, so the patched run
    # leaves none built from the shifted powers
    checks = {c.name: c for c in dual_scheme_tables_check(tower, "thm1").checks}
    assert checks[name].passed
    power = F.pow
    monkeypatch.setattr(F, "pow", lambda a, e: power(
        a, e + (a == tower.omega and e % M == 0)))
    shifted = {F.pow(tower.omega, M * t) for t in range(3)} | {0}
    assert shifted != {power(tower.omega, M * t) for t in range(3)} | {0}
    assert all((a ^ b) in shifted for a in shifted for b in shifted)
    checks = {c.name: c for c in dual_scheme_tables_check(tower, "thm1").checks}
    assert checks[name].passed is False


@pytest.mark.parametrize("s", [3, 4])
def test_dual_check_reads_no_power_list(monkeypatch, s):
    # the subfield block needs the q - 1 powers of g^M, not the |F*| of F.powers
    def no_powers(self):
        raise AssertionError("F.powers was read")

    monkeypatch.setattr(BinaryField, "powers", property(no_powers))
    report = dual_scheme_tables_check(build_tower(s), "thm1")
    assert report.passed and len(report.checks) == 5
