import tracemalloc

import pytest

from cycloscheme import paperbook, schemecore
from cycloscheme.binfield import BinaryField, InternalCheckError, build_tower
from cycloscheme.cycpart import get_partition
from cycloscheme.zmring import GroupRingError
from cycloscheme.schemecore import (THEOREMS, FusionPattern, SchemeError,
                                    bannai_muzychuk_verify, build_dual_scheme,
                                    build_element_scheme, build_scheme,
                                    dual_scheme_tables_check, im10_construct,
                                    intersection_numbers, second_eigenmatrix,
                                    two_class_scheme)

from catalog_oracle import check_record
from scheme_oracle import brute_force_intersection_oracle, character_row


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
    with pytest.raises(SchemeError, match="do not partition"):
        FusionPattern(7, ((0, 1, 2, 3, 4, 5, 6), ()))  # an empty block


def test_an_empty_block_is_refused_before_the_spectral_layer(tower1):
    # the census of these blocks has 3 rows; an empty one would reach Q
    with pytest.raises(SchemeError, match="do not partition"):
        build_element_scheme(tower1, "F", [(0, 1), (2, 3, 4, 5, 6), ()], "x")


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


def test_the_theorems_fuse_the_partition_itself(tower2):
    part = get_partition(tower2)
    assert type(part) is FusionPattern
    for sid in THEOREMS:
        assert build_scheme(tower2, sid).pattern_sets == part.blocks


def test_character_rows_f_s1(tower1):
    pat = get_partition(tower1)
    assert character_row(tower1, "F", pat, 0) == (1, 3, -3, -1)
    assert character_row(tower1, "F", pat, 6) == (1, -1, 1, -1)  # 6 = -1 in -T1
    assert character_row(tower1, "F", pat, None) == (1, 3, 3, 1)


def test_character_row_g_s1(tower1):
    pat = get_partition(tower1)
    for a in (1, 2, 4):
        assert character_row(tower1, "G", pat, a) == (1, -5, 3, 1)


def test_bannai_muzychuk_f_s1(tower1):
    bm = bannai_muzychuk_verify(tower1, "F", get_partition(tower1))
    assert bm.is_scheme
    assert {tuple(sorted(g)) for g in bm.dual_sets} == \
        {(0,), (3, 5, 6), (1, 2, 4)}


@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("corrupted", [False, True])
def test_census_rows_are_the_character_rows(tower2, label, corrupted):
    # the census gathers whole columns; character_row sums one a at a time
    pat = get_partition(tower2)
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
    assert second_eigenmatrix(record.P, record.multiplicities, record.size) == record.Q


@pytest.mark.parametrize("l", [1, 2, 3])
@pytest.mark.parametrize("i", [1, 2, 3, "m"])
def test_second_eigenmatrix_rejects_a_perturbed_entry(tower2, i, l):
    # P[l][i] raised by 1, or with i = "m" the multiplicity m_l
    record = build_scheme(tower2, "thm1")
    P = [list(row) for row in record.P]
    multiplicities = list(record.multiplicities)
    if i == "m":
        multiplicities[l] += 1
    else:
        P[l][i] += 1
    with pytest.raises(InternalCheckError):
        second_eigenmatrix(P, multiplicities, record.size)


def test_second_eigenmatrix_names_the_entry_that_is_not_an_integer(tower2):
    record = build_scheme(tower2, "thm1")
    P = [list(row) for row in record.P]
    P[1][1] += 1  # Q[1][1] = m_1 P[1][1] / n_1 = 3 * 16 / 15
    with pytest.raises(InternalCheckError, match=r"^Q\[1\]\[1\] = 48/15 is not an integer$"):
        second_eigenmatrix(P, record.multiplicities, record.size)


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


@pytest.mark.parametrize("s", [1, 2, 3, 4])
def test_two_class_scheme_passes_the_catalog_certificate(s):
    # trace2 (d = 2) reaches no catalog: check its P, Q, B as one would
    assert check_record(two_class_scheme(build_tower(s)).to_json()) == []


def _diagonal_from_row_i(P, Q, size):
    """B_i from Q diag(row i of P) P, in place of column i."""
    return [schemecore._divide_rows(
        schemecore._mat_mul(Q, [[P[i][l] * v for v in row] for l, row in enumerate(P)]),
        [size] * len(P), f"B{i}") for i in range(len(P))]


@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_diagonal_from_a_row_of_p_is_not_integral(monkeypatch, s):
    tower = build_tower(s)  # a new tower: build_scheme caches per tower
    monkeypatch.setattr(schemecore, "intersection_numbers", _diagonal_from_row_i)
    with pytest.raises(InternalCheckError,
                       match=r"^B0\[\d\]\[\d\] = -?\d+/\d+ is not an integer$"):
        build_scheme(tower, "thm1")


@pytest.mark.parametrize("mutant", [
    lambda P, Q, size: intersection_numbers(P, Q[::-1], size),
    lambda P, Q, size: [[list(c) for c in zip(*b)] for b in intersection_numbers(P, Q, size)]],
    ids=["Q-rows-reversed", "B-transposed"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_an_integral_intersection_mutant_fails_reconcile(monkeypatch, s, mutant):
    tower = build_tower(s)
    monkeypatch.setattr(schemecore, "intersection_numbers", mutant)
    for scheme_id in ("thm1", "thm2i"):
        checks = {c.name: c.passed for c in paperbook.reconcile(tower, scheme_id).checks}
        assert checks["intersection matrices B1..B3 match"] is False


@pytest.mark.parametrize("s,label", [(1, "F"), (1, "G"), (1, "H"), (2, "F")])
def test_oracle_agreement(s, label):
    tower = build_tower(s)
    pat = get_partition(tower)
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
        brute_force_intersection_oracle(tower2, "H", get_partition(tower2))


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


def test_scheme_arguments_are_refused(tower2):
    with pytest.raises(SchemeError, match="^unknown scheme id 'thm9'$"):
        build_scheme(tower2, "thm9")
    with pytest.raises(SchemeError, match="^scheme id 'dual1' needs an explicit pattern$"):
        build_scheme(tower2, "dual1")
    with pytest.raises(GroupRingError, match="^modulus mismatch$"):  # M = 21, not 7
        build_scheme(tower2, "thm1", FusionPattern(7, ((1, 2, 4), (3, 5, 6), (0,))))
    with pytest.raises(SchemeError, match="^which must be 'thm1' or 'thm2i'$"):
        dual_scheme_tables_check(tower2, "thm2ii")
    with pytest.raises(SchemeError, match="^dual requires a verified index-fusion scheme$"):
        build_dual_scheme(tower2, two_class_scheme(tower2))
    tower5 = build_tower(5)  # |F*| = 32,767, past the element-level limit
    with pytest.raises(SchemeError, match="^element-level verification limited to small fields$"):
        build_element_scheme(tower5, "F", [range(tower5.F.order)], "x")


def test_an_oversized_element_fusion_is_refused_before_any_work(monkeypatch):
    # |H*| = 2^27 - 1 at s = 3: sorting that many exponents into a pattern
    # exhausts memory, so the size limit must refuse before any is read
    class Tripwire:
        def __new__(cls, *args):
            raise AssertionError("no FusionPattern may be built")

    monkeypatch.setattr(schemecore, "FusionPattern", Tripwire)
    tower = build_tower(3)
    with pytest.raises(SchemeError, match="^element-level verification limited to small fields$"):
        build_element_scheme(tower, "H", [range((1 << 27) - 1)], "x")
    assert "trace_string" not in tower.H.__dict__


def test_im10_refuses_what_it_cannot_refine(tower1, tower2):
    with pytest.raises(SchemeError,
                       match="^input must be a verified element-level 2-class scheme$"):
        im10_construct(tower2, build_scheme(tower2, "thm1"))
    # the classes g^k, k = 0, 1, 5 mod 7, and the rest: a 2-class scheme on
    # GF(64) whose classes each meet both dual classes
    R1 = tuple(k for k in range(63) if k % 7 in (0, 1, 5))
    two = build_element_scheme(tower2, "F", (R1, tuple(sorted(set(range(63)) - set(R1)))), "x")
    assert two.is_scheme and two.d == 2
    with pytest.raises(SchemeError, match="^neither class is contained in a dual class$"):
        im10_construct(tower2, two)
    # a forged dual class, R1 and two exponents of R2, is refined into no scheme
    trace2 = two_class_scheme(tower1)
    R1, R2 = trace2.pattern_sets
    forged = trace2._replace(dual_sets=(tuple(sorted(R1 + R2[:2])), R2[2:]))
    with pytest.raises(InternalCheckError,
                       match="^two-class refinement failed to verify as a scheme$"):
        im10_construct(tower1, forged)


@pytest.mark.parametrize("construct", [two_class_scheme, im10_construct])
def test_element_fusions_hold_no_element_sets_at_s4(construct):
    # blocks stay exponent tuples from input to record: the two calls peak
    # at about 0.5 and 0.8 MB at s = 4, and element sets, name lists or a
    # discrete-log table over the 4,095 elements of F* beside the products
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
