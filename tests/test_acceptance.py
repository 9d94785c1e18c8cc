"""Acceptance gate: one test per criterion, one printed verdict line each.

Criteria 3 and 8 each contain a clause that the exact computation refutes
at s = 1 (small-case degeneracies at q = 2); those tests state the required
clause faithfully and are expected to fail rather than be weakened.
"""

import time

import conftest

from cycloscheme.binfield import InternalCheckError, build_tower
from cycloscheme.charsum import (eta_prime_law_check, gauss_periods,
                                 gauss_sum_modulus_check, period_expansion_check,
                                 verify_hasse_davenport, verify_t1_gauss_identity)
from cycloscheme.cycpart import get_partition
from cycloscheme.paperbook import reconcile
from cycloscheme.schemecore import (FusionPattern, bannai_muzychuk_verify,
                                    build_scheme, dual_scheme_tables_check,
                                    im10_construct, _mat_mul)
from cycloscheme.zmring import delta_square_check, verify_lemma2, verify_remark_eqs

from gauss_ring_oracle import gauss_sum_power_vector, recover_period_from_sums
from partition_oracle import partition_by_trace_reference
from ring_oracle import GroupRingElement, involute
from scheme_oracle import brute_force_intersection_oracle

_TOWERS = {}


def tower(s):
    if s not in _TOWERS:
        _TOWERS[s] = build_tower(s)
    return _TOWERS[s]


def verdict(n, ok, text):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {text}"
    print(line)
    conftest.record_verdict(line)
    assert ok, f"criterion {n}: {text}"


def matched_P(record):
    """P with dual rows relabelled by set equality with the classes."""
    perm = [0] + [1 + record.dual_sets.index(ps) for ps in record.pattern_sets]
    n = record.d + 1
    return [[record.P[perm[r]][c] for c in range(n)] for r in range(n)]


def test_criterion_1_field_partition_suite():
    t0 = time.monotonic()
    ok = True
    for s in (1, 2, 3, 4):
        tw = tower(s)
        q = 1 << s
        part = get_partition(tw)
        ok &= (part.T1, part.T2, part.T3) == partition_by_trace_reference(tw)
        ok &= (len(part.T1), len(part.T2), len(part.T3)) == \
            (q + 1, (q * q + q) // 2, (q * q - q) // 2)
        T1 = GroupRingElement.from_set(tw.M, part.T1)
        singer = GroupRingElement.identity(tw.M).scale(q) + \
            GroupRingElement.all_ones(tw.M)
        ok &= T1 * involute(T1) == singer
        ok &= verify_lemma2(part, s).passed
        ok &= verify_remark_eqs(part, s).passed
        ok &= delta_square_check(part, s).passed
    elapsed = time.monotonic() - t0
    verdict(1, ok and elapsed < 5.0,
            f"field/partition suite s=1..4 exact, {elapsed:.2f}s")


def test_criterion_2_theorem_on_F():
    t0 = time.monotonic()
    ok = True
    for s in (1, 2):
        tw = tower(s)
        record = build_scheme(tw, "thm1")
        ok &= record.is_scheme and len(record.row_census) == 3
        ok &= reconcile(tw, "thm1").passed
        ok &= dual_scheme_tables_check(tw, "thm1").passed
        ok &= not record.flags["is_primitive"]
    elapsed = time.monotonic() - t0
    verdict(2, ok and elapsed < 1.0,
            f"F-scheme verified against its tables at s=1,2, {elapsed:.2f}s")


def test_criterion_3_theorem_on_G():
    t0 = time.monotonic()
    ok = True
    detail = []
    for s in (1, 2):
        tw = tower(s)
        ok &= eta_prime_law_check(tw).passed
        record = build_scheme(tw, "thm2i")
        ok &= record.is_scheme
        ok &= reconcile(tw, "thm2i").passed
        ok &= dual_scheme_tables_check(tw, "thm2i").passed
        ok &= record.flags["is_primitive"]
        if record.flags["is_self_dual"]:
            ok = False
            detail.append(f"s={s}: scheme IS self-dual (dual partition "
                          "coincides with T1|T2|T3 and matched Q == P)")
    elapsed = time.monotonic() - t0
    verdict(3, ok and elapsed < 10.0,
            f"G-scheme: tables, primitivity, non-self-duality at s=1,2, "
            f"{elapsed:.2f}s" + ("; " + "; ".join(detail) if detail else ""))


def test_criterion_4_theorem_on_H():
    t0 = time.monotonic()
    ok = True
    for s in (1, 2):
        tw = tower(s)
        record = build_scheme(tw, "thm2ii")
        ok &= record.is_scheme
        ok &= reconcile(tw, "thm2ii").passed
        P_m = matched_P(record)
        size = 1 << (9 * s)
        ok &= _mat_mul(P_m, P_m) == \
            [[size if i == j else 0 for j in range(4)] for i in range(4)]
        ok &= record.flags["is_self_dual"]
        ok &= record.flags["is_primitive"]
        ok &= record.flags["srg_relations"] == [False, False, False]
    elapsed = time.monotonic() - t0
    verdict(4, ok and elapsed < 60.0,
            f"H-scheme: eigenmatrix match, P^2 = 2^(9s) I, self-dual, primitive, "
            f"no SRG relation, {elapsed:.2f}s")


def test_criterion_5_appendix_reconciliation():
    ok = True
    for s in (1, 2):
        tw = tower(s)
        for sid in ("thm1", "thm2i", "thm2ii"):
            ok &= reconcile(tw, sid).passed
    verdict(5, ok, "appendix B/L matrices reproduced entry-for-entry at q=2,4")


def test_criterion_6_oracle_equivalence():
    ok = True
    for s, label, sid in ((1, "F", "thm1"), (1, "G", "thm2i"), (2, "F", "thm1")):
        tw = tower(s)
        pat = FusionPattern.from_partition(get_partition(tw))
        B, report = brute_force_intersection_oracle(tw, label, pat)
        ok &= report.passed
        ok &= B == build_scheme(tw, sid).B
    verdict(6, ok, "pair-counting oracle equals eigenmatrix intersection numbers")


def test_criterion_7_gauss_sum_suite():
    ok = True
    for s in (1, 2):
        tw = tower(s)
        ok &= verify_t1_gauss_identity(tw).passed
        ok &= verify_hasse_davenport(tw, 2).passed
        ok &= verify_hasse_davenport(tw, 3).passed
        ok &= gauss_sum_modulus_check(tw, "F").passed
        for label in ("F", "G", "H"):
            ok &= period_expansion_check(tw, label).passed
    verdict(7, ok, "Gauss-sum identities exact in Z[zeta_M] at s=1,2")


def test_criterion_8_im10_comparison():
    tw = tower(1)
    record = im10_construct(tw)
    thm1 = build_scheme(tw, "thm1")
    ok = record.is_scheme and record.flags["is_self_dual"]
    differs = record.P != thm1.P
    verdict(8, ok and differs,
            "two-class refinement at s=1 is a self-dual 3-class scheme"
            + ("" if differs else
               "; but its P is IDENTICAL to the F-scheme's P at q=2"))


def test_criterion_9_negative_controls():
    controls = 0
    tw = tower(1)
    # 1: corrupted fusion pattern fails the row census
    bad = FusionPattern(7, ((1, 2, 3), (4, 5), (0, 6)))
    controls += not bannai_muzychuk_verify(tw, "F", bad).is_scheme
    # 2: the same corruption breaks pair-count constancy
    _, report = brute_force_intersection_oracle(tw, "F", bad)
    controls += not report.passed
    # 3: a perturbed Gauss sum no longer reproduces the periods
    vectors = [gauss_sum_power_vector(gauss_periods(tw, "F"), ell) for ell in range(7)]
    vectors[2][5] += 1
    rejected = False
    try:
        for a in range(7):
            if recover_period_from_sums(7, vectors, a) != gauss_periods(tw, "F")[a]:
                rejected = True
    except InternalCheckError:
        rejected = True
    controls += rejected
    # 4: a wrong group-ring identity is caught coefficient-by-coefficient
    part = get_partition(tw)
    bad_report = verify_lemma2(part, 2)  # wrong s for this partition
    controls += not bad_report.passed
    verdict(9, controls >= 3, f"{controls} independent negative controls rejected")
