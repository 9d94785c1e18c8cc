"""The independent routes stay independent: the Gauss periods never read
the partition, the trace string, a Z[Z_M] product or the Gauss-sum
identities, so the T1 identity compares two walks of F and no period is
derived from Hasse-Davenport; Hasse-Davenport never reads the partition;
and neither the partition nor the element census reads the periods, nor
the partition the trace forms that the period kernel walks.  Each route's
Python calls are recorded with ``sys.setprofile`` on a fresh tower, since
every route is cached per tower and the products keep no cache, so that a
call the route makes cannot hide behind a cache hit."""

import sys

import pytest

from cycloscheme import binfield, charsum, cycpart, schemecore, zmring
from cycloscheme.binfield import build_tower

GAUSS_SUM_CODE = {"_constant_check", "verify_t1_gauss_identity", "verify_hasse_davenport",
                  "gauss_sum_modulus_check", "period_expansion_check",
                  "conjugation_symmetry_check"}


def _calls(route, *args) -> set:
    """(module file, function name) of every Python call ``route`` makes."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add((frame.f_code.co_filename, frame.f_code.co_name))

    sys.setprofile(profile)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    return seen


def _in(module, calls) -> set:
    return {name for path, name in calls if path == module.__file__}


@pytest.mark.parametrize("label", ["F", "G", "H"])
def test_gauss_periods_reach_no_partition_and_no_gauss_sum_code(label):
    calls = _calls(charsum.gauss_periods, build_tower(2), label)
    assert "_trace_zero_counts" in _in(charsum, calls)  # the recorder sees the route
    assert _in(cycpart, calls) == set()
    assert "trace_string" not in _in(binfield, calls)
    assert _in(zmring, calls) == set()
    assert _in(charsum, calls).isdisjoint(GAUSS_SUM_CODE)


def test_hasse_davenport_reaches_no_partition():
    calls = _calls(charsum.verify_hasse_davenport, build_tower(2), 2)
    assert {"gauss_periods", "_constant_check"} <= _in(charsum, calls)
    assert "_cyclic_product" in _in(zmring, calls)
    assert _in(cycpart, calls) == set()


def test_the_psi_route_reaches_no_gauss_period():
    calls = _calls(cycpart._psi_route, build_tower(2))
    assert {"_class_rows", "_class_psi_sums"} <= _in(cycpart, calls)
    assert {"gauss_periods", "_trace_zero_counts"}.isdisjoint(_in(charsum, calls))


def test_the_partition_reaches_no_trace_form():
    calls = _calls(cycpart.get_partition, build_tower(2))
    assert {"trace_string", "odd_parities"} <= _in(binfield, calls)
    assert _in(binfield, calls).isdisjoint({"trace_forms", "relative_trace_forms"})
    assert "_trace_zero_counts" not in _in(charsum, calls)


def test_the_element_census_reaches_no_gauss_period():
    def trace2_and_im10(tower):
        schemecore.im10_construct(tower, schemecore.two_class_scheme(tower))

    calls = _calls(trace2_and_im10, build_tower(2))
    assert {"_psi_row", "_assemble"} <= _in(schemecore, calls)
    assert {"gauss_periods", "_trace_zero_counts"}.isdisjoint(_in(charsum, calls))
    assert _in(charsum, calls).isdisjoint(GAUSS_SUM_CODE)
