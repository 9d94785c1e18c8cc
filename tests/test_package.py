"""The package's public names."""

import cycloscheme


def test_every_export_resolves():
    assert all(hasattr(cycloscheme, name) for name in cycloscheme.__all__)
    assert len(set(cycloscheme.__all__)) == len(cycloscheme.__all__)


def test_test_oracles_are_not_exported():
    # the group-ring element type, Phi_M and the per-character Gauss sum are
    # test references (tests/ring_oracle.py, tests/gauss_ring_oracle.py)
    for name in ("GroupRingElement", "cyclotomic_polynomial", "gauss_sum"):
        assert name not in cycloscheme.__all__
        assert not hasattr(cycloscheme, name)
