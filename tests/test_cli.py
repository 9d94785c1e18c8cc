import hashlib
import io
import itertools
import json
import tracemalloc

import pytest

from cycloscheme import binfield, charsum, cli, schemecore
from cycloscheme.binfield import InternalCheckError, build_tower
from cycloscheme.cli import RunConfig, TARGETS, _target_fields, main, run
from cycloscheme.schemecore import _ORACLE_SIZE_LIMIT, _mat_mul


def run_quiet(config):
    buf = io.StringIO()
    code = run(config, out=buf)
    return code, buf.getvalue()


def test_all_targets_s1_pass():
    code, text = run_quiet(RunConfig(s=1))
    assert code == 0
    assert "all checks passed" in text


def test_invalid_s_is_usage_error():
    assert main(["--s", "0", "--targets", "fields"]) == 2


def test_unknown_target_is_usage_error():
    code, _ = run_quiet(RunConfig(s=1, targets=("nonsense",)))
    assert code == 2


@pytest.mark.parametrize("targets", [",", ""])
def test_empty_target_list_is_usage_error(monkeypatch, capsys, targets):
    def no_tower(*args):
        raise AssertionError("the tower must not be built")

    monkeypatch.setattr(cli, "build_tower", no_tower)
    assert main(["--s", "1", "--targets", targets]) == 2
    assert "all checks passed" not in capsys.readouterr().out


def test_thm2ii_s3_requires_big():
    code, text = run_quiet(RunConfig(s=3, targets=("thm2ii",)))
    assert code == 2
    assert "--big" in text


def test_im10_beyond_the_element_limit_is_usage_error():
    # the first s whose F = GF(2^(3s)) is over the element-level limit
    s = next(s for s in itertools.count(1) if 1 << (3 * s) > _ORACLE_SIZE_LIMIT)
    code, text = run_quiet(RunConfig(s=s, targets=("im10",)))
    assert code == 2
    assert "im10" in text


def test_im10_s5_is_usage_error():
    assert run_quiet(RunConfig(s=5, targets=("im10",)))[0] == 2


def test_im10_refusal_of_a_huge_s_sizes_nothing():
    # the limit is compared by exponent: 1 << (3 * 10**8) alone is 37.5 MB
    tracemalloc.start()
    try:
        code, text = run_quiet(RunConfig(s=10**8, targets=("im10",)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2 and "limited to 4096 elements" in text
    assert peak < 1_000_000


@pytest.mark.parametrize("config", [
    RunConfig(s=8, targets=("thm2ii",), big=True),  # H = GF(2^72)
    RunConfig(s=11, targets=("thm2i",)),            # G = GF(2^66)
], ids=["H-s8", "G-s11"])
def test_walk_above_degree_64_is_refused_up_front(monkeypatch, config):
    # build_tower refuses 9s > 64, the supported range until a cost model
    # of each target replaces it, before it builds any field
    def no_field(*args):
        raise AssertionError("no field may be built")

    monkeypatch.setattr(binfield, "build_field", no_field)
    code, text = run_quiet(config)
    assert code == 2
    assert "outside the supported range" in text


def test_tower_beyond_the_word_size_is_usage_error(capsys):
    # walks nothing, but H = GF(2^72) at s = 8 is outside the supported range
    assert main(["--s", "8", "--targets", "fields"]) == 2
    assert "s <= 7" in capsys.readouterr().out


def test_unwritable_catalog_path_is_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "c.json"
    assert main(["--s", "1", "--targets", "fields", "--json", str(path)]) == 2
    assert "error: cannot write the catalog" in capsys.readouterr().out
    assert not path.exists()


def test_skipped_check_is_not_a_pass(tmp_path):
    path = tmp_path / "catalog.json"
    code, text = run_quiet(RunConfig(s=3, targets=("gauss",), json_path=str(path)))
    assert code == 0
    assert "[SKIP] skipped: needs --big" in text
    assert "[PASS] skipped" not in text
    assert text.rstrip().endswith("all checks passed, 1 skipped")
    checks = [c for r in json.loads(path.read_text())["reports"] for c in r["checks"]]
    assert [c["passed"] for c in checks].count(None) == 1
    assert all(c["passed"] is True for c in checks if c["passed"] is not None)


# SHA-256 of the catalog's schemes section and the number of checks, as
# recorded in perfbench/references.json: the whole-catalog behaviour oracle.
# From s = 3 on the references leave out thm2ii, which needs --big there; at
# s = 5 they keep the targets that walk no field beyond F.  The third value
# pins the SHA-256 of the whole catalog file, reports included.
CATALOG_REFERENCES = {
    1: ("42d1839c5c663e0fbb026fae0bc4c28e42a83a36bc32fd0f992afdd5d6a37cfa", 75,
        "82c704d6ac3c5cb28547c377f9ab96a48db4e85f69282a772cdeaed04d8c693f"),
    2: ("34ddcb3c0662b2934d3a46830f3ec95286184b37e1c0df8d01c02b62b457f7f3", 75,
        "12a9210eda3dce81ae7ffb9bbdfb37e0f8073802203273d1bde6e17e5517ca2f"),
    3: ("d155fb97348d55463caafe486c7ec94f75e8cb23e0b91f9f96fddc93d1da43cb", 63,
        "daf8f0f1b309de38d449947fcf0346f9513f812fcc530bb76d10b8fb4cecdfb3"),
    4: ("2dfbd4f3ba99c5f894f13e65c5292bbc2dea9aa68120825b9c55f3c36785e3f1", 63,
        "aa184992996207516398600d34a11ad7b886a642b13ace0abbe01531c096e89f"),
    5: ("4af4537d5d5a8cd7cfe1e8b6898e7943efd0c012714c20919ed4436896c9a1f0", 33,
        "ebe188620fede6596cd146166eab6576b689696028b4a79dcca1c14e0b454cdd"),
}


def reference_targets(s):
    if s < 3:
        return TARGETS
    if s < 5:
        return tuple(t for t in TARGETS if t != "thm2ii")
    return ("fields", "partition", "lemma2", "thm1", "appendix")


@pytest.mark.parametrize("s", sorted(CATALOG_REFERENCES))
def test_catalog_matches_reference(tmp_path, s):
    path = tmp_path / "catalog.json"
    code, _ = run_quiet(RunConfig(s=s, targets=reference_targets(s),
                                  json_path=str(path)))
    assert code == 0
    payload = json.loads(path.read_text())
    schemes = json.dumps(payload["schemes"], sort_keys=True, separators=(",", ":"))
    checks = sum(len(r["checks"]) for r in payload["reports"])
    schemes_sha, expected_checks, file_sha = CATALOG_REFERENCES[s]
    assert (hashlib.sha256(schemes.encode()).hexdigest(), checks) == \
        (schemes_sha, expected_checks)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha


# Whole-file SHA-256 of four catalogs outside the references: s = 2 under
# non-default G and H moduli, where the tower finds its embeddings of F and
# its class steps from other generators; s = 3 with --big, which adds
# thm2ii and the degree-3 Hasse-Davenport check over H; the gauss target at
# s = 5, the one size here where the modulus, expansion and degree-2 checks
# would take a second DFT prime under a looser bound; and im10 at s = 3
# under the F modulus 0x221, whose generator gives each exponent k another
# name g^k than the default modulus does; the dual blocks print the names.
WHOLE_CATALOGS = {
    "s2-all-gh": (RunConfig(s=2, poly_g=0x107b, poly_h=0x4004d),
                  "ca010e26023d9c918a720c047aa53e798cdd4d6679a61aae2c4b2c9ed44b02bf"),
    "s3-all-big": (RunConfig(s=3, big=True),
                   "d2429a649d6d20ff662cdc53fa57a80a89e4651afba564641d674f8ca63f6501"),
    "s5-gauss": (RunConfig(s=5, targets=("gauss",)),
                 "71da8a4cc875b058c1f5bfa6689a49a6074c6392272aee1e0847d50bd9d2b490"),
    "s3-im10-f221": (RunConfig(s=3, targets=("im10",), poly_f=0x221),
                     "082d9716fa4c3f36ac95b0bda692331c02cc555a1e4b18661f6a9c2d42817473"),
}


@pytest.mark.parametrize("name", sorted(WHOLE_CATALOGS))
def test_whole_catalog_matches_reference(tmp_path, name):
    config, file_sha = WHOLE_CATALOGS[name]
    path = tmp_path / "catalog.json"
    code, _ = run_quiet(config._replace(json_path=str(path)))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha


def test_explicit_modulus_flag():
    assert main(["--s", "1", "--targets", "thm1", "--poly-f", "b"]) == 0


def test_bad_modulus_is_usage_error():
    # x^3 + x^2 + x + 1 is reducible
    assert main(["--s", "1", "--targets", "fields", "--poly-f", "f"]) == 2


def _forms_of_x_times(monkeypatch):
    """A mutant of the one trace-form primitive: the forms of x*a in place
    of those of a, for every module that reads it."""
    forms = binfield.trace_forms
    for module in (binfield, schemecore):
        monkeypatch.setattr(module, "trace_forms",
                            lambda K, elements: forms(K, [K.times_x(a) for a in elements]))


@pytest.mark.parametrize("targets", [("partition",), ("gauss",),
                                     tuple(t for t in TARGETS if t != "thm2ii")],
                         ids=["partition", "gauss", "all-but-thm2ii"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_trace_forms_mutant_never_passes(monkeypatch, s, targets):
    _forms_of_x_times(monkeypatch)
    try:
        code, text = run_quiet(RunConfig(s=s, targets=targets))
    except InternalCheckError as exc:
        assert "quadratic-form description of D failed" in str(exc)
    else:
        assert code != 0 and "all checks passed" not in text


@pytest.mark.parametrize("label", ["F", "G", "H"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_trace_forms_mutant_fails_the_period_kernel(monkeypatch, s, label):
    tower = build_tower(s)
    _forms_of_x_times(monkeypatch)
    with pytest.raises(InternalCheckError,
                       match="differ on the doubling orbit|do not fill a hyperplane"):
        charsum.gauss_periods(tower, label)


def test_catalog_round_trip(tmp_path):
    path = tmp_path / "catalog.json"
    config = RunConfig(s=1, json_path=str(path))
    code, _ = run_quiet(config)
    assert code == 0
    first = path.read_bytes()
    code, _ = run_quiet(config)
    assert code == 0
    assert path.read_bytes() == first  # deterministic bytes

    data = json.loads(first)
    assert data["header"]["M"] == 7
    ids = {rec["scheme"] for rec in data["schemes"]}
    assert ids == {"thm1", "thm2i", "thm2ii", "dual1", "dual2i", "im10"}
    for rec in data["schemes"]:
        P, Q, size = rec["P"], rec["Q"], rec["size"]
        n = len(P)
        assert _mat_mul(P, Q) == [[size if i == j else 0 for j in range(n)]
                                  for i in range(n)]


def test_catalog_s2_sorted_partitions(tmp_path):
    path = tmp_path / "catalog.json"
    config = RunConfig(s=2, targets=("thm1", "duals"), json_path=str(path))
    code, _ = run_quiet(config)
    assert code == 0
    data = json.loads(path.read_text())
    assert data["header"]["M"] == 21
    for rec in data["schemes"]:
        for block in rec["dual_blocks"]:
            assert block == sorted(block)


def test_target_order_is_fixed():
    # report order follows the canonical target list, not the input order
    buf = io.StringIO()
    run(RunConfig(s=1, targets=("thm1", "fields")), out=buf)
    text = buf.getvalue()
    assert text.index("field tower") < text.index("thm1 scheme")


def test_embedded_omega_order_check_sees_every_prime(monkeypatch):
    # |F*| = 511 = 7 * 73 at s = 3; omega^73 has order 7, which a check
    # against the primes 3 and 7 alone lets through
    tower = build_tower(3)
    monkeypatch.setattr(tower, "roots", {label: tower.field(label).pow(root, 73)
                                         for label, root in tower.roots.items()})
    reports, _ = _target_fields(tower, RunConfig(s=3, targets=("fields",)))
    failed = {c.name for c in reports[0].failures()}
    assert failed == {"embedded omega keeps its order in G",
                      "embedded omega keeps its order in H"}


def test_verbose_times_each_target_on_stderr_only(tmp_path, capsys):
    outputs = []
    for verbose in (False, True):
        path = tmp_path / f"catalog-{verbose}.json"
        code, text = run_quiet(RunConfig(s=2, json_path=str(path), verbose=verbose))
        assert code == 0
        outputs.append((text, path.read_bytes(), capsys.readouterr()))
    (text, catalog, quiet), (verbose_text, verbose_catalog, loud) = outputs
    assert verbose_text == text
    assert verbose_catalog == catalog
    assert quiet.out == quiet.err == loud.out == ""
    lines = loud.err.splitlines()
    assert [line.split(":")[0] for line in lines] == ["tower", *TARGETS]
    # "<step>: <wall> s, peak RSS <MB> MB", the peak never falling
    times, peaks = zip(*(line.split(": ")[1].split(", peak RSS ") for line in lines))
    assert all(t.endswith(" s") and float(t[:-2]) >= 0 for t in times)
    assert all(p.endswith(" MB") for p in peaks)
    peaks = [float(p[:-3]) for p in peaks]
    assert 0 < peaks[0] and peaks == sorted(peaks)


def test_each_fusion_is_censused_once(monkeypatch):
    # the census sees one column per block of one fusion pattern; recorded
    # as (column length, columns), the length tells the fields apart and
    # a set of columns forgets the order of the blocks
    census = schemecore._census
    seen = []

    def counting(columns):
        seen.append((len(columns[0]), tuple(map(tuple, columns))))
        return census(columns)

    monkeypatch.setattr(schemecore, "_census", counting)
    targets = ("thm1", "thm2i", "thm2ii", "duals", "im10")
    assert run_quiet(RunConfig(s=2, targets=targets))[0] == 0
    # each (field, ordered blocks) once: thm1, thm2i, thm2ii, dual1, dual2i,
    # the two-class scheme and its refinement, and the self-dual thm2ii
    # again with its blocks in the dual's order (a distinct pattern)
    assert len(seen) == len(set(seen)) == 8
    assert len({(values, frozenset(blocks)) for values, blocks in seen}) == 7


def test_scheme_records_are_frozen():
    record = schemecore.build_scheme(build_tower(1), "thm1")
    with pytest.raises(AttributeError):
        record.scheme_id = "dual1"
    refuted = schemecore.bannai_muzychuk_verify(
        build_tower(1), "F", schemecore.FusionPattern(7, ((1, 2, 3), (4, 5), (0, 6))))
    assert not refuted.is_scheme
    # a refuted fusion leaves its spectral fields empty, and immutable
    assert (refuted.degrees, refuted.P, refuted.Q, refuted.B) == ((), (), (), ())
