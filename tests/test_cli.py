import hashlib
import io
import itertools
import json
import shlex
import tracemalloc
from pathlib import Path
from typing import NamedTuple

import pytest

from cycloscheme import binfield, charsum, cli, schemecore
from cycloscheme.binfield import FieldError, InternalCheckError, build_tower
from cycloscheme.cli import RunConfig, TARGETS, _target_fields, main, run
from cycloscheme.reporting import Report
from cycloscheme.schemecore import ELEMENT_DEGREE_LIMIT, SchemeError, _mat_mul


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


@pytest.mark.parametrize("s, message", [(0, "s must be >= 1"), (8, "s <= 7")])
def test_s_out_of_range_is_refused_by_build_tower_alone(monkeypatch, capsys, s, message):
    # run has no range check of its own: build_tower's refusal is printed
    # as it is, before any target runs
    with pytest.raises(FieldError, match=message) as exc:
        build_tower(s)
    monkeypatch.setattr(cli, "_RUNNERS", dict.fromkeys(
        TARGETS, lambda tower, config: pytest.fail("no target may run")))
    assert main(["--s", str(s), "--targets", "fields"]) == 2
    assert capsys.readouterr().out == f"error: {exc.value}\n"


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


def test_all_with_targets_is_usage_error(monkeypatch, capsys):
    # --all used to drop --targets silently; the two flags now exclude
    # each other, so the asked-for thm1 is never run as every target
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("nothing may run"))
    with pytest.raises(SystemExit) as exc:
        main(["--s", "3", "--all", "--targets", "thm1"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_thm2ii_s3_requires_big():
    code, text = run_quiet(RunConfig(s=3, targets=("thm2ii",)))
    assert code == 2
    assert "--big" in text


def test_im10_beyond_the_element_limit_is_usage_error():
    # the first s whose F = GF(2^(3s)) is over the element-level limit
    s = next(s for s in itertools.count(1) if 3 * s > ELEMENT_DEGREE_LIMIT)
    code, text = run_quiet(RunConfig(s=s, targets=("im10",)))
    assert code == 2
    assert "im10" in text


def test_im10_s5_is_usage_error():
    assert run_quiet(RunConfig(s=5, targets=("im10",)))[0] == 2


class _Admitted(Exception):
    """Raised by a stub once a size rule has let a request through."""


class _StubField(NamedTuple):
    """A field of the given degree whose trace string is never walked."""
    degree: int

    @property
    def trace_string(self):
        raise _Admitted


@pytest.mark.parametrize("s", range(1, 8))
def test_cli_refuses_im10_exactly_when_the_library_refuses_F(monkeypatch, s):
    def admit(*args):
        raise _Admitted

    monkeypatch.setattr(cli, "build_tower", admit)  # no tower is built
    with pytest.raises((_Admitted, SchemeError)) as library:
        schemecore._psi_row(_StubField(3 * s))
    try:
        code, text = run_quiet(RunConfig(s=s, targets=("im10",)))
    except _Admitted:
        code, text = None, ""
    refused = library.type is SchemeError
    assert (code == 2 and "limited to 4096 elements" in text) == refused == (s >= 5)


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
    # an empty path names no file; it must not pass as "no --json"
    assert main(["--s", "1", "--targets", "fields", "--json", ""]) == 2
    assert "error: cannot write the catalog" in capsys.readouterr().out


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


@pytest.mark.parametrize("verdict", [None, [1], 1], ids=["None", "list", "int"])
def test_a_verdict_is_a_bool(verdict):
    # None would read as SKIP and [1] or 1 by its truth; a skip says so
    report = Report("verdicts")
    with pytest.raises(TypeError, match="^verdict of 'x' is .+, not a bool$"):
        report.add("x", verdict)
    assert not report.checks
    report.skip("y", "not run")
    assert [(c.passed, str(c)) for c in report.checks] == [(None, "[SKIP] y: not run")]


# The benchmark's reference file pins, for each of its invocations, the
# SHA-256 of the catalog's schemes section and the number of checks: the
# whole-catalog behaviour oracle.  From s = 3 on the references leave out
# thm2ii unless --big is given; at s = 5 they keep the targets that walk no
# field beyond F.  FILE_SHA256 pins the SHA-256 of each whole catalog file,
# reports included, under the id "<s>" or "<s>-big".
REFERENCES = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                         / "references.json").read_text())["invocations"]
FILE_SHA256 = {
    "1": "82c704d6ac3c5cb28547c377f9ab96a48db4e85f69282a772cdeaed04d8c693f",
    "2": "12a9210eda3dce81ae7ffb9bbdfb37e0f8073802203273d1bde6e17e5517ca2f",
    "3": "daf8f0f1b309de38d449947fcf0346f9513f812fcc530bb76d10b8fb4cecdfb3",
    "3-big": "d2429a649d6d20ff662cdc53fa57a80a89e4651afba564641d674f8ca63f6501",
    "4": "aa184992996207516398600d34a11ad7b886a642b13ace0abbe01531c096e89f",
    "5": "ebe188620fede6596cd146166eab6576b689696028b4a79dcca1c14e0b454cdd",
}


def _reference_id(invocation):
    args = shlex.split(invocation)
    return args[args.index("--s") + 1] + ("-big" if "--big" in args else "")


def test_every_reference_invocation_has_a_file_pin():
    assert sorted(map(_reference_id, REFERENCES)) == sorted(FILE_SHA256)


@pytest.mark.parametrize("invocation", sorted(REFERENCES), ids=_reference_id)
def test_catalog_matches_reference(tmp_path, invocation):
    path = tmp_path / "catalog.json"
    assert main(shlex.split(invocation) + ["--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    schemes = json.dumps(payload["schemes"], sort_keys=True, separators=(",", ":"))
    checks = sum(len(r["checks"]) for r in payload["reports"])
    reference = REFERENCES[invocation]
    assert (hashlib.sha256(schemes.encode()).hexdigest(), checks) == \
        (reference["schemes_sha256"], reference["checks"])
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        FILE_SHA256[_reference_id(invocation)]


# Whole-file SHA-256 of catalogs outside the references, and of what each
# run prints: s = 2 under the non-default F modulus 0x61, whose classes and
# partition the tower reads from another generator; s = 2 under non-default
# G and H moduli, where the tower finds its embeddings of F and its class
# steps from other generators; s = 3 with --big, which adds thm2ii and the
# degree-3 Hasse-Davenport check over H; the gauss target at s = 5 and 6
# (M = 1,057 and 4,161), the largest Gauss-sum runs pinned here; im10 at
# s = 3 under the F modulus 0x221, whose generator gives each exponent k
# another name g^k than the default modulus does, and the dual blocks print
# the names; and the partition at s = 6 and 7, the sizes where F's walk
# reads more than one block (2 and 32 of them).
WHOLE_CATALOGS = {
    "s2-all-f61": (RunConfig(s=2, poly_f=0x61),
                   "cc01f11f61810a922f7f751b8e886a3d3913102fa7a0cc5c899d961081e82e5c",
                   "bec0d0c7f6eac17b2ca8b0915d561660d110b9e0fba9f378d7e3dec5580488e7"),
    "s2-all-gh": (RunConfig(s=2, poly_g=0x107b, poly_h=0x4004d),
                  "ca010e26023d9c918a720c047aa53e798cdd4d6679a61aae2c4b2c9ed44b02bf",
                  "f7e455bfdd299aadbc32a4db111b37273ebd169534c7f1ffa1533c8ebad11efa"),
    "s3-all-big": (RunConfig(s=3, big=True), FILE_SHA256["3-big"],
                   "dfe48650c63cad4d3ba3fa9145be5330cf3381d98b7f1a1d56352bc5fbbcacb3"),
    "s5-gauss": (RunConfig(s=5, targets=("gauss",)),
                 "71da8a4cc875b058c1f5bfa6689a49a6074c6392272aee1e0847d50bd9d2b490",
                 "6bebc3359bf4cfaff4e2a9c12dabd0bf55fa04490f3a772f96c3786722dabe50"),
    "s3-im10-f221": (RunConfig(s=3, targets=("im10",), poly_f=0x221),
                     "082d9716fa4c3f36ac95b0bda692331c02cc555a1e4b18661f6a9c2d42817473",
                     "3913ec5a2764aabd0fd0739afff6426c06cb8f93f9edc4def40367628aaead74"),
    "s6-thm1": (RunConfig(s=6, targets=("fields", "partition", "lemma2", "thm1")),
                "7f61a234cb0a0e06ad5fef35f4a59859f20c37ec8ad252121e6240ce12575a12",
                "5e014e52d8a6a8b132fe1f2d0c87d152553ed665fba1e362ad54cd351ea8e118"),
    "s6-gauss": (RunConfig(s=6, targets=("gauss",)),
                 "7666daf59350c5908bb925c57fbfdf764af287a9c6b9e833e566e3f8b94880c5",
                 "1e5a4e1cacdb61946dddb984c733c47a8cc5a9b135dddf346e5899efccf2a8e3"),
    "s7-partition": (RunConfig(s=7, targets=("partition",)),
                     "712f42d6310b3591d287e3bd5ccda0dd01b7d83d44f82c00f0ff9d495e231c70",
                     "4c56d8ec9d851f21f9ca40607c669d88bf88ea56c43a63799727ef80e64f1e86"),
}


@pytest.mark.parametrize("name", sorted(WHOLE_CATALOGS))
def test_whole_catalog_matches_reference(tmp_path, name):
    config, file_sha, stdout_sha = WHOLE_CATALOGS[name]
    path = tmp_path / "catalog.json"
    code, text = run_quiet(config._replace(json_path=str(path)))
    assert code == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == file_sha
    assert hashlib.sha256(text.encode()).hexdigest() == stdout_sha


def test_explicit_modulus_flag():
    assert main(["--s", "1", "--targets", "thm1", "--poly-f", "b"]) == 0


def test_a_modulus_that_is_not_hex_is_usage_error(monkeypatch, capsys):
    # refused by argparse, as a bad --s is, before anything runs
    monkeypatch.setattr(cli, "run", lambda config: pytest.fail("nothing may run"))
    with pytest.raises(SystemExit) as exc:
        main(["--s", "1", "--targets", "fields", "--poly-f", "zz"])
    assert exc.value.code == 2
    assert "error: argument --poly-f: invalid hexadecimal value: 'zz'" in capsys.readouterr().err


def test_bad_modulus_is_usage_error():
    # x^3 + x^2 + x + 1 is reducible
    assert main(["--s", "1", "--targets", "fields", "--poly-f", "f"]) == 2


def test_reducible_modulus_refusal_names_the_failed_test(capsys):
    # 0x3f1 = (x^4+x^3+1)(x^5+x^3+1) is coprime to x^(2^3) - x
    assert main(["--s", "1", "--targets", "thm2ii", "--poly-h", "3f1"]) == 2
    assert capsys.readouterr().out == \
        "error: modulus 0x3f1 is reducible: x^(2^9) != x modulo the modulus\n"


def _forms_of_x_times(monkeypatch):
    """A mutant of the one trace-form primitive: the forms of x*a in place
    of those of a, read by ``relative_trace_forms``."""
    forms = binfield.trace_forms
    monkeypatch.setattr(binfield, "trace_forms",
                        lambda K, elements: forms(K, [K.times_x(a) for a in elements]))


@pytest.mark.parametrize("targets", [("gauss",), tuple(t for t in TARGETS if t != "thm2ii")],
                         ids=["gauss", "all-but-thm2ii"])
@pytest.mark.parametrize("s", [1, 2, 3])
def test_a_trace_forms_mutant_never_passes(monkeypatch, s, targets):
    # the partition reads F's trace string, not the trace forms: every run
    # stops in the period kernel
    _forms_of_x_times(monkeypatch)
    with pytest.raises(InternalCheckError,
                       match="differ on the doubling orbit|do not fill a hyperplane"):
        run_quiet(RunConfig(s=s, targets=targets))


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
