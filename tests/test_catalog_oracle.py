"""Every catalog's P, Q, B and flags pass a certificate that reads only the
JSON (``catalog_oracle``), and mutated catalogs fail it."""

import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from cycloscheme.cli import TARGETS, RunConfig, run

import catalog_oracle

ORACLE = Path(catalog_oracle.__file__)

CATALOGS = {
    "s1-all": RunConfig(s=1),
    "s2-all": RunConfig(s=2),
    "s2-all-gh": RunConfig(s=2, poly_g=0x107b, poly_h=0x4004d),
    "s3-all-big": RunConfig(s=3, big=True),
    "s3-im10-f221": RunConfig(s=3, targets=("im10",), poly_f=0x221),
    "s4-all-but-thm2ii": RunConfig(s=4, targets=tuple(t for t in TARGETS if t != "thm2ii")),
}


@pytest.fixture(scope="module")
def catalogs(tmp_path_factory):
    root = tmp_path_factory.mktemp("catalogs")
    paths = {}
    for name, config in CATALOGS.items():
        paths[name] = root / f"{name}.json"
        assert run(config._replace(json_path=str(paths[name])), out=io.StringIO()) == 0
    return paths


@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_every_record_passes_the_certificate(catalogs, name):
    payload = json.loads(catalogs[name].read_text())
    assert payload["schemes"]
    assert catalog_oracle.check_catalog(payload) == []


def test_the_certificate_checks_every_scheme_and_dual_pair(catalogs):
    names = [r["scheme"] for r in json.loads(catalogs["s3-all-big"].read_text())["schemes"]]
    assert names == ["thm1", "thm2i", "thm2ii", "dual1", "dual2i", "im10"]


def _swap_a_q_entry(payload):
    record = payload["schemes"][0]
    row = record["Q"][1]
    j = next(j for j in range(2, len(row)) if row[j] != row[1])
    row[1], row[j] = row[j], row[1]


def _change_a_b_entry(payload):
    payload["schemes"][0]["B"][1][1][1] += 1


def _relabel_dual1(payload):
    # dual1 with its relations 1 and 2 swapped in P, Q, B and the degrees:
    # the record still passes on its own, but its B no longer reads thm1's
    # Krein array in record order
    dual = next(r for r in payload["schemes"] if r["scheme"] == "dual1")
    pi, n = [0, 2, 1, 3], range(4)
    dual["P"] = [[row[pi[i]] for i in n] for row in dual["P"]]
    dual["Q"] = [dual["Q"][pi[i]] for i in n]
    dual["degrees"] = dual["P"][0]
    B = dual["B"]
    dual["B"] = [[[B[pi[i]][pi[k]][pi[j]] for j in n] for k in n] for i in n]


@pytest.mark.parametrize("mutate", [_swap_a_q_entry, _change_a_b_entry],
                         ids=["Q-swap", "B-change"])
@pytest.mark.parametrize("name", sorted(CATALOGS))
def test_a_mutated_catalog_is_rejected(catalogs, name, mutate):
    payload = json.loads(catalogs[name].read_text())
    mutate(payload)
    assert catalog_oracle.check_catalog(payload)


@pytest.mark.parametrize("name", ["s1-all", "s2-all", "s4-all-but-thm2ii"])
def test_a_dual_that_is_not_the_primals_krein_array_is_rejected(catalogs, name):
    payload = json.loads(catalogs[name].read_text())
    _relabel_dual1(payload)
    assert catalog_oracle.check_catalog(payload) == ["dual1: B is not the Krein array of thm1"]


def test_the_oracle_runs_as_a_script(catalogs, tmp_path):
    good = str(catalogs["s2-all"])
    assert subprocess.run([sys.executable, str(ORACLE), good]).returncode == 0
    payload = json.loads(catalogs["s2-all"].read_text())
    _change_a_b_entry(payload)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    proc = subprocess.run([sys.executable, str(ORACLE), good, str(bad)],
                          capture_output=True, text=True)
    assert proc.returncode == 1 and proc.stdout.startswith(f"{bad}: thm1: ")
