"""The benchmark's traced replica, ``perfbench/traced.py``, calls package
functions by name; a rename in ``src/`` that it does not follow would
otherwise surface only in the benchmark's own smoke test."""

import json
import os
import subprocess
import sys
from pathlib import Path

import cycloscheme
from cycloscheme.cli import TARGETS, main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cycloscheme.__file__).resolve().parents[1]


def test_traced_replica_writes_the_cli_schemes(tmp_path):
    traced, spans = tmp_path / "traced.json", tmp_path / "spans.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "traced.py"), "--s", "1",
         "--targets", ",".join(TARGETS), "--json", str(traced), "--spans", str(spans)],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    assert main(["--s", "1", "--all", "--json", str(tmp_path / "cli.json")]) == 0
    schemes = [json.loads(path.read_text())["schemes"] for path in (traced, tmp_path / "cli.json")]
    assert schemes[0] == schemes[1]
    assert json.loads(spans.read_text())["spans"]
