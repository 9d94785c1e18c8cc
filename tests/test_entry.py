"""The process entry: ``python -m cycloscheme`` and the console script run
the CLI through one function, which freezes the collector at exit, and the
process never imports numpy, dataclasses or fractions.  ``import
cycloscheme`` loads no submodule, and a tower build loads binfield alone.  A
bad modulus is refused before any loop runs on it."""

import gc
import importlib
import os
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import pytest

import cycloscheme
from cycloscheme.cli import TARGETS, main

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(cycloscheme.__file__).resolve().parents[1]


def python(*args, timeout=120):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=timeout)


def test_module_entry_matches_in_process_main(tmp_path, capsys):
    proc = python("-m", "cycloscheme", "--s", "1", "--all",
                  "--json", str(tmp_path / "sub.json"))
    assert proc.returncode == 0, proc.stderr
    assert main(["--s", "1", "--all", "--json", str(tmp_path / "in.json")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert (tmp_path / "sub.json").read_bytes() == (tmp_path / "in.json").read_bytes()


def test_module_entry_freezes_the_collector_at_exit():
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count()))\n"
            "sys.argv = ['cycloscheme', '--s', '1', '--targets', 'fields']\n"
            "runpy.run_module('cycloscheme', run_name='__main__', alter_sys=True)\n")
    proc = python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert "all checks passed" in proc.stdout
    assert int(proc.stdout.split("frozen ")[-1]) > 0


def test_in_process_main_leaves_the_collector_alone(capsys):
    before = gc.get_freeze_count()
    assert main(["--s", "1", "--targets", "fields"]) == 0
    assert gc.get_freeze_count() == before


def test_importing_the_entry_module_runs_nothing():
    proc = python("-c", "import cycloscheme.__main__")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")


def test_console_script_is_the_module_entry():
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["cycloscheme"]
    module, _, name = target.partition(":")
    entry_module = importlib.import_module("cycloscheme.__main__")
    assert getattr(importlib.import_module(module), name) is entry_module.entry


# makes the modules in argv[1] unimportable: an import of any of them raises
BLOCK = ("import sys\n"
         "for name in sys.argv[1].split(','):\n"
         "    sys.modules[name] = None\n")
# runs the module entry with those modules blocked
BLOCKED = BLOCK + ("import runpy\n"
                   "sys.argv = ['cycloscheme', *sys.argv[2:]]\n"
                   "runpy.run_module('cycloscheme', run_name='__main__', alter_sys=True)\n")
RUNS = pytest.mark.parametrize("args", [
    ["--s", "1", "--all"], ["--s", "2", "--all"],
    ["--s", "3", "--targets", ",".join(t for t in TARGETS if t != "thm2ii")]],
    ids=["s1", "s2", "s3"])


def run_without(blocked, args, tmp_path, capsys):
    proc = python("-c", BLOCKED, ",".join(blocked), *args, "--json", str(tmp_path / "sub.json"))
    assert proc.returncode == 0, proc.stderr
    assert main([*args, "--json", str(tmp_path / "in.json")]) == 0
    assert proc.stdout == capsys.readouterr().out
    assert (tmp_path / "sub.json").read_bytes() == (tmp_path / "in.json").read_bytes()


@RUNS
def test_the_process_never_imports_numpy(tmp_path, capsys, args):
    # nor dataclasses, which pulls in inspect, dis and tokenize (about 13 ms
    # of every process), nor fractions with decimal (about 4 ms more)
    run_without(["numpy", "dataclasses", "inspect", "fractions", "decimal"],
                args, tmp_path, capsys)


# Every GF(2)[x] loop on a negative bit mask runs forever, so these run in a
# fresh process stopped after 10 s: a hang fails the test.

@pytest.mark.parametrize("call", ["build_field(3, -11)", "irreducibility_certificate(-11)"])
def test_negative_modulus_is_refused_at_once(call):
    proc = python("-c", f"from cycloscheme.binfield import *\ntry:\n    {call}\n"
                  "except FieldError as exc:\n    print(exc)", timeout=10)
    assert proc.stdout == "modulus -0xb is negative\n", proc.stderr


@pytest.mark.parametrize("args", [["--s", "1", "--poly-f=-b"], ["--s", "2", "--poly-f=-43"]],
                         ids=["s1", "s2"])
def test_negative_modulus_is_usage_error(args):
    proc = python("-m", "cycloscheme", *args, "--targets", "fields", timeout=10)
    assert proc.returncode == 2
    assert "is negative" in proc.stdout


def test_empty_modulus_is_usage_error():
    # an empty --poly-f is not the default modulus
    proc = python("-m", "cycloscheme", "--s", "2", "--poly-f=", "--targets", "fields",
                  timeout=10)
    assert proc.returncode == 2
    assert "error: argument --poly-f: invalid hexadecimal value: ''" in proc.stderr


# The set-up path of a process that only builds towers: the package loads
# each submodule on first use, so it compiles binfield alone.

def loaded_by(code):
    """The cycloscheme, json, ast and argparse modules that ``code`` loads,
    run in a fresh process after ``import sys``."""
    proc = python("-c", "import sys\nbefore = set(sys.modules)\n" + code +
                  "\nprint(sorted(m for m in set(sys.modules) - before if m.split('.')[0]"
                  " in ('cycloscheme', 'json', 'ast', 'argparse')))")
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_importing_the_package_loads_no_submodule():
    assert loaded_by("import cycloscheme") == "['cycloscheme']"


def test_building_a_tower_loads_only_binfield():
    assert loaded_by("import cycloscheme\ncycloscheme.build_tower(2)") == \
        "['cycloscheme', 'cycloscheme.binfield']"


def test_the_set_up_code_runs_with_every_other_submodule_blocked():
    blocked = [f"cycloscheme.{name}" for name in ("charsum", "cli", "cycpart", "paperbook",
                                                  "reporting", "schemecore", "zmring")]
    code = (BLOCK + "import cycloscheme\nfor s in (1, 2, 3, 4):\n    cycloscheme.build_tower(s)\n"
            "print(cycloscheme.build_tower(2).moduli_hex())\n")
    proc = python("-c", code, ",".join(blocked))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "{'E': '7', 'F': '43', 'G': '1053', 'H': '40027'}\n"


def test_star_import_binds_each_name_to_its_home_module():
    namespace = {}
    exec("from cycloscheme import *", namespace)
    assert set(cycloscheme.__all__) <= set(namespace)
    for name in cycloscheme.__all__:
        home = importlib.import_module(f"cycloscheme.{cycloscheme._HOME[name]}")
        assert namespace[name] is getattr(home, name) is getattr(cycloscheme, name)


def test_an_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'build_towers'"):
        cycloscheme.build_towers
