"""The package's public names and its dependencies."""

from importlib import import_module
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    import tomli as tomllib

import cycloscheme

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves():
    assert all(hasattr(cycloscheme, name) for name in cycloscheme.__all__)
    assert len(set(cycloscheme.__all__)) == len(cycloscheme.__all__)


def test_each_export_is_named_by_the_module_that_defines_it():
    for module, names in cycloscheme._HOMES.items():
        home = import_module(f"cycloscheme.{module}")
        for name in names:
            assert getattr(home, name).__module__ == home.__name__, name


def test_test_oracles_are_not_exported():
    # the group-ring element type, Phi_M and the per-character Gauss sum are
    # test references (tests/ring_oracle.py, tests/gauss_ring_oracle.py)
    for name in ("GroupRingElement", "cyclotomic_polynomial", "gauss_sum"):
        assert name not in cycloscheme.__all__
        assert not hasattr(cycloscheme, name)


def test_runtime_dependencies_are_empty():
    # numpy is a test dependency only: it is the reference for the kernels
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


def test_no_module_of_the_package_names_numpy():
    sources = sorted(Path(cycloscheme.__file__).parent.rglob("*.py"))
    assert sources
    for path in sources:
        assert "numpy" not in path.read_text(), path.name


def test_the_readme_library_example_runs(capsys):
    # the public example at s = 2, so that it cannot drift from the API
    readme = (ROOT / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
