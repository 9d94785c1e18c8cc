"""The verified schemes must not depend on the choice of primitive moduli."""

import io
import json
import tempfile
from functools import cache
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cycloscheme.binfield import FieldError, build_field
from cycloscheme.cli import RunConfig, run

INVARIANTS = ("degrees", "multiplicities", "P", "Q", "B", "flags")


@st.composite
def primitive_moduli(draw, degree):
    """A random primitive modulus of this degree: candidates with a constant
    term are drawn until ``build_field`` accepts one."""
    for _ in range(64):
        modulus = 1 << degree | draw(st.integers(0, (1 << (degree - 1)) - 1)) << 1 | 1
        try:
            build_field(degree, modulus)
        except FieldError:
            continue
        return modulus
    assume(False)


def scheme_invariants(config):
    """Every check must pass; returns each scheme's invariants by id."""
    with tempfile.TemporaryDirectory() as tmp:
        config = config._replace(json_path=str(Path(tmp) / "catalog.json"))
        assert run(config, out=io.StringIO()) == 0
        schemes = json.loads(Path(config.json_path).read_text())["schemes"]
    return {rec["scheme"]: {key: rec[key] for key in INVARIANTS} for rec in schemes}


@cache
def default_invariants(s):
    return scheme_invariants(RunConfig(s=s))


@pytest.mark.parametrize("s", [1, 2])
@settings(deadline=None, max_examples=4)
@given(data=st.data())
def test_schemes_do_not_depend_on_the_moduli(s, data):
    poly_f, poly_g, poly_h = (data.draw(primitive_moduli(n * s), label=label)
                              for n, label in ((3, "F"), (6, "G"), (9, "H")))
    config = RunConfig(s=s, poly_f=poly_f, poly_g=poly_g, poly_h=poly_h)
    assert scheme_invariants(config) == default_invariants(s)
