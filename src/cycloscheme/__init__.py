"""Exact verification engine for three fused cyclotomic 3-class
association schemes on binary fields of degrees 3s, 6s and 9s.

The public names load on first use (PEP 562): ``import cycloscheme`` reads
no submodule, and ``cycloscheme.build_tower`` reads only ``binfield``."""

from importlib import import_module

__version__ = "0.1.0"

# each public name and the submodule it lives in
_HOMES = {
    "binfield": ("BinaryField", "FieldTower", "FieldError", "InternalCheckError",
                 "NonPrimitiveModulusError", "ReducibleModulusError", "build_field",
                 "build_tower"),
    "charsum": ("gauss_periods",),
    "cycpart": ("FusionPattern", "SchemeError", "get_partition"),
    "paperbook": ("appendix_matrix", "reconcile", "table_row"),
    "reporting": ("CheckResult", "Report"),
    "schemecore": ("SchemeRecord", "bannai_muzychuk_verify", "build_dual_scheme", "build_scheme",
                   "im10_construct", "two_class_scheme"),
    "zmring": ("GroupRingError",),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value
