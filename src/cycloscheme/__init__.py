"""Exact verification engine for three fused cyclotomic 3-class
association schemes on binary fields of degrees 3s, 6s and 9s."""

from .binfield import (BinaryField, FieldError, FieldTower, InternalCheckError,
                       NonPrimitiveModulusError, ReducibleModulusError,
                       build_field, build_tower)
from .charsum import gauss_periods
from .cycpart import CyclotomicPartition, get_partition
from .paperbook import appendix_matrix, reconcile, table_row
from .reporting import CheckResult, Report
from .schemecore import (FusionPattern, SchemeError, SchemeRecord,
                         bannai_muzychuk_verify, build_dual_scheme, build_scheme,
                         im10_construct, two_class_scheme)
from .zmring import GroupRingError

__version__ = "0.1.0"

__all__ = [
    "BinaryField", "FieldTower", "FieldError", "InternalCheckError",
    "NonPrimitiveModulusError", "ReducibleModulusError", "build_field",
    "build_tower", "gauss_periods", "CyclotomicPartition", "get_partition",
    "appendix_matrix", "reconcile", "table_row",
    "CheckResult", "Report", "FusionPattern", "SchemeError", "SchemeRecord",
    "bannai_muzychuk_verify", "build_dual_scheme", "build_scheme",
    "im10_construct", "two_class_scheme",
    "GroupRingError",
]
