"""References for the scheme layer, kept to cross-check the package's
census and intersection numbers.

``character_row`` sums Gauss periods one row at a time, ``element_columns``
is the element census as the package computed it before the Walsh-Hadamard
transform (one product in Z[Z_|K*|] per set, ``np.convolve`` folded), and
``brute_force_intersection_oracle`` counts pairs over the whole field.
"""

import numpy as np

from cycloscheme.charsum import gauss_periods
from cycloscheme.reporting import Report
from cycloscheme.schemecore import SchemeError
from numpy_oracle import convolve_folded

# the cost bound of pair counting, which builds |R_i| x |R_j| arrays
_SIZE_LIMIT = 1 << 12


def character_row(tower, field_label, pattern, a):
    """Row (1, psi(g^a R_1), ..., psi(g^a R_d)) of fused character sums;
    a = None stands for the zero element and yields the degree row."""
    K = tower.field(field_label)
    M = pattern.M
    if a is None:
        per_class = K.order // M
        return (1,) + tuple(len(b) * per_class for b in pattern.blocks)
    eta = gauss_periods(tower, field_label)
    return (1,) + tuple(sum(eta[(a + i) % M] for i in b) for b in pattern.blocks)


def element_columns(K, sets):
    """Column S, entry a: sum over x in S of psi(g^a x), the coefficient at
    a of psi(g^k) * (1_S)^-1 in Z[Z_|K*|], 1_S the indicator of the
    discrete logs of S."""
    dlog = {u: e for e, u in enumerate(K.powers)}
    values = [1 - 2 * ((u & K.trace_mask).bit_count() & 1) for u in K.powers]
    columns = []
    for S in sets:
        indicator = [0] * K.order
        for x in S:
            indicator[dlog[x]] += 1
        columns.append(convolve_folded(values, indicator[:1] + indicator[:0:-1]))
    return columns


def class_elements(tower, field_label, pattern):
    """Elements of each fused class (class 0 = {0}), by one streaming pass."""
    K = tower.field(field_label)
    step = tower.class_step(field_label)
    block_of = {i: b_idx for b_idx, b in enumerate(pattern.blocks) for i in b}
    out = [[0]] + [[] for _ in pattern.blocks]
    for k, u in enumerate(K.powers):
        out[1 + block_of[k * step % pattern.M]].append(u)
    return out


def brute_force_intersection_oracle(tower, field_label, pattern):
    """p_{ij}^k by direct pair counting over the whole field: for every z,
    count pairs x in R_i, y in R_j with x + y = z, and certify the count is
    constant on each class.  Returns (B, report)."""
    K = tower.field(field_label)
    if K.size > _SIZE_LIMIT:
        raise SchemeError(f"oracle limited to fields of size <= {_SIZE_LIMIT}")
    elems = [np.array(sorted(c), dtype=np.int64)
             for c in class_elements(tower, field_label, pattern)]
    n = len(elems)
    report = Report(f"pair-count oracle over {field_label} (s={tower.s})")
    B = [[[0] * n for _ in range(n)] for _ in range(n)]
    constant = True
    detail = ""
    for i in range(n):
        for j in range(n):
            z = elems[i][:, None] ^ elems[j][None, :]
            counts = np.bincount(z.ravel(), minlength=K.size)
            for k in range(n):
                vals = counts[elems[k]]
                if not (vals == vals[0]).all():
                    constant = False
                    if not detail:
                        detail = f"count not constant on class {k} for (i,j)=({i},{j})"
                B[i][k][j] = int(vals[0])
    report.add("pair counts constant on every class", constant, detail)
    return B, report
