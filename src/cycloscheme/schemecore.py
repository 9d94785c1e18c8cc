"""Fusion-scheme verification, eigenmatrices, intersection numbers, duals.

Scheme-ness is decided by the row-census form of the Bannai-Muzychuk
criterion: a fusion of the order-M cyclotomic classes is a 3-class
translation scheme exactly when the fused character-value rows take 3
distinct nonprincipal values.  Everything downstream (P, Q, intersection
numbers) is exact integer/rational arithmetic on 4x4 matrices; adjacency
matrices are never materialized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .binfield import BinaryField, FieldTower, InternalCheckError
from .charsum import gauss_periods, period_array
from .cycpart import compute_D, cyclic_sums, get_partition
from .reporting import Report

_ORACLE_SIZE_LIMIT = 1 << 12
_JSON_INT_LIMIT = 1 << 53


class SchemeError(ValueError):
    """Invalid fusion pattern or violated scheme precondition."""


@dataclass(frozen=True)
class FusionPattern:
    """Disjoint index sets covering Z_M; block k fuses the classes C_i, i in block k."""

    M: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        seen = [i for b in blocks for i in b]
        if sorted(seen) != list(range(self.M)):
            raise SchemeError("blocks do not partition Z_M")

    @classmethod
    def from_partition(cls, part) -> "FusionPattern":
        return cls(part.M, (part.T1, part.T2, part.T3))


@dataclass
class SchemeRecord:
    scheme_id: str
    field_label: str
    s: int
    M: int
    size: int
    d: int
    is_scheme: bool
    degrees: list  # (1, n_1, ..., n_d)
    multiplicities: list
    P: list
    Q: list
    pattern_sets: tuple  # frozensets; indices in Z_M or field elements
    dual_sets: tuple  # canonical order, matching P rows 1..d
    domain: str  # "index" or "element"
    B: list = field(default_factory=list)
    flags: dict = field(default_factory=dict)
    row_census: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "scheme": self.scheme_id,
            "s": self.s,
            "q": 1 << self.s,
            "M": self.M,
            "field": self.field_label,
            "size": _jint(self.size),
            "is_scheme": self.is_scheme,
            "degrees": [_jint(n) for n in self.degrees],
            "multiplicities": [_jint(m) for m in self.multiplicities],
            "P": [[_jint(v) for v in row] for row in self.P],
            "Q": [[_jint(v) for v in row] for row in self.Q],
            "B": [[[_jint(v) for v in row] for row in b] for b in self.B],
            "dual_blocks": [sorted(g) for g in self.dual_sets],
            "domain": self.domain,
            "flags": dict(self.flags),
        }


def _jint(n: int):
    return n if abs(n) <= _JSON_INT_LIMIT else str(n)


# ---------------------------------------------------------------------------
# exact small-matrix helpers
# ---------------------------------------------------------------------------

def _inverse_times(mat: list, scalar: int) -> list:
    """scalar * mat^(-1) as an integer matrix; raises if any entry is not
    an integer (which would flag a misidentified scheme)."""
    n = len(mat)
    work = [[Fraction(mat[i][j]) for j in range(n)] +
            [Fraction(scalar if i == j else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col]), None)
        if piv is None:
            raise InternalCheckError("singular eigenmatrix")
        work[col], work[piv] = work[piv], work[col]
        inv = 1 / work[col][col]
        work[col] = [v * inv for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                f = work[r][col]
                work[r] = [v - f * w for v, w in zip(work[r], work[col])]
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            v = work[i][n + j]
            if v.denominator != 1:
                raise InternalCheckError(f"non-integral entry at ({i},{j}): {v}")
            row.append(int(v))
        out.append(row)
    return out


def _mat_mul(a: list, b: list) -> list:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# character rows and the Bannai-Muzychuk census
# ---------------------------------------------------------------------------

def character_row(tower: FieldTower, field_label: str, pattern: FusionPattern,
                  a: int | None) -> tuple[int, ...]:
    """Row (1, psi(g^a R_1), ..., psi(g^a R_d)) of fused character sums;
    a = None stands for the zero element and yields the degree row."""
    K = tower.field(field_label)
    M = pattern.M
    if a is None:
        per_class = K.order // M
        return (1,) + tuple(len(b) * per_class for b in pattern.blocks)
    eta = gauss_periods(tower, field_label)
    return (1,) + tuple(sum(eta[(a + i) % M] for i in b) for b in pattern.blocks)


@dataclass
class BMResult:
    is_scheme: bool
    dual_groups: tuple  # canonical order: by (multiplicity, row)
    P: list
    census: dict  # row -> sorted list of residues
    degree_row: tuple


def bannai_muzychuk_verify(tower: FieldTower, field_label: str,
                           pattern: FusionPattern) -> BMResult:
    """Group a in Z_M by character row; the fusion is a d-class scheme iff
    exactly d distinct rows occur, none equal to the degree row."""
    M = pattern.M
    d = len(pattern.blocks)
    census: dict = {}
    columns = cyclic_sums(period_array(tower, field_label), pattern.blocks)
    for a, row in enumerate(zip(*columns)):
        census.setdefault((1,) + row, []).append(a)
    degree_row = character_row(tower, field_label, pattern, None)
    is_scheme = len(census) == d and degree_row not in census
    if not is_scheme:
        return BMResult(False, (), [], census, degree_row)
    per_class = tower.field(field_label).order // M
    items = sorted(census.items(), key=lambda kv: (len(kv[1]) * per_class, kv[0]))
    P = [list(degree_row)] + [list(row) for row, _ in items]
    groups = tuple(frozenset(g) for _, g in items)
    return BMResult(True, groups, P, census, degree_row)


def second_eigenmatrix(P: list, size: int) -> list:
    """Q = |X| * P^(-1), exact; P*Q = |X|*I is rechecked."""
    Q = _inverse_times(P, size)
    prod = _mat_mul(P, Q)
    n = len(P)
    if prod != [[size if i == j else 0 for j in range(n)] for i in range(n)]:
        raise InternalCheckError("P*Q != |X|*I")
    return Q


def intersection_numbers(degrees: list, multiplicities: list, P: list,
                         size: int) -> list:
    """B_i with entry (k, j) = p_{ij}^k, via
    p_{ij}^k = (sum_l m_l P_{li} P_{lj} P_{lk}) / (|X| n_k); the division
    must be exact."""
    n = len(P)
    B = []
    for i in range(n):
        Bi = [[0] * n for _ in range(n)]
        for j in range(n):
            for k in range(n):
                num = sum(multiplicities[l] * P[l][i] * P[l][j] * P[l][k]
                          for l in range(n))
                den = size * degrees[k]
                if num % den:
                    raise InternalCheckError(
                        f"p_({i},{j})^{k} = {num}/{den} is not an integer")
                Bi[k][j] = num // den
        B.append(Bi)
    return B


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def classify(record: SchemeRecord) -> dict:
    """Primitivity, self-duality (under the psi(b.)-pairing identification
    of classes with dual classes), and per-relation strong regularity."""
    d = record.d
    P, Q = record.P, record.Q
    degrees = record.degrees
    is_primitive = all(P[l][i] != degrees[i]
                       for l in range(1, d + 1) for i in range(1, d + 1))
    srg = [len({P[l][i] for l in range(1, d + 1)}) == 2 for i in range(1, d + 1)]

    is_self_dual = False
    if set(record.pattern_sets) == set(record.dual_sets):
        # permute dual labels so dual class k is the one equal (as a set)
        # to class k, then compare the relabeled P with Q
        perm = [0] + [1 + record.dual_sets.index(ps) for ps in record.pattern_sets]
        n = d + 1
        P_m = [[P[perm[r]][c] for c in range(n)] for r in range(n)]
        Q_m = [[Q[r][perm[c]] for c in range(n)] for r in range(n)]
        if P_m == Q_m:
            is_self_dual = True
            square = _mat_mul(P_m, P_m)
            ident = [[record.size if i == j else 0 for j in range(n)] for i in range(n)]
            if square != ident:
                raise InternalCheckError("self-dual scheme with P^2 != |X|*I")
    return {
        "is_scheme": record.is_scheme,
        "is_primitive": is_primitive,
        "is_self_dual": is_self_dual,
        "srg_relations": srg,
    }


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

_SCHEME_FIELDS = {"thm1": "F", "thm2i": "G", "thm2ii": "H"}


def _index_sets(pattern: FusionPattern) -> tuple:
    return tuple(frozenset(b) for b in pattern.blocks)


def build_scheme(tower: FieldTower, scheme_id: str,
                 pattern: FusionPattern | None = None) -> SchemeRecord:
    """Full pipeline for one of the three index-fusion schemes (or any
    explicit fusion pattern on any tower field)."""
    if scheme_id in _SCHEME_FIELDS:
        label = _SCHEME_FIELDS[scheme_id]
        if pattern is None:
            pattern = FusionPattern.from_partition(get_partition(tower))
    elif pattern is None:
        raise SchemeError(f"unknown scheme id {scheme_id!r} needs an explicit pattern")
    else:
        label = scheme_id_field(scheme_id)
    K = tower.field(label)
    bm = bannai_muzychuk_verify(tower, label, pattern)
    d = len(pattern.blocks)
    record = SchemeRecord(
        scheme_id=scheme_id, field_label=label, s=tower.s, M=tower.M,
        size=K.size, d=d, is_scheme=bm.is_scheme,
        degrees=list(bm.degree_row) if bm.is_scheme else [],
        multiplicities=[], P=bm.P, Q=[],
        pattern_sets=_index_sets(pattern), dual_sets=bm.dual_groups,
        domain="index",
        row_census={row: sorted(g) for row, g in bm.census.items()},
    )
    if not bm.is_scheme:
        record.flags = {"is_scheme": False}
        return record
    per_class = K.order // pattern.M
    record.Q = second_eigenmatrix(bm.P, K.size)
    record.multiplicities = [1] + [len(g) * per_class for g in bm.dual_groups]
    if record.Q[0] != record.multiplicities:
        raise InternalCheckError("Q row 0 disagrees with dual-class multiplicities")
    record.B = intersection_numbers(record.degrees, record.multiplicities,
                                    record.P, record.size)
    record.flags = classify(record)
    return record


def scheme_id_field(scheme_id: str) -> str:
    if scheme_id in _SCHEME_FIELDS:
        return _SCHEME_FIELDS[scheme_id]
    if scheme_id in ("dual1", "dual2i"):
        return {"dual1": "F", "dual2i": "G"}[scheme_id]
    raise SchemeError(f"unknown scheme id {scheme_id!r}")


def build_dual_scheme(tower: FieldTower, primal: SchemeRecord) -> SchemeRecord:
    """Run the pipeline on the dual index partition of a verified
    index-fusion scheme (the D-classes)."""
    if not primal.is_scheme or primal.domain != "index":
        raise SchemeError("dual requires a verified index-fusion scheme")
    pattern = FusionPattern(primal.M, tuple(tuple(sorted(g)) for g in primal.dual_sets))
    dual_id = {"thm1": "dual1", "thm2i": "dual2i", "thm2ii": "thm2ii"}.get(
        primal.scheme_id, primal.scheme_id + "-dual")
    record = build_scheme(tower, primal.scheme_id, pattern)
    record.scheme_id = dual_id
    return record


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def class_elements(tower: FieldTower, field_label: str,
                   pattern: FusionPattern) -> list:
    """Elements of each fused class (class 0 = {0}), by one streaming pass."""
    K = tower.field(field_label)
    step = tower.class_step(field_label)
    block_of = {}
    for b_idx, b in enumerate(pattern.blocks):
        for i in b:
            block_of[i] = b_idx
    out = [[0]] + [[] for _ in pattern.blocks]
    for k, u in enumerate(K.powers):
        out[1 + block_of[k * step % pattern.M]].append(u)
    return out


def brute_force_intersection_oracle(tower: FieldTower, field_label: str,
                                    pattern: FusionPattern):
    """p_{ij}^k by direct pair counting over the whole field: for every z,
    count pairs x in R_i, y in R_j with x + y = z, and certify the count is
    constant on each class.  Returns (B, report)."""
    K = tower.field(field_label)
    if K.size > _ORACLE_SIZE_LIMIT:
        raise SchemeError(f"oracle limited to fields of size <= {_ORACLE_SIZE_LIMIT}")
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


# ---------------------------------------------------------------------------
# element-level schemes (for the generic two-class refinement)
# ---------------------------------------------------------------------------

def _element_census(K: BinaryField, sets) -> dict:
    """Character rows (1, sum psi(b x) over x in each set) for all b != 0,
    grouped as row -> frozenset of b."""
    powers = K.powers
    dlog = {u: e for e, u in enumerate(powers)}
    psi_pow = np.array([K.psi(u) for u in powers], dtype=np.int64)
    # entry e of a row sums psi(g^(e + dlog x)) over x in a set
    columns = cyclic_sums(psi_pow, [[dlog[x] for x in S] for S in sets])
    census: dict = {}
    for e, row in enumerate(zip(*columns)):
        census.setdefault((1,) + row, set()).add(powers[e])
    return {row: frozenset(g) for row, g in census.items()}


def build_element_scheme(tower: FieldTower, field_label: str, sets,
                         scheme_id: str) -> SchemeRecord:
    """Verify a partition of X* given by explicit element sets (plus {0})
    as a translation scheme, with dual classes read off from the census
    under the pairing b -> psi(b.)."""
    K = tower.field(field_label)
    if K.size > _ORACLE_SIZE_LIMIT:
        raise SchemeError("element-level verification limited to small fields")
    sets = tuple(frozenset(S) for S in sets)
    covered = set().union(*sets)
    if 0 in covered or len(covered) != K.order or sum(len(S) for S in sets) != K.order:
        raise SchemeError("sets must partition the nonzero field elements")
    d = len(sets)
    census = _element_census(K, sets)
    degree_row = (1,) + tuple(len(S) for S in sets)
    is_scheme = len(census) == d and degree_row not in census
    record = SchemeRecord(
        scheme_id=scheme_id, field_label=field_label, s=tower.s, M=tower.M,
        size=K.size, d=d, is_scheme=is_scheme,
        degrees=list(degree_row) if is_scheme else [],
        multiplicities=[], P=[], Q=[],
        pattern_sets=sets, dual_sets=(), domain="element",
        row_census={row: sorted(g) for row, g in census.items()},
    )
    if not is_scheme:
        record.flags = {"is_scheme": False}
        return record
    items = sorted(census.items(), key=lambda kv: (len(kv[1]), kv[0]))
    record.P = [list(degree_row)] + [list(row) for row, _ in items]
    record.dual_sets = tuple(g for _, g in items)
    record.Q = second_eigenmatrix(record.P, K.size)
    record.multiplicities = [1] + [len(g) for g in record.dual_sets]
    if record.Q[0] != record.multiplicities:
        raise InternalCheckError("Q row 0 disagrees with dual-class sizes")
    record.B = intersection_numbers(record.degrees, record.multiplicities,
                                    record.P, record.size)
    record.flags = classify(record)
    return record


def two_class_scheme(tower: FieldTower, field_label: str = "F") -> SchemeRecord:
    """The two-class translation scheme from the trace-zero hyperplane:
    R_1 = ker(tr) \\ {0}, R_2 = the rest (a strongly regular Cayley graph)."""
    K = tower.field(field_label)
    R1 = frozenset(u for u in range(1, K.size) if not ((u & K.trace_mask).bit_count() & 1))
    R2 = frozenset(range(1, K.size)) - R1
    return build_element_scheme(tower, field_label, (R1, R2), "trace2")


def im10_construct(tower: FieldTower, two_class: SchemeRecord | None = None) -> SchemeRecord:
    """Three-class refinement of a two-class scheme: with dual classes
    (D_1, D_2) and R_1 contained in D_1, take ({0}, R_1, D_1 \\ R_1, D_2)."""
    if two_class is None:
        two_class = two_class_scheme(tower)
    if not (two_class.is_scheme and two_class.d == 2 and two_class.domain == "element"):
        raise SchemeError("input must be a verified element-level 2-class scheme")
    # the construction assumes R_1 lies inside a dual class; which block is
    # labelled R_1 is a free choice, so take whichever one satisfies it
    R1 = D1 = None
    for cand in two_class.pattern_sets:
        D1 = next((g for g in two_class.dual_sets if cand <= g), None)
        if D1 is not None:
            R1 = cand
            break
    if D1 is None:
        raise SchemeError("neither class is contained in a dual class")
    D2 = next(g for g in two_class.dual_sets if g != D1)
    record = build_element_scheme(tower, two_class.field_label,
                                  (R1, D1 - R1, D2), "im10")
    if not record.is_scheme:
        raise InternalCheckError("two-class refinement failed to verify as a scheme")
    return record


# ---------------------------------------------------------------------------
# dual-structure checks
# ---------------------------------------------------------------------------

def _fused_elements(tower: FieldTower, field_label: str, indices) -> frozenset:
    """Union of the order-M cyclotomic classes named by ``indices``."""
    step = tower.class_step(field_label)
    want = set(indices)
    return frozenset(u for k, u in enumerate(tower.field(field_label).powers)
                     if k * step % tower.M in want)


def dual_scheme_tables_check(tower: FieldTower, which: str) -> Report:
    """Structural checks on the dual of the F-scheme (which='thm1') or the
    G-scheme (which='thm2i'): the dual index blocks, the D = inverse-trace-zero
    set coincidence, and (thm1) imprimitivity via the zero block closing up
    to a subfield."""
    if which not in ("thm1", "thm2i"):
        raise SchemeError("which must be 'thm1' or 'thm2i'")
    part = get_partition(tower)
    M = tower.M
    record = build_scheme(tower, which)
    report = Report(f"dual structure of {which} (s={tower.s})")
    report.add("primal fusion is a 3-class scheme", record.is_scheme)
    if not record.is_scheme:
        return report
    groups = set(record.dual_sets)
    T1 = frozenset(part.T1)
    if which == "thm1":
        minus_T1 = frozenset((-i) % M for i in part.T1)
        rest = frozenset(range(M)) - minus_T1 - {0}
        report.add("dual index blocks are {0}, -T1, the rest",
                   groups == {frozenset({0}), minus_T1, rest},
                   f"found {sorted(map(sorted, groups))}")
        D_set = compute_D(tower).members
        report.add("dual class on -T1 equals the inverse-trace-zero set D",
                   _fused_elements(tower, "F", minus_T1) == D_set)
        # D_0 u D_1 closes under addition, i.e. the dual is imprimitive
        # (C_0 u {0} is the degree-s subfield)
        c0 = _fused_elements(tower, "F", {0}) | {0}
        closed = all((a ^ b) in c0 for a in c0 for b in c0)
        report.add("zero-indexed dual block plus 0 is additively closed "
                   f"of size 2^{tower.s}", closed and len(c0) == 1 << tower.s)
    else:
        rest = frozenset(range(M)) - T1 - {0}
        report.add("dual index blocks are {0}, T1, (T2 u T3) \\ {0}",
                   groups == {frozenset({0}), T1, rest},
                   f"found {sorted(map(sorted, groups))}")
    dual = build_dual_scheme(tower, record)
    report.add("dual fusion is itself a 3-class scheme", dual.is_scheme)
    return report
