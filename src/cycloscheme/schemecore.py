"""Fusion-scheme verification, eigenmatrices, intersection numbers, duals.

Scheme-ness is decided by the row-census form of the Bannai-Muzychuk
criterion: a fusion of the order-M cyclotomic classes is a 3-class
translation scheme exactly when the fused character-value rows take 3
distinct nonprincipal values.  Everything downstream (P, Q, intersection
numbers) is exact integer arithmetic on 4x4 matrices; adjacency matrices
are never materialized.  Every census column is one product in Z[Z_M]:
the periods times the inverted block indicator, with M = |K*| and
psi(g^k) the periods of an element fusion.
"""

from functools import cache
from typing import NamedTuple

from .binfield import BinaryField, FieldTower, InternalCheckError
from .charsum import gauss_periods
from .cycpart import FusionPattern, SchemeError, d_class_check, get_partition
from .reporting import Report
from .zmring import _cyclic_product, _indicator, _inverse

# element fusions are verified element by element: K = GF(2^d), d at most this
ELEMENT_DEGREE_LIMIT = 12
_JSON_INT_LIMIT = 1 << 53

# scheme id -> (field, id of the dual scheme), in the order of the paper's
# tables I-V; the H-scheme is self-dual
SCHEMES = {"thm1": ("F", "dual1"), "dual1": ("F", "thm1"),
           "thm2i": ("G", "dual2i"), "dual2i": ("G", "thm2i"),
           "thm2ii": ("H", "thm2ii")}
# the fusions T1, T2, T3 of Theorems 1 and 2; the duals need their pattern
THEOREMS = tuple(sid for sid in SCHEMES if sid.startswith("thm"))
# theorem id -> (sign of T1 in the published dual's first block, how the
# dual's blocks read); the self-dual thm2ii's dual blocks are T1, T2, T3
_DUAL_BLOCKS = {"thm1": (-1, "{0}, -T1, the rest"),
                "thm2i": (1, "{0}, T1, (T2 u T3) \\ {0}")}


class SchemeRecord(NamedTuple):
    """One verified (or refuted) fusion, built whole by ``_assemble``; the
    spectral fields stay empty when the census refutes the fusion."""

    scheme_id: str
    field_label: str
    s: int
    M: int
    size: int
    d: int
    is_scheme: bool
    pattern_sets: tuple  # the pattern's sorted exponent tuples
    domain: str  # "index" or "element"
    names: range | list  # name of exponent k: k in Z_M, or g^k in K*
    row_census: dict  # row -> exponents giving it, ascending
    flags: dict
    degrees: list = ()  # (1, n_1, ..., n_d)
    multiplicities: list = ()
    P: list = ()
    Q: list = ()
    dual_sets: tuple = ()  # sorted exponent tuples, matching P rows 1..d
    B: list = ()

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
            "dual_blocks": [sorted(self.names[k] for k in g) for g in self.dual_sets],
            "domain": self.domain,
            "flags": dict(self.flags),
        }


def _jint(n: int):
    return n if abs(n) <= _JSON_INT_LIMIT else str(n)


# ---------------------------------------------------------------------------
# exact small-matrix helpers
# ---------------------------------------------------------------------------

def _mat_mul(a: list, b: list) -> list:
    n = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# the Bannai-Muzychuk census
# ---------------------------------------------------------------------------

def _census(columns) -> dict:
    """Rows (1, entry a of every column) for every a, grouped as
    row -> list of the a giving it."""
    census: dict = {}
    for a, row in enumerate(zip(*columns)):
        census.setdefault((1,) + row, []).append(a)
    return census


@cache
def _psi_row(K: BinaryField) -> tuple[int, ...]:
    """psi(g^k) = 1 - 2 Tr(g^k) for every k, from ``K.trace_string``: the
    element census's periods, those of the classes {g^k} of M = |K*|.
    Refused past degree ``ELEMENT_DEGREE_LIMIT`` (4,096 elements) before
    anything is enumerated; psi sums to -1 over K*."""
    if K.degree > ELEMENT_DEGREE_LIMIT:
        raise SchemeError("element-level verification limited to small fields")
    row = tuple(1 - 2 * int(t) for t in K.trace_string)
    if sum(row) != -1:
        raise InternalCheckError("psi over K* does not sum to -1")
    return row


def _divide_rows(num: list, dens: list, name: str) -> list:
    """Row k of ``num`` divided by dens[k], every division exact."""
    for k, (row, den) in enumerate(zip(num, dens)):
        for j, v in enumerate(row):
            if v % den:
                raise InternalCheckError(f"{name}[{k}][{j}] = {v}/{den} is not an integer")
    return [[v // den for v in row] for row, den in zip(num, dens)]


def second_eigenmatrix(P: list, multiplicities: list, size: int) -> list:
    """Q = |X| * P^(-1) by orthogonality: with n_i = P[0][i] and the dual
    multiplicities m_l, Q[i][l] = m_l P[l][i] / n_i, each division exact.
    P*Q = |X|*I is rechecked; its diagonal, m_l sum_i P[l][i]^2 / n_i = |X|,
    is the norm relation that fixes every m_l, so a wrong one is refused."""
    n = len(P)
    Q = _divide_rows([[m * v for m, v in zip(multiplicities, column)] for column in zip(*P)],
                     P[0], "Q")
    if _mat_mul(P, Q) != [[size if i == j else 0 for j in range(n)] for i in range(n)]:
        raise InternalCheckError("P*Q != |X|*I")
    return Q


def intersection_numbers(P: list, Q: list, size: int) -> list:
    """B_i with entry (k, j) = p_{ij}^k, the Bose-Mesner product
    Q diag(P e_i) P / |X|: A_i A_j = sum_l P_{li} P_{lj} E_l and
    E_l = sum_k Q_{kl} A_k / |X|.  Each division must be exact."""
    return [_divide_rows(_mat_mul(Q, [[row[i] * v for v in row] for row in P]),
                         [size] * len(P), f"B{i}") for i in range(len(P))]


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def _order(sets: tuple, groups) -> list | None:
    """[0], then 1 + the position in ``sets`` of each of ``groups`` (the
    class standing for each group); None when a group is not in ``sets``."""
    try:
        return [0] + [1 + sets.index(g) for g in groups]
    except ValueError:
        return None


def _flags(P: list, Q: list, pattern_sets: tuple, dual_sets: tuple) -> dict:
    """Primitivity, self-duality (under the psi(b.)-pairing identification
    of classes with dual classes), and per-relation strong regularity."""
    d = len(P) - 1
    degrees = P[0]
    is_primitive = all(P[l][i] != degrees[i]
                       for l in range(1, d + 1) for i in range(1, d + 1))
    srg = [len({P[l][i] for l in range(1, d + 1)}) == 2 for i in range(1, d + 1)]

    # dual class perm[k] is class k as a set: compare the relabelled P, Q.
    # Then (P_m)^2 = |X| I follows from P Q = |X| I, checked with Q.
    perm = _order(dual_sets, pattern_sets)
    is_self_dual = perm is not None and \
        [P[r] for r in perm] == [[row[c] for c in perm] for row in Q]
    return {
        "is_scheme": True,
        "is_primitive": is_primitive,
        "is_self_dual": is_self_dual,
        "srg_relations": srg,
    }


# ---------------------------------------------------------------------------
# record assembly
# ---------------------------------------------------------------------------

def _assemble(tower: FieldTower, scheme_id: str, field_label: str,
              pattern: FusionPattern, domain: str) -> SchemeRecord:
    """Census, P, Q, multiplicities, B and flags of one fusion.

    An index fusion fuses the order-M cyclotomic classes, and the census
    column of block b is eta * (1_b)^-1 in Z[Z_M], eta the Gauss periods.
    An element fusion is the same census with every element of K* its own
    class: M = |K*|, exponent k standing for g^k, and eta = ``_psi_row``.
    Blocks, census groups and dual classes stay exponents; only the
    catalog reads their ``names``.
    The fusion is a d-class scheme iff exactly d distinct rows occur, none
    equal to the degree row."""
    K = tower.field(field_label)
    eta = gauss_periods(tower, field_label) if domain == "index" else _psi_row(K)
    census = _census([_cyclic_product(eta, _inverse(_indicator(b, pattern.M)))
                      for b in pattern.blocks])
    per_class = K.order // pattern.M
    degrees = [1] + [len(b) * per_class for b in pattern.blocks]
    d = len(pattern.blocks)
    is_scheme = len(census) == d and tuple(degrees) not in census
    spectrum = {"flags": {"is_scheme": False}}
    if is_scheme:
        items = sorted(census.items(), key=lambda kv: (len(kv[1]), kv[0]))
        P = [degrees] + [list(row) for row, _ in items]
        multiplicities = [1] + [len(g) * per_class for _, g in items]
        Q = second_eigenmatrix(P, multiplicities, K.size)
        dual_sets = tuple(tuple(g) for _, g in items)
        spectrum = {
            "degrees": degrees, "multiplicities": multiplicities, "P": P, "Q": Q,
            "dual_sets": dual_sets,
            "B": intersection_numbers(P, Q, K.size),
            "flags": _flags(P, Q, pattern.blocks, dual_sets),
        }
    return SchemeRecord(
        scheme_id=scheme_id, field_label=field_label, s=tower.s, M=tower.M,
        size=K.size, d=d, is_scheme=is_scheme, pattern_sets=pattern.blocks,
        domain=domain, names=range(pattern.M) if domain == "index" else K.powers,
        row_census=census, **spectrum)


def bannai_muzychuk_verify(tower: FieldTower, field_label: str,
                           pattern: FusionPattern) -> SchemeRecord:
    """Group a in Z_M by character row and assemble the record of this
    index fusion."""
    return _assemble(tower, "fusion", field_label, pattern, "index")


def _scheme(scheme_id: str) -> tuple[str, str]:
    try:
        return SCHEMES[scheme_id]
    except KeyError:
        raise SchemeError(f"unknown scheme id {scheme_id!r}") from None


def scheme_id_field(scheme_id: str) -> str:
    return _scheme(scheme_id)[0]


@cache
def build_scheme(tower: FieldTower, scheme_id: str,
                 pattern: FusionPattern | None = None) -> SchemeRecord:
    """The record of a scheme of ``SCHEMES`` on its field, built once per
    tower and pattern.  The three theorem fusions default to T1, T2, T3;
    a dual needs its pattern (see ``build_dual_scheme``)."""
    label = scheme_id_field(scheme_id)
    if pattern is None:
        if scheme_id not in THEOREMS:
            raise SchemeError(f"scheme id {scheme_id!r} needs an explicit pattern")
        pattern = get_partition(tower)
    return _assemble(tower, scheme_id, label, pattern, "index")


def build_dual_scheme(tower: FieldTower, primal: SchemeRecord) -> SchemeRecord:
    """Run the pipeline on the dual index partition of a verified
    index-fusion scheme (the D-classes), under the dual's scheme id."""
    if not primal.is_scheme or primal.domain != "index":
        raise SchemeError("dual requires a verified index-fusion scheme")
    pattern = FusionPattern(primal.M, primal.dual_sets)
    return build_scheme(tower, _scheme(primal.scheme_id)[1], pattern)


def build_element_scheme(tower: FieldTower, field_label: str, blocks,
                         scheme_id: str) -> SchemeRecord:
    """Verify a partition of X* (plus {0}) into the sets {g^k : k in b} as a
    translation scheme, with dual classes read off from the census under
    the pairing b -> psi(b.); the blocks b must partition Z_|K*|."""
    K = tower.field(field_label)
    _psi_row(K)  # the size limit refuses before the blocks are read
    return _assemble(tower, scheme_id, field_label, FusionPattern(K.order, blocks), "element")


# ---------------------------------------------------------------------------
# element-level schemes (for the generic two-class refinement)
# ---------------------------------------------------------------------------

def two_class_scheme(tower: FieldTower) -> SchemeRecord:
    """The two-class translation scheme on F from the trace-zero hyperplane:
    R_1, R_2 = the g^k of trace 0, 1 (a strongly regular Cayley graph)."""
    psi = _psi_row(tower.F)
    blocks = [[k for k, v in enumerate(psi) if v == sign] for sign in (1, -1)]
    return build_element_scheme(tower, "F", blocks, "trace2")


def im10_construct(tower: FieldTower, two_class: SchemeRecord | None = None) -> SchemeRecord:
    """Three-class refinement of a two-class scheme: with dual classes
    (D_1, D_2) and R_1 contained in D_1, take ({0}, R_1, D_1 \\ R_1, D_2)."""
    if two_class is None:
        two_class = two_class_scheme(tower)
    if not (two_class.is_scheme and two_class.d == 2 and two_class.domain == "element"):
        raise SchemeError("input must be a verified element-level 2-class scheme")
    # the construction assumes R_1 lies inside a dual class; which block is
    # labelled R_1 is a free choice, so take whichever one satisfies it
    R1, D1 = next(((R, D) for R in two_class.pattern_sets for D in two_class.dual_sets
                   if set(R).issubset(D)), (None, None))
    if D1 is None:
        raise SchemeError("neither class is contained in a dual class")
    D2 = next(g for g in two_class.dual_sets if g != D1)
    record = build_element_scheme(tower, two_class.field_label,
                                  (R1, set(D1).difference(R1), D2), "im10")
    if not record.is_scheme:
        raise InternalCheckError("two-class refinement failed to verify as a scheme")
    return record


# ---------------------------------------------------------------------------
# dual-structure checks
# ---------------------------------------------------------------------------

def expected_dual_groups(tower: FieldTower, scheme_id: str) -> list:
    """The residue groups of the published dual classes, in the order of
    the dual table's rows: {0}, -T1, the rest (thm1); {0}, T1, the rest
    (thm2i); T1, T2, T3 (the self-dual thm2ii)."""
    blocks = get_partition(tower).blocks
    if scheme_id == "thm2ii":
        return list(blocks)
    first = {_DUAL_BLOCKS[scheme_id][0] * i % tower.M for i in blocks[0]}
    return [(0,), tuple(sorted(first)), tuple(sorted(set(range(1, tower.M)) - first))]


def dual_scheme_tables_check(tower: FieldTower, which: str) -> Report:
    """Structural checks on the dual of the F-scheme (which='thm1') or the
    G-scheme (which='thm2i'): the dual index blocks, the D = inverse-trace-zero
    set coincidence, and (thm1) imprimitivity via the zero block closing up
    to a subfield."""
    if which not in _DUAL_BLOCKS:
        raise SchemeError("which must be 'thm1' or 'thm2i'")
    record = build_scheme(tower, which)
    report = Report(f"dual structure of {which} (s={tower.s})")
    report.add("primal fusion is a 3-class scheme", record.is_scheme)
    if not record.is_scheme:
        return report
    groups = set(record.dual_sets)
    report.add(f"dual index blocks are {_DUAL_BLOCKS[which][1]}",
               groups == set(expected_dual_groups(tower, which)),
               f"found {sorted(map(sorted, groups))}")
    if which == "thm1":
        report.add("dual class on -T1 equals the inverse-trace-zero set D",
                   d_class_check(tower).passed)
        # D_0 u D_1 closes under addition, i.e. the dual is imprimitive:
        # C_0 u {0} is the degree-s subfield, which holds 1 and is fixed by
        # u -> u^q (every other class omega^r C_0 u {0} is closed as well)
        c0 = {tower.F.pow(tower.omega, tower.M * t) for t in range((1 << tower.s) - 1)} | {0}
        closed = all((a ^ b) in c0 for a in c0 for b in c0)
        fixed = 1 in c0 and all(tower.F.pow(u, 1 << tower.s) == u for u in c0)
        report.add("zero-indexed dual block plus 0 is additively closed "
                   f"of size 2^{tower.s}", closed and fixed and len(c0) == 1 << tower.s)
    dual = build_dual_scheme(tower, record)
    report.add("dual fusion is itself a 3-class scheme", dual.is_scheme)
    return report
