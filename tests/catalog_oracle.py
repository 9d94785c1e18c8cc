"""A catalog certificate checked from the JSON alone.

Reads a catalog written by ``cycloscheme --json`` with ``json`` and
``fractions`` only; nothing from the package is imported, so every
eigenmatrix, intersection array and flag is rechecked by arithmetic the
program does not share.  For a scheme with eigenmatrices P (rows the
eigenspaces, columns the relations) and Q, degrees n_i = P[0][i],
multiplicities m_l = Q[0][l] and |X| points:

- P Q = |X| I;
- P[l][i] P[l][j] = sum_k p_ij^k P[l][k], with B[i][k][j] = p_ij^k;
- the Krein parameters q_ij^k = (1/|X|) sum_l Q[l][i] Q[l][j] P[k][l]
  are nonnegative integers (Scott 1973);
- the absolute bound: sum of m_k over the k with q_ij^k != 0 is at most
  m_i m_j, or m_i (m_i + 1) / 2 when i = j (Brouwer, Cohen and Neumaier,
  *Distance-Regular Graphs*, 2.3);
- ``is_primitive``: every relation graph, read from B, is connected;
- ``is_self_dual``: P[pi(k)][j] = Q[k][pi(j)] for a permutation pi of the
  classes fixing 0.

Across records: these are translation schemes, so the Krein array of a
primal is the intersection array of its dual (thm1 -> dual1, thm2i ->
dual2i, in record order), and the self-dual thm2ii's intersection array is
its own Krein array under a class permutation.

Run as ``python tests/catalog_oracle.py CATALOG.json ...``: it prints each
failure and exits 1 when there is one.
"""

import json
import sys
from fractions import Fraction
from itertools import permutations

# primal -> its dual, whose B must be the primal's Krein array
DUALS = {"thm1": "dual1", "thm2i": "dual2i"}


def _ints(matrix):
    """Catalog integers beyond 2^53 are written as strings."""
    if isinstance(matrix, list):
        return [_ints(v) for v in matrix]
    return int(matrix)


def krein(P, Q, size):
    """K[i][k][j] = q_ij^k, in the layout of the catalog's B, as Fractions."""
    n = len(P)
    return [[[Fraction(sum(Q[l][i] * Q[l][j] * P[k][l] for l in range(n)), size)
              for j in range(n)] for k in range(n)] for i in range(n)]


def _class_permutations(n):
    return [(0,) + p for p in permutations(range(1, n))]


def _connected(B, i):
    """Whether relation i's graph is connected: the classes reachable from
    0 by steps of relation i, A_i A_j having support {k : p_ij^k != 0}."""
    n = len(B)
    reached, frontier = {0}, {0}
    while frontier:
        frontier = {k for j in frontier for k in range(n) if B[i][k][j]} - reached
        reached |= frontier
    return len(reached) == n


def check_record(record) -> list[str]:
    """The failures of one record's certificate, each naming the record."""
    name = record["scheme"]
    if not record["is_scheme"]:
        return [f"{name}: not a scheme"]
    size = int(record["size"])
    P, Q, B = _ints(record["P"]), _ints(record["Q"]), _ints(record["B"])
    n = len(P)
    rn = range(n)
    failures = []

    def fail(text):
        failures.append(f"{name}: {text}")

    if [[sum(P[i][k] * Q[k][j] for k in rn) for j in rn] for i in rn] != \
            [[size if i == j else 0 for j in rn] for i in rn]:
        fail("P Q != |X| I")
    for l in rn:
        for i in rn:
            for j in rn:
                if P[l][i] * P[l][j] != sum(B[i][k][j] * P[l][k] for k in rn):
                    fail(f"P[{l}][{i}] P[{l}][{j}] != sum_k B[{i}][k][{j}] P[{l}][k]")
    degrees, multiplicities = _ints(record["degrees"]), _ints(record["multiplicities"])
    if degrees != P[0]:
        fail(f"degrees {degrees} != P[0] {P[0]}")
    if multiplicities != Q[0]:
        fail(f"multiplicities {multiplicities} != Q[0] {Q[0]}")
    K = krein(P, Q, size)
    for i in rn:
        for j in rn:
            column = [K[i][k][j] for k in rn]
            if any(v.denominator != 1 or v < 0 for v in column):
                fail(f"q_{i}{j}^k = {[str(v) for v in column]} not nonnegative integers")
            bound = Q[0][i] * Q[0][j] if i != j else Q[0][i] * (Q[0][i] + 1) // 2
            if sum(Q[0][k] for k in rn if column[k]) > bound:
                fail(f"absolute bound fails at ({i}, {j})")
    flags = record["flags"]
    primitive = all(_connected(B, i) for i in range(1, n))
    if flags["is_primitive"] != primitive:
        fail(f"is_primitive is {flags['is_primitive']}, B says {primitive}")
    self_dual = any(all(P[pi[k]][j] == Q[k][pi[j]] for k in rn for j in rn)
                    for pi in _class_permutations(n))
    if flags["is_self_dual"] != self_dual:
        fail(f"is_self_dual is {flags['is_self_dual']}, P and Q say {self_dual}")
    return failures


def krein_array(record):
    return krein(_ints(record["P"]), _ints(record["Q"]), int(record["size"]))


def check_catalog(payload) -> list[str]:
    """Every record's certificate, then the primal/dual pairs."""
    records = {r["scheme"]: r for r in payload["schemes"]}
    failures = [f for r in payload["schemes"] for f in check_record(r)]
    if failures:
        return failures
    for primal, dual in DUALS.items():
        if primal in records and dual in records and \
                krein_array(records[primal]) != _ints(records[dual]["B"]):
            failures.append(f"{dual}: B is not the Krein array of {primal}")
    if "thm2ii" in records:
        K, B = krein_array(records["thm2ii"]), _ints(records["thm2ii"]["B"])
        if not any(all(B[i][k][j] == K[pi[i]][pi[k]][pi[j]]
                       for i in range(len(B)) for k in range(len(B)) for j in range(len(B)))
                   for pi in _class_permutations(len(B))):
            failures.append("thm2ii: B is its Krein array under no class permutation")
    return failures


def main(paths) -> int:
    failed = False
    for path in paths:
        with open(path) as fh:
            failures = check_catalog(json.load(fh))
        for line in failures:
            print(f"{path}: {line}")
        failed |= bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
