"""Pure-Python reference for the partition, kept to cross-check the
package's class folds.

Each function walks F* element by element, as the package computed D,
psi(omega^a D) and the tangent/secant route before they became folds of
M-periodic indicators.  Every element's relative trace and character is
read once, by the schoolbook ``rel_trace`` and the trace mask; a product
omega^a * u with u = omega^k is looked up as omega^(a + k).
"""

from character_oracle import psi, rel_trace


def _logs_of_D(tower):
    """The k with tr_{F/E}(1/omega^k) = 0; the inverse of omega^k is
    omega^(-k)."""
    F, s = tower.F, tower.s
    return [k for k in range(F.order) if rel_trace(F, s, F.powers[-k % F.order]) == 0]


def compute_D_reference(tower):
    """The nonzero u in F with tr_{F/E}(1/u) = 0."""
    return {tower.F.powers[k] for k in _logs_of_D(tower)}


def psi_omega_D_reference(tower):
    """psi(omega^a D) for every a in Z_M, one character value per element
    omega^a u of omega^a D."""
    F = tower.F
    values = [psi(F, u) for u in F.powers]
    logs = _logs_of_D(tower)
    return [sum(values[(a + k) % F.order] for k in logs) for a in range(tower.M)]


def partition_by_trace_reference(tower):
    """(T1, T2, T3) from the sizes of S_a = {u : tr(u^(q+1)) = 0,
    tr(omega^a u) = 0}: q - 1, 2(q - 1) and 0."""
    F, s, M = tower.F, tower.s, tower.M
    q = 1 << s
    powers = F.powers
    zero = [rel_trace(F, s, u) == 0 for u in powers]
    quadric = [k for k, u in enumerate(powers) if rel_trace(F, s, F.mul(F.pow(u, q), u)) == 0]
    blocks = {q - 1: [], 2 * (q - 1): [], 0: []}
    for a in range(M):
        blocks[sum(zero[(a + k) % F.order] for k in quadric)].append(a)
    return tuple(tuple(block) for block in blocks.values())
