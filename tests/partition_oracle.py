"""Pure-Python reference for the partition, kept to cross-check the
package's class folds.

Each function walks F* element by element, exactly as the package
computed D, psi(omega^a D) and the tangent/secant route before they
became folds of M-periodic indicators.
"""

from character_oracle import psi


def compute_D_reference(tower):
    """The nonzero u in F with tr_{F/E}(1/u) = 0."""
    F, s = tower.F, tower.s
    powers = F.powers
    # the inverse of omega^k is omega^(-k)
    return {u for k, u in enumerate(powers)
            if F.rel_trace(s, powers[-k % F.order]) == 0}


def psi_omega_D_reference(tower):
    """psi(omega^a D) for every a in Z_M, one field product per element of D."""
    F = tower.F
    D = compute_D_reference(tower)
    return [sum(psi(F, F.mul(wa, u)) for u in D)
            for wa in (F.pow(tower.omega, a) for a in range(tower.M))]


def partition_by_trace_reference(tower):
    """(T1, T2, T3) from the sizes of S_a = {u : tr(u^(q+1)) = 0,
    tr(omega^a u) = 0}: q - 1, 2(q - 1) and 0."""
    F, s, M = tower.F, tower.s, tower.M
    q = 1 << s
    powers = F.powers
    quadric = [u for u in powers if F.rel_trace(s, F.mul(F.pow(u, q), u)) == 0]
    blocks = {q - 1: [], 2 * (q - 1): [], 0: []}
    for a in range(M):
        wa = powers[a]
        size = sum(1 for u in quadric if F.rel_trace(s, F.mul(wa, u)) == 0)
        blocks[size].append(a)
    return tuple(tuple(block) for block in blocks.values())

