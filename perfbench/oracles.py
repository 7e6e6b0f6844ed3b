"""Known-answer routines of the benchmark's own.

None of these calls twistlab: each answer the benchmark checks is either
written by hand from the paper, built into the generated input, or computed
here by a small, independent routine.
"""
from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import Dict, List, Sequence, Tuple

Mat2 = Tuple[Tuple[int, int], Tuple[int, int]]

IDENTITY2: Mat2 = ((1, 0), (0, 1))
# images of the genus-1 twists t_a, t_b under the convention T_c(x) = x - <x, c> c
ATOM_MATRIX: Dict[str, Mat2] = {"a": ((1, 1), (0, 1)), "b": ((1, 0), (-1, 1))}

# a prime far above every minor of the small matrices the benchmark ranks
RANK_PRIME = (1 << 61) - 1


def mat2_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat2_power(m: Mat2, e: int) -> Mat2:
    if e < 0:
        m, e = ((m[1][1], -m[0][1]), (-m[1][0], m[0][0])), -e
    out = IDENTITY2
    for _ in range(e):
        out = mat2_mul(out, m)
    return out


def atoms_matrix(atoms: Sequence[Tuple[str, int]]) -> Mat2:
    """Product in reading order of atoms (name, power), name in {a, b}."""
    out = IDENTITY2
    for name, power in atoms:
        out = mat2_mul(out, mat2_power(ATOM_MATRIX[name], power))
    return out


def determinant(m: Sequence[Sequence[int]]) -> int:
    """Laplace expansion; only used on matrices of size at most 4."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j, x in enumerate(m[0]):
        if x:
            minor = [row[:j] + row[j + 1:] for row in m[1:]]
            total += (-1) ** j * x * determinant(minor)
    return total


def invariant_factors(rows: Sequence[Sequence[int]]) -> List[int]:
    """Nonzero invariant factors of an integer matrix from its determinantal
    divisors d_k = gcd of all k x k minors: s_k = d_k / d_(k-1)."""
    if not rows:
        return []
    m, n = len(rows), len(rows[0])
    out: List[int] = []
    prev = 1
    for k in range(1, min(m, n) + 1):
        d = 0
        for r in combinations(range(m), k):
            for c in combinations(range(n), k):
                d = gcd(d, determinant([[rows[i][j] for j in c] for i in r]))
                if d == prev:
                    break
            if d == prev:
                break
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return out


def abelian_group_text(free_rank: int, torsion: Sequence[int]) -> str:
    """The group Z^r + Z/d1 + ... written as twistlab prints it."""
    parts = [f"Z^{free_rank}"] if free_rank else []
    parts += [f"Z/{d}" for d in torsion if d > 1]
    return " + ".join(parts) if parts else "0"


def rank_mod_p(rows: Sequence[Sequence[int]], p: int = RANK_PRIME) -> int:
    """Rank of an integer matrix by Gaussian elimination modulo a large prime."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], p - 2, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def loop_parity(tokens: Sequence[str], chi: Sequence[int]) -> int:
    """chi(loop): the mod-2 count of letters whose generator has chi = 1.

    Tokens are a1, b1^-1, ... in the surface basis (a1, b1, ..., ag, bg)."""
    total = 0
    for tok in tokens:
        name, _, exp = tok.partition("^")
        index = 2 * (int(name[1:]) - 1) + (0 if name[0] == "a" else 1)
        total += abs(int(exp) if exp else 1) * chi[index]
    return total % 2


def mat_vec(m: Sequence[Sequence[int]], v: Sequence[int]) -> List[int]:
    return [sum(a * x for a, x in zip(row, v)) for row in m]


def hub_crossings(relators: Sequence[Sequence[int]], genus: int) -> int:
    """Crossing count of the hub-and-chord drawing documented in
    twistlab.systems, counted combinatorially: two chords with distinct
    ports cross exactly when their ports interleave on the hub circle, and
    every extra component of the union costs a finger move of two crossings.

    Used only to size generated inputs, never as a checked answer."""
    lanes: Dict[int, int] = {}
    lane_of: Dict[Tuple[int, int], int] = {}
    for ri, rel in enumerate(relators):
        for j, x in enumerate(rel):
            lane_of[ri, j] = lanes.get(abs(x), 0)
            lanes[abs(x)] = lanes.get(abs(x), 0) + 1
    offset: Dict[Tuple[str, int], int] = {}
    pos = 0
    for h in range(genus):
        for side, g in (("out", 2 * h + 1), ("out", 2 * h + 2), ("in", 2 * h + 1), ("in", 2 * h + 2)):
            offset[side, g] = pos
            pos += lanes.get(g, 0)

    def ends(ri: int, j: int, x: int) -> Tuple[int, int]:
        g, lane = abs(x), lane_of[ri, j]
        out = offset["out", g] + lane
        into = offset["in", g] + lanes[g] - 1 - lane
        return (out, into) if x > 0 else (into, out)

    chords = []
    for ri, rel in enumerate(relators):
        for j in range(len(rel)):
            k = (j + 1) % len(rel)
            arrive, depart = ends(ri, j, rel[j])[1], ends(ri, k, rel[k])[0]
            chords.append((ri, min(arrive, depart), max(arrive, depart)))

    parent = list(range(len(relators)))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    count = 0
    for i, (r1, a1, b1) in enumerate(chords):
        for r2, a2, b2 in chords[i + 1:]:
            if (a1 < a2 < b1 < b2) or (a2 < a1 < b2 < b1):
                count += 1
                parent[find(r1)] = find(r2)
    components = len({find(i) for i in range(len(relators))})
    return count + 2 * (components - 1)
