"""Curve systems in minimal position: dual graphs, graph connectivity, and
the handle-addition builder for geometric presentations.

The builder draws every relator as a based loop through a common hub disk.
Strand ports sit on the hub boundary in the cyclic order induced by the
standard 4g-gon vertex link (out_a, out_b, in_a, in_b per handle); repeated
traversals of a generator run in parallel lanes through its band, with the
lane order reversed at the far end (untwisted orientable band).  Crossings
are chord crossings inside the hub, computed exactly on rational points of
the unit circle.  Minimality of the crossing count is irrelevant; determinism
is what matters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import EmptyRelators, SchemaError
from .presentations import (
    FinitePresentation,
    SurfaceGroup,
    Word,
    abelianize,
    cyclic_reduce,
    exponent_vector,
    quotient_by_normal_closure,
)
from .surfaces import Curve, SurfaceData, intersection_pairing


@dataclass(frozen=True)
class CurveSystem:
    surface: SurfaceData
    curves: Tuple[Curve, ...]
    intersections: Tuple[Tuple[str, str, int], ...]  # symmetric, zero diagonal

    def __post_init__(self):
        names = [c.name for c in self.curves]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate curve names")
        table: Dict[Tuple[str, str], int] = {}
        for a, b, k in self.intersections:
            if a == b and k != 0:
                raise SchemaError("nonzero diagonal intersection")
            if a not in names or b not in names:
                raise SchemaError(f"intersection references unknown curve {a!r}/{b!r}")
            if k < 0:
                raise SchemaError("negative intersection count")
            key = (a, b) if a <= b else (b, a)
            if key in table and table[key] != k:
                raise SchemaError(f"conflicting counts for {key}")
            table[key] = k
        object.__setattr__(self, "_table", table)
        by_name = {c.name: c for c in self.curves}
        for (a, b), k in table.items():
            if a == b:
                continue
            alg = intersection_pairing(by_name[a].homology, by_name[b].homology)
            if k < abs(alg):
                raise SchemaError(
                    f"count({a},{b}) = {k} below |algebraic| = {abs(alg)}"
                )

    def count(self, a: str, b: str) -> int:
        if a == b:
            return 0
        key = (a, b) if a <= b else (b, a)
        return self._table.get(key, 0)

    def curve(self, name: str) -> Curve:
        for c in self.curves:
            if c.name == name:
                return c
        raise KeyError(name)


@dataclass(frozen=True)
class DualGraph:
    """Vertices are curves, edges are intersection points (with multiplicity)."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, int], ...]  # (a, b, multiplicity), a < b

    def multiplicity(self, a: str, b: str) -> int:
        key = (a, b) if a <= b else (b, a)
        for x, y, k in self.edges:
            if (x, y) == key:
                return k
        return 0

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: Dict[str, set] = {v: set() for v in self.vertices}
        for a, b, k in self.edges:
            if k > 0:
                adj[a].add(b)
                adj[b].add(a)
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def dual_graph(system: CurveSystem) -> DualGraph:
    edges = tuple(
        (a, b, k) for (a, b), k in sorted(system._table.items()) if k > 0 and a != b
    )
    return DualGraph(tuple(c.name for c in system.curves), edges)


def adjacent(system: CurveSystem, r: str, s: str) -> bool:
    """Adjacency means a single transverse intersection point."""
    return r != s and system.count(r, s) == 1


def graph_connected_to(
    system: CurveSystem, r_names: Sequence[str], s_names: Sequence[str]
) -> Tuple[bool, Dict[str, Optional[list]]]:
    """Is every curve of R joined to S by a path of adjacency edges
    (multiplicity exactly one) in the combined system?

    Returns the flag plus a witness path per R-curve (None if unreachable).
    A curve already in S gets the length-0 path [curve].
    """
    names = [c.name for c in system.curves]
    for n in list(r_names) + list(s_names):
        if n not in names:
            raise SchemaError(f"unknown curve {n!r}")
    target = set(s_names)
    paths: Dict[str, Optional[list]] = {}
    for r in r_names:
        if r in target:
            paths[r] = [r]
            continue
        prev = {r: None}
        queue = [r]
        found = None
        while queue and found is None:
            cur = queue.pop(0)
            for w in names:
                if w not in prev and adjacent(system, cur, w):
                    prev[w] = cur
                    if w in target:
                        found = w
                        break
                    queue.append(w)
        if found is None:
            paths[r] = None
        else:
            path = [found]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            paths[r] = list(reversed(path))
    return all(p is not None for p in paths.values()), paths


# ---------------------------------------------------------------------------
# geometric-presentation builder


def _circle_point(k: int, n: int) -> Tuple[Fraction, Fraction]:
    # rational points on the unit circle, cyclic order = index order
    t = Fraction(2 * k - (n - 1), 2)
    d = 1 + t * t
    return ((1 - t * t) / d, 2 * t / d)


@dataclass(frozen=True)
class _Crossing:
    index: int
    sign: int                      # local sign, branch1 x branch2
    branch1: Tuple[int, int]       # (relator, gap)
    branch2: Tuple[int, int]
    param1: Fraction               # position along each chord
    param2: Fraction


@dataclass(frozen=True)
class GeometricPresentation:
    base: SurfaceGroup
    relators: Tuple[Word, ...]
    genus: int                      # e = g + #Sing(M) (+1 with the extra handle)
    crossings: int
    system: CurveSystem
    quotient: FinitePresentation    # pi_e modulo all curve words
    target: FinitePresentation      # pi_g modulo the input relators


def _chords(relators: Sequence[Word], n_gens: int):
    """Hub ports and chords of the based-loop arrangement."""
    # lanes per generator in (relator, position) order
    lanes: Dict[int, int] = {}
    lane_of: Dict[Tuple[int, int], int] = {}
    for ri, rel in enumerate(relators):
        for j, x in enumerate(rel):
            g = abs(x)
            lane_of[(ri, j)] = lanes.get(g, 0)
            lanes[g] = lanes.get(g, 0) + 1

    # slot layout: per handle (out_a, out_b, in_a, in_b); genus = n_gens // 2
    slot_of_out = {}
    slot_of_in = {}
    slot_sizes = []
    for h in range(n_gens // 2):
        a, b = 2 * h + 1, 2 * h + 2
        slot_of_out[a] = len(slot_sizes); slot_sizes.append(lanes.get(a, 0))
        slot_of_out[b] = len(slot_sizes); slot_sizes.append(lanes.get(b, 0))
        slot_of_in[a] = len(slot_sizes); slot_sizes.append(lanes.get(a, 0))
        slot_of_in[b] = len(slot_sizes); slot_sizes.append(lanes.get(b, 0))
    offsets = []
    acc = 0
    for sz in slot_sizes:
        offsets.append(acc)
        acc += sz
    total = acc

    def port(slot: int, lane: int, flip: bool) -> int:
        size = slot_sizes[slot]
        pos = (size - 1 - lane) if flip else lane
        return offsets[slot] + pos

    def ends(ri: int, j: int, x: int) -> Tuple[int, int]:
        """(departure point, arrival point) of the letter's traversal."""
        g = abs(x)
        lane = lane_of[(ri, j)]
        out_pt = port(slot_of_out[g], lane, flip=False)
        in_pt = port(slot_of_in[g], lane, flip=True)
        return (out_pt, in_pt) if x > 0 else (in_pt, out_pt)

    chords = []  # (relator, gap, start point, end point)
    for ri, rel in enumerate(relators):
        m = len(rel)
        for j in range(m):
            _, arr = ends(ri, j, rel[j])
            dep, _ = ends(ri, (j + 1) % m, rel[(j + 1) % m])
            chords.append((ri, j, arr, dep))
    return chords, total


def _segment_crossing(p1, p2, q1, q2):
    """Exact crossing of open segments p1p2, q1q2; returns (s, t) parameters
    or None."""
    d1 = (p2[0] - p1[0], p2[1] - p1[1])
    d2 = (q2[0] - q1[0], q2[1] - q1[1])
    denom = d1[0] * d2[1] - d1[1] * d2[0]
    if denom == 0:
        return None
    w = (q1[0] - p1[0], q1[1] - p1[1])
    s = (w[0] * d2[1] - w[1] * d2[0]) / denom
    t = (w[0] * d1[1] - w[1] * d1[0]) / denom
    if 0 < s < 1 and 0 < t < 1:
        return s, t, (1 if denom > 0 else -1)
    return None


def build_geometric_presentation(
    base: SurfaceGroup,
    relators: Sequence[Sequence[int]],
    ensure_nonseparating: bool = False,
) -> GeometricPresentation:
    """Realize the relators as curves on a larger surface, one handle per
    crossing, following the hub/chord model described in the module
    docstring.

    Output curves: one c~i per relator (pairwise disjoint), plus the standard
    handle pair a_p, b_p per crossing.  Every pairwise count is at most 1 and
    the union is connected; connectivity across crossing-free pairs of
    components is forced by deterministic finger moves (two opposite-sign
    crossings each).
    """
    g = base.genus
    rels = tuple(cyclic_reduce(r) for r in relators)
    if not rels:
        raise EmptyRelators("no relators given")
    if any(not r for r in rels):
        raise EmptyRelators("a relator reduces to the empty word")
    for r in rels:
        for x in r:
            if not 1 <= abs(x) <= 2 * g:
                raise SchemaError(f"relator letter {x} outside pi_{g} generators")

    chords, total = _chords(rels, 2 * g)
    pts = [_circle_point(k, total) for k in range(total)]

    crossings: List[_Crossing] = []
    for i in range(len(chords)):
        ri, ji, a1, b1 = chords[i]
        for k in range(i + 1, len(chords)):
            rk, jk, a2, b2 = chords[k]
            hit = _segment_crossing(pts[a1], pts[b1], pts[a2], pts[b2])
            if hit:
                s, t, sign = hit
                crossings.append(
                    _Crossing(
                        index=len(crossings),
                        sign=sign,
                        branch1=(ri, ji),
                        branch2=(rk, jk),
                        param1=s,
                        param2=t,
                    )
                )

    # local crossing signs must reproduce the algebraic pairings, otherwise
    # the diagram would not be a genuine immersion picture
    for i in range(len(rels)):
        for k in range(i + 1, len(rels)):
            alg = intersection_pairing(
                exponent_vector(rels[i], 2 * g), exponent_vector(rels[k], 2 * g)
            )
            signed = 0
            for c in crossings:
                if c.branch1[0] == i and c.branch2[0] == k:
                    signed += c.sign
                elif c.branch1[0] == k and c.branch2[0] == i:
                    signed -= c.sign
            if signed != alg:
                raise SchemaError(
                    f"chord model sign mismatch for relators {i},{k}: "
                    f"{signed} != {alg}"
                )

    # force a connected union: finger moves between components
    comp = list(range(len(rels)))

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for c in crossings:
        a, b = find(c.branch1[0]), find(c.branch2[0])
        if a != b:
            comp[max(a, b)] = min(a, b)
    roots = sorted({find(i) for i in range(len(rels))})
    for extra_root in roots[1:]:
        r0, r1 = roots[0], extra_root
        for sgn in (1, -1):
            crossings.append(
                _Crossing(
                    index=len(crossings),
                    sign=sgn,
                    branch1=(min(r0, r1), 0),
                    branch2=(max(r0, r1), 0),
                    param1=Fraction(0),
                    param2=Fraction(0),
                )
            )
        comp[max(find(r0), find(r1))] = min(find(r0), find(r1))

    n_cross = len(crossings)
    trivial_input = all(
        all(v == 0 for v in exponent_vector(r, 2 * g)) for r in rels
    )
    add_handle = ensure_nonseparating and trivial_input
    e = g + n_cross + (1 if add_handle else 0)

    def a_gen(p: int) -> int:
        return 2 * g + 2 * p + 1

    def b_gen(p: int) -> int:
        return 2 * g + 2 * p + 2

    # handle-generator insertions per relator gap; at each crossing the
    # lexicographically first branch rides over a_p (exponent +1), the other
    # over b_p with the sign that cancels the crossing's homological
    # contribution (<a_p, b_p> = +1 forces exponent -sign)
    insertions: Dict[int, Dict[int, list]] = {ri: {} for ri in range(len(rels))}
    for c in crossings:
        first = min(c.branch1, c.branch2)
        second = max(c.branch1, c.branch2)
        p1 = c.param1 if first == c.branch1 else c.param2
        p2 = c.param2 if first == c.branch1 else c.param1
        # orientation sign relative to the lex-ordered branches
        sgn = c.sign if first == c.branch1 else -c.sign
        ins1 = (p1, c.index, a_gen(c.index))
        ins2 = (p2, c.index, -b_gen(c.index) if sgn > 0 else b_gen(c.index))
        insertions[first[0]].setdefault(first[1], []).append(ins1)
        insertions[second[0]].setdefault(second[1], []).append(ins2)

    curve_words: List[Word] = []
    for ri, rel in enumerate(rels):
        out: List[int] = []
        for j, x in enumerate(rel):
            out.append(x)
            for _, _, sym in sorted(insertions[ri].get(j, [])):
                out.append(sym)
        curve_words.append(tuple(out))

    extra_a = extra_b = None
    if add_handle:
        extra_a, extra_b = 2 * e - 1, 2 * e
        curve_words[0] = curve_words[0] + (extra_b,)

    curves: List[Curve] = []
    counts: List[Tuple[str, str, int]] = []
    names = []
    for ri, w in enumerate(curve_words):
        cls = exponent_vector(w, 2 * e)
        name = f"c~{ri}"
        names.append(name)
        curves.append(
            Curve(name, cls, separating=all(v == 0 for v in cls), word=w)
        )
    for p, c in enumerate(crossings):
        na, nb = f"a{g + p + 1}", f"b{g + p + 1}"
        ca = [0] * (2 * e); ca[a_gen(p) - 1] = 1
        cb = [0] * (2 * e); cb[b_gen(p) - 1] = 1
        curves.append(Curve(na, tuple(ca), word=(a_gen(p),)))
        curves.append(Curve(nb, tuple(cb), word=(b_gen(p),)))
        counts.append((na, nb, 1))
        r1 = min(c.branch1, c.branch2)[0]
        r2 = max(c.branch1, c.branch2)[0]
        # branch1 carries a_p so its curve crosses b_p, and vice versa
        counts.append((names[r1], nb, 1))
        counts.append((names[r2], na, 1))
    if add_handle:
        na, nb, nc = f"a{e}", f"b{e}", f"c{e}"
        ca = [0] * (2 * e); ca[extra_a - 1] = 1
        cb = [0] * (2 * e); cb[extra_b - 1] = 1
        cc = [0] * (2 * e); cc[extra_a - 1] = 1; cc[extra_b - 1] = 1
        curves.append(Curve(na, tuple(ca), word=(extra_a,)))
        curves.append(Curve(nb, tuple(cb), word=(extra_b,)))
        curves.append(Curve(nc, tuple(cc), word=(extra_a, extra_b)))
        counts += [
            (na, nb, 1), (na, nc, 1), (nb, nc, 1),
            (names[0], na, 1), (names[0], nc, 1),
        ]

    system = CurveSystem(SurfaceData(e), tuple(curves), tuple(counts))
    pi_e = SurfaceGroup(e).presentation()
    quotient = quotient_by_normal_closure(pi_e, [c.word for c in curves])
    target = quotient_by_normal_closure(base.presentation(), rels)
    return GeometricPresentation(
        base=base,
        relators=rels,
        genus=e,
        crossings=n_cross,
        system=system,
        quotient=quotient,
        target=target,
    )


def verify_geometric_presentation(gp: GeometricPresentation) -> dict:
    """Pass/fail per geometric-presentation invariant, with the
    abelianization cross-check against the target quotient."""
    # pairs missing from the intersection table are disjoint
    pairwise_ok = all(k <= 1 for (a, b), k in gp.system._table.items() if a != b)
    connected_ok = dual_graph(gp.system).is_connected()
    genus_ok = gp.genus >= gp.base.genus + gp.crossings
    quot_ab = abelianize(gp.quotient)
    targ_ab = abelianize(gp.target)
    ab_ok = quot_ab == targ_ab
    report = {
        "pairwise_counts_le_1": pairwise_ok,
        "union_connected": connected_ok,
        "genus_formula": genus_ok,
        "abelianization_match": ab_ok,
        "quotient_abelianization": str(quot_ab),
        "target_abelianization": str(targ_ab),
        "pass": pairwise_ok and connected_ok and genus_ok and ab_ok,
    }
    return report
