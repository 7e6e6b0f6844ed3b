"""Curve systems in minimal position, their dual graphs, and the
handle-addition builder for geometric presentations.

The builder draws every relator as a based loop through a common hub disk.
Strand ports sit on the hub boundary in the cyclic order induced by the
standard 4g-gon vertex link (out_a, out_b, in_a, in_b per handle); repeated
traversals of a generator run in parallel lanes through its band, with the
lane order reversed at the far end (untwisted orientable band).  Crossings
are chord crossings inside the hub; the ports are in convex position, so
each crossing's sign and its place along both chords follow from the port
indices alone.  Minimality of the crossing count is irrelevant; determinism
is what matters.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from .errors import BudgetExceeded, DimensionMismatch, EmptyRelators, SchemaError
from .presentations import (
    FinitePresentation,
    SurfaceGroup,
    Word,
    abelianize,
    cyclic_reduce,
    exponent_vector,
    quotient_by_normal_closure,
)
from .surfaces import Curve, HomologyClass, SurfaceData, intersection_pairing


@dataclass(frozen=True)
class CurveSystem:
    surface: SurfaceData
    curves: Tuple[Curve, ...]
    intersections: Tuple[Tuple[str, str, int], ...]  # symmetric, zero diagonal

    def __post_init__(self):
        names = {c.name for c in self.curves}
        if len(names) != len(self.curves):
            raise SchemaError("duplicate curve names")
        n = 2 * self.surface.genus
        for c in self.curves:
            if c.homology.dim != n:
                raise DimensionMismatch(
                    f"curve {c.name}: class length {c.homology.dim} != 2g = {n}"
                )
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
        # <x, y> = sum of x_j y_(j+1) - x_(j+1) y_j over even j, taken over the
        # support of x, with y looked up by index
        support = {c.name: c.homology.support for c in self.curves}
        lookup: Dict[str, Dict[int, int]] = {}
        for (a, b), k in table.items():
            if a == b:
                continue
            if b not in lookup:
                lookup[b] = dict(support[b])
            y = lookup[b]
            alg = sum(-x * y.get(j ^ 1, 0) if j & 1 else x * y.get(j ^ 1, 0) for j, x in support[a])
            if k < abs(alg):
                raise SchemaError(
                    f"count({a},{b}) = {k} below |algebraic| = {abs(alg)}"
                )

    def count(self, a: str, b: str) -> int:
        if a == b:
            return 0
        key = (a, b) if a <= b else (b, a)
        return self._table.get(key, 0)


@dataclass(frozen=True)
class DualGraph:
    """Vertices are curves, edges are intersection points (with multiplicity)."""

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, int], ...]  # (a, b, multiplicity), a < b

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


# ---------------------------------------------------------------------------
# geometric-presentation builder


@dataclass(frozen=True)
class _Crossing:
    sign: int                      # local sign, branch1 x branch2
    branch1: Tuple[int, int]       # (relator, gap), before branch2
    branch2: Tuple[int, int]
    param1: Fraction               # order key along each chord
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
    """The chords of the based-loop arrangement, one per relator gap, as
    (relator, gap, start port, end port); every hub port is the end of
    exactly one chord."""
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
    return chords


def _hub_crossings(rels: Sequence[Word], n_gens: int, genus: int) -> List[_Crossing]:
    """The crossings of the relators' chords, ordered by (first chord, second
    chord).  Each crossing adds a handle to the built surface, whose genus is
    `genus` before any: BudgetExceeded as soon as it passes MAX_GENUS.

    Port k of n sits on the unit circle at stereographic parameter
    t_k = k - (n - 1)/2, so the ports are in convex position in index order.
    Every port is the end of exactly one chord, so two chords cross iff
    exactly one end of the second lies strictly between the ends of the
    first.  At parameter s along chord a1 -> b1, where chord a2 -> b2
    crosses it, s/(1 - s) = C (a2 - a1)(b2 - a1) / ((b1 - a2)(b2 - b1)) with
    C = (1 + t_b1^2)/(1 + t_a1^2) the same for every crossing on the chord:
    that quotient of port indices orders the crossings along the chord,
    equal exactly where s is, and positive.
    """
    from .schema import check_genus  # schema imports this module

    chords = _chords(rels, n_gens)
    crossings: List[_Crossing] = []
    for i, (ri, ji, a1, b1) in enumerate(chords):
        lo, hi = (a1, b1) if a1 < b1 else (b1, a1)
        for rk, jk, a2, b2 in chords[i + 1:]:
            inside = lo < a2 < hi
            if inside != (lo < b2 < hi):
                crossings.append(
                    _Crossing(
                        sign=1 if inside == (a1 < b1) else -1,
                        branch1=(ri, ji),
                        branch2=(rk, jk),
                        param1=Fraction((a2 - a1) * (b2 - a1), (b1 - a2) * (b2 - b1)),
                        param2=Fraction((a1 - a2) * (b1 - a2), (b2 - a1) * (b1 - b2)),
                    )
                )
        check_genus(genus + len(crossings), "the built genus")
    return crossings


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
    from .schema import MAX_GEOMPRES_LETTERS, check_genus  # schema imports this module

    g = base.genus
    rels = tuple(cyclic_reduce(r) for r in relators)
    if not rels:
        raise EmptyRelators("no relators given")
    if any(not r for r in rels):
        raise EmptyRelators("a relator reduces to the empty word")
    letters = sum(map(len, rels))
    if letters > MAX_GEOMPRES_LETTERS:
        raise BudgetExceeded(
            f"the relators have {letters} letters, over the budget {MAX_GEOMPRES_LETTERS}"
        )
    for r in rels:
        for x in r:
            if not 1 <= abs(x) <= 2 * g:
                raise SchemaError(f"relator letter {x} outside pi_{g} generators")
    classes = [exponent_vector(r, 2 * g) for r in rels]
    add_handle = bool(ensure_nonseparating) and not any(map(any, classes))
    crossings = _hub_crossings(rels, 2 * g, g + add_handle)

    # local crossing signs must reproduce the algebraic pairings, otherwise
    # the diagram would not be a genuine immersion picture
    signed: Dict[Tuple[int, int], int] = {}
    for c in crossings:
        i, k = c.branch1[0], c.branch2[0]
        if i < k:
            signed[i, k] = signed.get((i, k), 0) + c.sign
    for i in range(len(rels)):
        for k in range(i + 1, len(rels)):
            alg = intersection_pairing(classes[i], classes[k])
            if signed.get((i, k), 0) != alg:
                raise SchemaError(
                    f"chord model sign mismatch for relators {i},{k}: "
                    f"{signed.get((i, k), 0)} != {alg}"
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
        # key 0 sorts before every chord crossing's positive key
        for sgn in (1, -1):
            crossings.append(_Crossing(sgn, (r0, 0), (r1, 0), Fraction(0), Fraction(0)))
        comp[max(find(r0), find(r1))] = min(find(r0), find(r1))

    n_cross = len(crossings)
    e = check_genus(g + n_cross + add_handle, "the built genus")

    def a_gen(p: int) -> int:
        return 2 * g + 2 * p + 1

    def b_gen(p: int) -> int:
        return 2 * g + 2 * p + 2

    # handle-generator insertions per relator gap; at each crossing the
    # lexicographically first branch rides over a_p (exponent +1), the other
    # over b_p with the sign that cancels the crossing's homological
    # contribution (<a_p, b_p> = +1 forces exponent -sign)
    insertions: Dict[int, Dict[int, list]] = {ri: {} for ri in range(len(rels))}
    for p, c in enumerate(crossings):
        (r1, j1), (r2, j2) = c.branch1, c.branch2
        insertions[r1].setdefault(j1, []).append((c.param1, p, a_gen(p)))
        insertions[r2].setdefault(j2, []).append((c.param2, p, -c.sign * b_gen(p)))

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

    def unit(*gens: int) -> HomologyClass:
        return HomologyClass(2 * e, [(x - 1, 1) for x in gens])

    curves: List[Curve] = []
    counts: List[Tuple[str, str, int]] = []
    names = []
    for ri, w in enumerate(curve_words):
        cls = HomologyClass.of_word(w, 2 * e)
        name = f"c~{ri}"
        names.append(name)
        curves.append(Curve(name, cls, separating=not cls, word=w))
    for p, c in enumerate(crossings):
        na, nb = f"a{g + p + 1}", f"b{g + p + 1}"
        curves.append(Curve(na, unit(a_gen(p)), word=(a_gen(p),)))
        curves.append(Curve(nb, unit(b_gen(p)), word=(b_gen(p),)))
        counts.append((na, nb, 1))
        r1, r2 = c.branch1[0], c.branch2[0]
        # branch1 carries a_p so its curve crosses b_p, and vice versa
        counts.append((names[r1], nb, 1))
        counts.append((names[r2], na, 1))
    if add_handle:
        na, nb, nc = f"a{e}", f"b{e}", f"c{e}"
        curves.append(Curve(na, unit(extra_a), word=(extra_a,)))
        curves.append(Curve(nb, unit(extra_b), word=(extra_b,)))
        curves.append(Curve(nc, unit(extra_a, extra_b), word=(extra_a, extra_b)))
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
