"""Workload `presentations`: geometric-presentation building and
abelianization of finite presentations.

`systems` (exact-rational chord crossings, the pairwise verifier) and `exact`
(Smith normal form where only the diagonal is read, on large sparse relator
matrices) do the work; `metaplectic` is never called.
"""
from __future__ import annotations

import json
import os
import random
from typing import List, Sequence, Tuple

from harness import Op, Plan, cli_call, expect, mismatch, spread
from oracles import abelian_group_text, hub_crossings, invariant_factors

# (target crossings, inputs per period, genera taken in turn); each input is
# 3-4 random cyclically reduced relators within 1 % of the target, as verify
# time grows with about the fourth power of the crossings.  Verify time also
# varies between inputs of one size, so the counts spread the time of a period
# over the rungs, and no rung rests on a few inputs.  The many smallest inputs
# keep the median latency inside one rung, and ten inputs of 128 crossings per
# period put the tail latency well inside that rung.  The two top rungs use
# genus 1: at genus 2 and 3 about a third of the inputs take three times as
# long, which would leave the tail to the seed, while genus 1 is steady.
LADDER = (
    (24, 40, (1, 2, 3)),
    (40, 10, (1, 2, 3)),
    (64, 8, (1, 2, 3)),
    (96, 5, (1, 2, 3)),
    (128, 10, (1,)),
    (170, 1, (1,)),
)
CROSSING_TOLERANCE = 0.01
# ROADMAP target: the 547-crossing verify in under 1 s (84 s on the seed)
REACH_CROSSINGS = 550
ABELIANIZE_SIZES = (10, 20, 30, 45, 60)  # generators per presentation
# about two periods fit in a run; inputs for more would only lengthen set-up
PERIODS = 3


def _relator(rng: random.Random, genus: int, length: int) -> List[int]:
    while True:
        word: List[int] = []
        while len(word) < length:
            x = rng.choice((1, -1)) * rng.randint(1, 2 * genus)
            if not word or word[-1] != -x:
                word.append(x)
        if length == 1 or word[0] != -word[-1]:
            return word


def relator_set(rng: random.Random, genus: int, count: int, target: int) -> List[List[int]]:
    """Random cyclically reduced relators whose drawing has about `target`
    crossings (a random walk on the relator length)."""
    length = 2
    while True:
        rels = [_relator(rng, genus, length) for _ in range(count)]
        crossings = hub_crossings(rels, genus)
        if abs(crossings - target) <= CROSSING_TOLERANCE * target:
            return rels
        if rng.random() < 0.5:
            length = length + 1 if crossings < target else max(1, length - 1)


def _tokens(word: Sequence[int], names: Sequence[str]) -> List[str]:
    return [names[abs(x) - 1] + ("" if x > 0 else "^-1") for x in word]


def _surface_names(genus: int) -> List[str]:
    return [f"{s}{i}" for i in range(1, genus + 1) for s in "ab"]


def _geompres_answer(rels: Sequence[Sequence[int]], genus: int) -> dict:
    """The target pi_g / <<relators>> abelianizes to Z^2g modulo the exponent
    rows; its invariant factors come from the determinantal divisors."""
    rows = [[sum((x > 0) - (x < 0) for x in r if abs(x) == k) for k in range(1, 2 * genus + 1)]
            for r in rels]
    factors = invariant_factors(rows)
    group = abelian_group_text(2 * genus - len(factors), factors)
    return {"verification.pass": True, "verification.target_abelianization": group,
            "verification.quotient_abelianization": group}


def abelian_presentation(rng: random.Random, n: int) -> Tuple[dict, int, List[int]]:
    """A presentation on n generators whose answer is built in: chosen
    invariant factors, scrambled by seeded unimodular row and column
    operations, each row written as a word padded with commutators."""
    free = rng.randint(0, 2)
    torsion = [rng.choice((2, 3))]
    for _ in range(rng.randint(0, 2)):
        torsion.append(torsion[-1] * rng.choice((2, 3, 5)))
    diagonal = [1] * (n - free - len(torsion)) + torsion + [0] * free
    m = [[diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -2))
        if rng.random() < 0.5:
            new = [x + c * y for x, y in zip(m[i], m[j])]
            if max(map(abs, new)) <= 9:
                m[i] = new
        else:
            col = [row[i] + c * row[j] for row in m]
            if max(map(abs, col)) <= 9:
                for row, x in zip(m, col):
                    row[i] = x
    names = [f"x{k}" for k in range(1, n + 1)]
    relators = []
    for row in m:
        word = [names[k] + ("" if e == 1 else f"^{e}") for k, e in enumerate(row) if e]
        rng.shuffle(word)
        for _ in range(rng.randint(1, 2)):
            y, z = rng.sample(names, 2)
            at = rng.randint(0, len(word))
            word[at:at] = [y, z, f"{y}^-1", f"{z}^-1"]
        relators.append(word)
    rng.shuffle(relators)
    return {"generators": names, "relators": relators}, free, torsion


def build(rng: random.Random, workdir: str, root: str) -> Plan:
    def write(name: str, data: dict) -> str:
        path = os.path.join(workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def geompres(name: str, genus: int, count: int, target: int, reach: bool = False) -> Op:
        rels = relator_set(rng, genus, count, target)
        path = write(name, {"genus": genus, "relators": [_tokens(r, _surface_names(genus)) for r in rels]})
        answer = _geompres_answer(rels, genus)
        return Op(f"geompres ~{target} crossings", cli_call(["geompres", path, "--json"]),
                  expect(0, lambda p: mismatch(p, answer)), reach=reach)

    def abelianize(kind: str, path: str, free: int, torsion: List[int]) -> Op:
        answer = {"free_rank": free, "torsion": torsion, "group": abelian_group_text(free, torsion)}
        return Op(kind, cli_call(["abelianize", path, "--json"]),
                  expect(0, lambda p: mismatch(p, answer)))

    def abelian(name: str, n: int) -> Op:
        data, free, torsion = abelian_presentation(rng, n)
        return abelianize(f"abelianize {n} generators", write(name, data), free, torsion)

    fixtures = os.path.join(root, "src", "twistlab", "fixtures")

    def fixture_ops() -> List[Op]:
        # Wajnryb's presentation of Mod(2,1) abelianizes to Z/10; SL(2,Z) to Z/12
        return [abelianize("abelianize wajnryb-map21", os.path.join(fixtures, "wajnryb-map21.json"), 0, [10]),
                abelianize("abelianize sl2z-amalgam", os.path.join(fixtures, "sl2z-amalgam.json"), 0, [12])]

    reach = geompres("reach.json", 2, 4, REACH_CROSSINGS, reach=True)
    periods = []
    for k in range(PERIODS):
        groups = []
        for target, count, genera in LADDER:
            groups.append([geompres(f"geompres-{k}-{target}-{j}.json", genera[(j + k) % len(genera)],
                                    3 if target < 64 else 4, target)
                           for j in range(count)])
        groups.append([abelian(f"abelian-{k}-{n}.json", n) for n in ABELIANIZE_SIZES])
        groups.append(fixture_ops())
        periods.append(spread(groups))
    warmup = [geompres("warm-geompres.json", 2, 3, LADDER[0][0]), abelian("warm-abelian.json", 10)] + fixture_ops()
    return Plan(warmup=warmup, head=[reach], periods=periods,
                notes={"reach": f"geompres at ~{REACH_CROSSINGS} crossings, once per run"})
