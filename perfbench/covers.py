"""Workload `covers`: index-2 covers of surface groups.

Uses `exact` unlike `presentations`: the Smith transforms are read
(`DoubleCover.class_of` applies U), and `rank_over_rationals` and
`inverse_unimodular` (through `deck_matrix`) run.  Most operations take
milliseconds, so `schema` and `cli` are a visible share of each.
"""
from __future__ import annotations

import random
from typing import List, Optional

from harness import Op, Plan, cli_call, expect, spread
from oracles import loop_parity, mat_vec, rank_mod_p

# cover genera per period, skewed toward small g.  Sixteen covers of genus 12,
# with four loops each, sit between seventeen smaller covers and sixteen
# slower operations, so the median latency falls in the middle of that
# cluster.  Where the latencies of different genera meet, a small change of
# speed would move the median a lot.
COVER_GENERA = (
    (2, 2, 2, 3, 3, 3, 4, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8),
    (12,) * 16,
    (16, 20, 24, 30, 36, 44, 52, 64, 80, 100, 120),
)
MEDIAN_GENUS, MEDIAN_LOOPS = 12, 4
# deck_matrix() calls per period.  Three at genus 30 put the tail latency
# inside that cluster.  A call takes about 0.5 s there; at genus 40 it takes
# twice as long, and the host's speed drifts more within one call.
DECK_GENERA = (10, 20, 30, 30, 30)
# deck_matrix() at genus 40 runs once per run, at the start
HEAD_DECK_GENUS = 40
PERIODS = 8


def _character(rng: random.Random, genus: int) -> List[int]:
    while True:
        chi = [rng.randint(0, 1) for _ in range(2 * genus)]
        if any(chi):
            return chi


def _loop(rng: random.Random, genus: int) -> List[str]:
    return [f"{rng.choice('ab')}{rng.randint(1, genus)}" + rng.choice(("", "^-1"))
            for _ in range(rng.randint(1, 8))]


def _cover_check(genus: int, chi: List[int], loops: List[List[str]]):
    """H1 of the cover is Z^(2(2g-1)), free; a loop has 2 - chi(loop) lift
    classes; the lift classes span a lattice of the rank found mod p."""

    def check(payload: dict) -> Optional[str]:
        if payload.get("cover_h1") != f"Z^{2 * (2 * genus - 1)}":
            return f"cover_h1 = {payload.get('cover_h1')!r}"
        got = payload.get("loops", [])
        if len(got) != len(loops):
            return f"{len(got)} loops reported, {len(loops)} given"
        classes = []
        for tokens, entry in zip(loops, got):
            parity = loop_parity(tokens, chi)
            if entry["chi"] != parity or len(entry["lift_classes"]) != 2 - parity:
                return f"loop {entry['loop']}: chi {entry['chi']}, {len(entry['lift_classes'])} lifts"
            classes.extend(entry["lift_classes"])
        if payload.get("span_rank") != rank_mod_p(classes):
            return f"span_rank = {payload.get('span_rank')}"
        return None

    return check


def _deck_check(genus: int, rng: random.Random):
    """The deck involution D has D^2 = I and, being fixed-point free,
    Lefschetz number 0, so tr D = 2.  D^2 = I is tested on random vectors."""
    n = 2 * (2 * genus - 1)
    probes = [[rng.randint(-1000, 1000) for _ in range(n)] for _ in range(2)]

    def check(d) -> Optional[str]:
        rows = [list(r) for r in d.entries]
        if len(rows) != n or any(len(r) != n for r in rows):
            return f"deck matrix is {len(rows)} x {len(rows[0]) if rows else 0}, expected {n} x {n}"
        if sum(rows[i][i] for i in range(n)) != 2:
            return "trace of the deck matrix is not 2"
        for v in probes:
            if mat_vec(rows, mat_vec(rows, v)) != v:
                return "deck matrix squared is not the identity"
        return None

    return check


def build(rng: random.Random, workdir: str, root: str) -> Plan:
    from twistlab.presentations import SurfaceGroup, reidemeister_schreier_double_cover

    def cover(genus: int) -> Op:
        chi = _character(rng, genus)
        count = MEDIAN_LOOPS if genus == MEDIAN_GENUS else rng.randint(2, 6)
        loops = [_loop(rng, genus) for _ in range(count)]
        argv = ["cover", "--genus", str(genus), "--chi", ",".join(map(str, chi))]
        for tokens in loops:
            argv += ["--loop", " ".join(tokens)]
        return Op(f"cover g={genus}", cli_call(argv + ["--json"]), expect(0, _cover_check(genus, chi, loops)))

    def deck(genus: int) -> Op:
        # the cover is built here, off the clock; the operation is deck_matrix()
        built = reidemeister_schreier_double_cover(SurfaceGroup(genus), _character(rng, genus))
        return Op(f"deck_matrix g={genus}", lambda: built.deck_matrix(), _deck_check(genus, rng))

    periods = [spread([[cover(g) for g in tier] for tier in COVER_GENERA] + [[deck(g) for g in DECK_GENERA]])
               for _ in range(PERIODS)]
    warmup = [cover(2), cover(20), deck(8)]
    return Plan(warmup=warmup, head=[deck(HEAD_DECK_GENUS)], periods=periods)
