import random
import time
from itertools import groupby
from operator import itemgetter

import pytest

from conftest import graph_connected_to, hub_crossings_oracle
from twistlab.errors import DimensionMismatch, EmptyRelators, SchemaError
from twistlab.exact import smith_diagonal, smith_normal_form
from twistlab.presentations import AbelianInvariants, SurfaceGroup, abelianize, cyclic_reduce
from twistlab.surfaces import Curve, SurfaceData
from twistlab.systems import (
    CurveSystem,
    _hub_crossings,
    build_geometric_presentation,
    dual_graph,
    verify_geometric_presentation,
)


def simple_system(counts):
    curves = tuple(
        Curve(name, (0, 0), separating=True) for name in sorted({n for pair in counts for n in pair[:2]})
    )
    return CurveSystem(SurfaceData(1), curves, tuple(counts))


class TestDualGraph:
    def test_disjoint_curves(self):
        s = simple_system([("r1", "r2", 0)])
        g = dual_graph(s)
        assert g.vertices == ("r1", "r2")
        assert g.edges == ()
        assert not g.is_connected()

    def test_single_edge(self):
        s = simple_system([("r1", "r2", 1)])
        g = dual_graph(s)
        assert g.edges == (("r1", "r2", 1),)
        assert s.count("r1", "r2") == 1
        assert g.is_connected()

    def test_chain(self):
        s = simple_system([("r1", "r2", 1), ("r2", "r3", 1), ("r1", "r3", 0)])
        g = dual_graph(s)
        assert s.count("r1", "r2") == 1
        assert s.count("r2", "r3") == 1
        assert s.count("r1", "r3") == 0
        assert g.edges == (("r1", "r2", 1), ("r2", "r3", 1))
        assert g.is_connected()


class TestAdjacent:
    def test_counts(self):
        # adjacency, the edges of the path search, is one intersection point
        s = simple_system([("r1", "r2", 1), ("r1", "r3", 2), ("r2", "r3", 0)])
        assert graph_connected_to(s, ["r1"], ["r2"]) == (True, {"r1": ["r1", "r2"]})
        assert not graph_connected_to(s, ["r2"], ["r3"])[0]
        # two intersection points are not adjacency
        assert not graph_connected_to(s, ["r1"], ["r3"])[0]


class TestGraphConnectedTo:
    def test_r_subset_s(self):
        s = simple_system([("r1", "r2", 1)])
        ok, paths = graph_connected_to(s, ["r1"], ["r1", "r2"])
        assert ok and paths["r1"] == ["r1"]

    def test_disconnected(self):
        s = simple_system([("r1", "r2", 0)])
        ok, paths = graph_connected_to(s, ["r1"], ["r2"])
        assert not ok and paths["r1"] is None

    def test_pencil_fixture(self):
        # combinatorial pattern of the pencil example: L = {l12, s_p, s_nu}
        # joined to the vanishing cycles v1, v2 of S through l12
        counts = [
            ("l12", "v1", 1),
            ("l12", "v2", 1),
            ("s_p", "l12", 1),
            ("s_nu", "l12", 1),
        ]
        s = simple_system(counts)
        ok, paths = graph_connected_to(s, ["l12", "s_p", "s_nu"], ["v1", "v2"])
        assert ok
        assert paths["s_p"] == ["s_p", "l12", "v1"]

    def test_monotone_in_s(self):
        counts = [("r1", "m", 1), ("m", "s1", 1)]
        s = simple_system(counts)
        ok1, _ = graph_connected_to(s, ["r1"], ["s1"])
        ok2, _ = graph_connected_to(s, ["r1"], ["s1", "m"])
        assert ok1 and ok2


class TestBuilder:
    def test_embedded_loop(self):
        gp = build_geometric_presentation(SurfaceGroup(1), [(2,)])
        assert gp.genus == 1
        assert gp.crossings == 0
        assert [c.name for c in gp.system.curves] == ["c~0"]
        assert verify_geometric_presentation(gp)["pass"]

    def test_torus_pair(self):
        gp = build_geometric_presentation(SurfaceGroup(1), [(1,), (2,)])
        assert gp.genus == 2
        assert gp.crossings == 1
        names = [c.name for c in gp.system.curves]
        assert names == ["c~0", "c~1", "a2", "b2"]
        assert abelianize(gp.quotient) == AbelianInvariants(0, ())
        assert verify_geometric_presentation(gp)["pass"]

    def test_a_squared(self):
        gp = build_geometric_presentation(SurfaceGroup(1), [(1, 1)])
        assert gp.crossings >= 1
        assert gp.genus == 1 + gp.crossings
        inv = abelianize(gp.quotient)
        assert (inv.free_rank, inv.torsion) == (1, (2,))
        assert verify_geometric_presentation(gp)["pass"]

    def test_empty_relators_rejected(self):
        with pytest.raises(EmptyRelators):
            build_geometric_presentation(SurfaceGroup(1), [])
        with pytest.raises(EmptyRelators):
            build_geometric_presentation(SurfaceGroup(1), [(1, -1)])

    def test_long_cyclic_reduction(self):
        # a1^k b1 a1^-k reduces cyclically to b1 in time linear in k
        k = 300000
        start = time.perf_counter()
        gp = build_geometric_presentation(SurfaceGroup(1), [(1,) * k + (2,) + (-1,) * k])
        assert gp.relators == ((2,),)
        assert time.perf_counter() - start < 1.0

    def test_disconnected_input_is_joined(self):
        # a1 and a2 on genus 2 have no forced crossings; finger moves join them
        gp = build_geometric_presentation(SurfaceGroup(2), [(1,), (3,)])
        rep = verify_geometric_presentation(gp)
        assert rep["union_connected"]
        assert rep["pass"]
        assert gp.crossings == 2  # one finger move

    def test_nonseparating_option(self):
        rel = (1, 2, -1, -2)  # commutator, homologically trivial
        gp = build_geometric_presentation(
            SurfaceGroup(1), [rel], ensure_nonseparating=True
        )
        assert any(
            not c.separating and c.name.startswith("c~") for c in gp.system.curves
        )
        assert verify_geometric_presentation(gp)["pass"]
        # quotient unchanged by the extra handle
        plain = build_geometric_presentation(SurfaceGroup(1), [rel])
        assert abelianize(gp.quotient) == abelianize(plain.quotient)

    def test_random_presentations(self):
        rng = random.Random(20260810)
        for _ in range(20):
            g = rng.randint(1, 3)
            rels = []
            for _ in range(rng.randint(1, 3)):
                length = rng.randint(1, 5)
                word = tuple(
                    rng.choice([1, -1]) * rng.randint(1, 2 * g) for _ in range(length)
                )
                rels.append(word)
            try:
                gp = build_geometric_presentation(SurfaceGroup(g), rels)
            except EmptyRelators:
                continue
            rep = verify_geometric_presentation(gp)
            assert rep["pass"], (g, rels, rep)
            assert gp.genus == g + gp.crossings

    def test_crossings_match_all_pairs_oracle(self):
        # the port-index route against the exact segment route: the same
        # crossing chord pairs in the same order, the same signs, and the
        # same order along every chord, ties included
        def along_chords(crossings):
            hits = {}
            for p, c in enumerate(crossings):
                hits.setdefault(c.branch1, []).append((c.param1, p))
                hits.setdefault(c.branch2, []).append((c.param2, p))
            # per chord, runs of crossings at one point, in order along it
            return {
                chord: [[p for _, p in run] for _, run in groupby(sorted(h), key=itemgetter(0))]
                for chord, h in hits.items()
            }

        # seeded relator sets, powers whose chords share one band, and a set
        # with crossings concurrent on a chord
        concurrent = (3, [
            (-6, -5, -6, -1, 6, 3, -6, -3, -2, -2, -3, -3, -1, 5, 3),
            (-2, -2, -6, 1, -3, 4, 1, -6),
            (-3, 1, 5, 3, 3, -6, 5),
        ])
        rng = random.Random(20261019)
        cases = [(1, [(1,) * 9]), (1, [(1,) * 5, (2,) * 4]), (2, [(1, 3, -1, -3), (2,) * 3]), concurrent]
        for _ in range(40):
            g = rng.randint(1, 3)
            rels = [
                tuple(rng.choice([1, -1]) * rng.randint(1, 2 * g) for _ in range(rng.randint(1, 12)))
                for _ in range(rng.randint(1, 4))
            ]
            cases.append((g, rels))
        for g, rels in cases:
            rels = [r for r in map(cyclic_reduce, rels) if r]
            if not rels:
                continue
            got, want = _hub_crossings(rels, 2 * g, g), hub_crossings_oracle(rels, 2 * g)
            assert [(c.branch1, c.branch2) for c in got] == [(c.branch1, c.branch2) for c in want]
            assert [c.sign for c in got] == [c.sign for c in want], (g, rels)
            assert along_chords(got) == along_chords(want), (g, rels)
            # a finger move's key 0 sorts before every chord crossing
            assert all(c.param1 > 0 and c.param2 > 0 for c in got)
        g, rels = concurrent
        runs = along_chords(_hub_crossings(rels, 2 * g, g)).values()
        assert any(len(run) > 1 for chord in runs for run in chord)

    def test_sparse_and_dense_quotient_diagonals_agree(self):
        def relator(rng, g):
            word = []
            while len(word) < 4 or word[0] == -word[-1]:
                x = rng.choice([1, -1]) * rng.randint(1, 2 * g)
                word = [x] if word and word[-1] == -x else word + [x]
            return tuple(word)

        rng = random.Random(20261018)
        for g in (1, 1, 2, 2, 3):
            rels = [relator(rng, g) for _ in range(rng.randint(2, 3))]
            gp = build_geometric_presentation(SurfaceGroup(g), rels)
            m = gp.quotient.relator_matrix()
            rows = gp.quotient.relator_rows()
            assert smith_diagonal(rows) == smith_normal_form(m).diagonal, (g, rels)


class TestVerifier:
    def test_count_two_pair_fails(self):
        bad = CurveSystem(
            SurfaceData(1),
            (Curve("x", (0, 0), separating=True), Curve("y", (0, 0), separating=True)),
            (("x", "y", 2),),
        )
        gp = build_geometric_presentation(SurfaceGroup(1), [(2,)])
        from dataclasses import replace

        broken = replace(gp, system=bad)
        rep = verify_geometric_presentation(broken)
        assert not rep["pairwise_counts_le_1"]
        assert not rep["pass"]

    def test_disconnected_system_fails(self):
        bad = CurveSystem(
            SurfaceData(1),
            (Curve("x", (0, 0), separating=True), Curve("y", (0, 0), separating=True)),
            (),
        )
        gp = build_geometric_presentation(SurfaceGroup(1), [(2,)])
        from dataclasses import replace

        broken = replace(gp, system=bad)
        rep = verify_geometric_presentation(broken)
        assert not rep["union_connected"]
        assert not rep["pass"]

    def test_class_of_wrong_length_rejected(self):
        with pytest.raises(DimensionMismatch):
            CurveSystem(SurfaceData(2), (Curve("a", (1, 0)), Curve("b", (0, 0, 0, 1))), ())

    def test_count_below_algebraic_rejected(self):
        with pytest.raises(SchemaError):
            CurveSystem(
                SurfaceData(1),
                (Curve("a", (1, 0)), Curve("b", (0, 1))),
                (("a", "b", 0),),
            )
