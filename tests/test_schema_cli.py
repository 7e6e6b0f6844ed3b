import contextlib
import io
import json
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import CURVE_A
from twistlab.cli import _emit, _json_pieces, main
from twistlab.errors import BudgetExceeded, SchemaError
from twistlab.invariants import Factorization
from twistlab.schema import (
    FIXTURE_NAMES,
    MAX_GENUS,
    check_genus,
    curve_system_from_dict,
    curve_system_to_dict,
    factorization_from_dict,
    factorization_to_dict,
    fixture_path,
    geompres_from_dict,
    load_fixture,
    presentation_from_dict,
    presentation_to_dict,
)
from twistlab.surfaces import Curve, HomologyClass, SurfaceData
from twistlab.systems import CurveSystem
from twistlab.words import TwistLetter, TwistWord


class TestRoundTrips:
    def test_factorization_fixtures(self):
        for name in ("E1", "genus2-paper", "genus3-b1"):
            f = load_fixture(name)
            d = factorization_to_dict(f)
            f2 = factorization_from_dict(json.loads(json.dumps(d)))
            assert f2.fiber_genus == f.fiber_genus
            assert f2.word == f.word
            assert f2.curves == f.curves

    def test_presentation_fixtures(self):
        for name in ("wajnryb-map21", "sl2z-amalgam"):
            p = load_fixture(name)
            d = presentation_to_dict(p)
            assert presentation_from_dict(json.loads(json.dumps(d))) == p

    def test_conjugated_letters_round_trip(self):
        data = {
            "fiber_genus": 1,
            "base_genus": 0,
            "curves": [
                {"name": "a", "homology": [1, 0]},
                {"name": "b", "homology": [0, 1]},
            ],
            "word": [
                {
                    "curve": "a",
                    "exponent": 2,
                    "conjugator": [{"curve": "b", "exponent": -1}],
                }
            ],
        }
        f = factorization_from_dict(data)
        assert f.word.letters[0].conjugator is not None
        d = factorization_to_dict(f)
        f2 = factorization_from_dict(d)
        assert f2.word == f.word

    def test_higher_base_commutator_part(self):
        data = {
            "fiber_genus": 1,
            "base_genus": 1,
            "curves": [
                {"name": "a", "homology": [1, 0]},
                {"name": "b", "homology": [0, 1]},
            ],
            "word": [{"curve": "a", "exponent": 1}, {"curve": "b", "exponent": 1}] * 6,
            "commutator_part": [[[[1, 1], [0, 1]], [[1, 1], [0, 1]]]],
        }
        f = factorization_from_dict(data)
        ok, _ = f.verify_homological()
        assert ok  # (t_a t_b)^6 = I = [X, X]
        d = factorization_to_dict(f)
        f2 = factorization_from_dict(json.loads(json.dumps(d)))
        assert f2.commutator_part == f.commutator_part

    def test_curve_system(self):
        s = CurveSystem(
            SurfaceData(1),
            (Curve("a", (1, 0), word=(1,)), Curve("b", (0, 1))),
            (("a", "b", 1),),
        )
        # the dict holds HomologyClass objects, which the CLI's writer prints
        # as dense lists
        text = "".join(_json_pieces(curve_system_to_dict(s), "\n"))
        s2 = curve_system_from_dict(json.loads(text))
        assert s2.curves == s.curves
        assert s2.intersections == s.intersections

    @pytest.mark.parametrize(
        "data",
        [
            [1],
            {"genus": 1, "curves": [{"homology": [1, 0]}]},
            {"genus": 1, "curves": [5]},
            {"genus": 1, "curves": 5},
            {"genus": 1, "curves": [{"name": "a", "homology": [1.5, 0]}]},
            {"genus": 1, "curves": [{"name": "a", "homology": [1, 0], "separating": "x"}]},
            {"genus": 1, "curves": [{"name": "a", "homology": [1, 0]}], "intersections": [["a", "a", "x"]]},
            {"genus": 1, "curves": [{"name": "a", "homology": [1, 0]}], "intersections": [["a", "a"]]},
            {"genus": 1, "curves": [{"name": "a", "homology": [1, 0]}], "intersections": [[[], "a", 0]]},
            {"genus": 1, "curves": [{"name": "a", "homology": [1, 0]}], "intersections": 5},
            {"genus": MAX_GENUS + 1},
        ],
    )
    def test_curve_system_errors(self, data):
        with pytest.raises(SchemaError):
            curve_system_from_dict(data)

    def test_genus_budget_bounds(self):
        assert check_genus(MAX_GENUS, "genus") == MAX_GENUS
        with pytest.raises(BudgetExceeded):
            check_genus(MAX_GENUS + 1, "genus")
        with pytest.raises(SchemaError):
            check_genus(0, "genus", 1)

    @pytest.mark.parametrize(
        "read, data",
        [
            (geompres_from_dict, {"genus": 1, "relators": [["a1^400000"]] * 5}),
            (presentation_from_dict, {"generators": ["a1"], "relators": [["a1^400000"]] * 5}),
        ],
    )
    def test_file_letter_budget(self, read, data):
        # each word is within the 10^6-letter word budget, the file is not
        with pytest.raises(BudgetExceeded, match="in all"):
            read(data)
        data["relators"] = data["relators"][:2]
        read(data)  # 800000 letters in all

    def test_schema_errors(self):
        with pytest.raises(SchemaError):
            factorization_from_dict({"fiber_genus": 1})
        with pytest.raises(SchemaError):
            factorization_from_dict(
                {
                    "fiber_genus": 1,
                    "base_genus": 0,
                    "curves": [{"name": "a", "homology": [1, 0, 0]}],
                    "word": [],
                }
            )


class TestFixtureBundle:
    def test_all_fixtures_verify(self):
        from twistlab.presentations import abelianize

        for name in FIXTURE_NAMES:
            obj = load_fixture(name)
            if isinstance(obj, Factorization):
                ok, _ = obj.verify_homological()
                assert ok, name
            else:
                abelianize(obj)  # just must not raise

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TWISTLAB_FIXTURES", str(tmp_path))
        with pytest.raises(SchemaError):
            fixture_path("E1")

    def test_reports_are_deterministic(self):
        from twistlab.invariants import invariant_report

        f = load_fixture("E1")
        r1 = invariant_report(f).to_dict()
        r2 = invariant_report(load_fixture("E1")).to_dict()
        assert r1 == r2


class TestCli:
    def test_verify_fixture_passes(self, capsys):
        assert main(["verify", fixture_path("genus2-paper")]) == 0
        assert "relation_verified_homologically: True" in capsys.readouterr().out

    def test_verify_tampered_exponent(self, tmp_path, capsys):
        data = json.load(open(fixture_path("E1")))
        data["word"][0]["exponent"] = 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert main(["verify", str(bad)]) == 2

    def test_verify_prints_the_dense_residual(self, tmp_path, capsys):
        # E1 with one more t_a at genus 1 leaves A; at genus 3 the word's
        # value is the identity outside the rows it touched
        for genus, residual in ((1, [[1, 1], [0, 1]]), (3, None)):
            data = json.load(open(fixture_path("E1")))
            data["fiber_genus"] = genus
            for c in data["curves"]:
                c["homology"] += [0] * (2 * genus - 2)
            data["word"].append({"curve": "a"})
            path = tmp_path / "tampered.json"
            path.write_text(json.dumps(data))
            assert main(["verify", str(path), "--json"]) == 2
            out = json.loads(capsys.readouterr().out)
            if residual is None:
                residual = [[int(i == j) for j in range(6)] for i in range(6)]
                residual[0][1] = 1
            assert out["residual"] == residual

    @pytest.mark.parametrize("command", ["verify", "invariants"])
    def test_empty_word_at_the_genus_budget(self, tmp_path, capsys, command):
        # the word's value is the identity plus the rows it touched: none
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"fiber_genus": MAX_GENUS, "base_genus": 0, "curves": [], "word": []}))
        start = time.perf_counter()
        assert main([command, str(path), "--json"]) == 0
        assert time.perf_counter() - start < 0.25
        out = json.loads(capsys.readouterr().out)
        assert out["relation_verified_homologically"] is True

    def test_verify_malformed_json(self, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad)]) == 1

    def test_invariants_e1(self, capsys):
        assert main(["invariants", fixture_path("E1"), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mu"] == 12
        assert out["euler"] == 12
        assert out["b1"] == 0
        assert out["signature"] == -8
        assert out["lambda"] == "1"

    def test_invariants_external_signature(self, capsys):
        code = main(
            ["invariants", fixture_path("genus3-b1"), "--signature", "-8", "--json"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["signature"] == -8
        assert out["signature_provenance"] == "external"
        assert out["lambda"] == "2"
        assert "pass" in out["liu_status"]

    @pytest.mark.parametrize(
        "signature, provenance", [(None, "unknown"), ("-9", "external")], ids=["unknown", "external"]
    )
    def test_invariants_failed_relation(self, tmp_path, capsys, signature, provenance):
        # the same file verify rejects with exit 2; mu = 13, so an external
        # signature of -9 gives an integer lambda
        data = json.load(open(fixture_path("E1")))
        data["word"][0]["exponent"] = 2
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        argv = ["invariants", str(path), "--json"]
        if signature is not None:
            argv += ["--signature", signature]
        assert main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["relation_verified_homologically"] is False
        assert out["signature_provenance"] == provenance
        assert out["szpiro"] is None

    def test_invariants_separating_contradiction(self, tmp_path, capsys):
        data = {
            "fiber_genus": 2,
            "base_genus": 0,
            "curves": [{"name": "s", "homology": [0, 0, 0, 0], "separating": True}],
            "word": [{"curve": "s", "exponent": 5}],
        }
        path = tmp_path / "sep.json"
        path.write_text(json.dumps(data))
        assert main(["invariants", str(path)]) == 3

    def test_geompres(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"genus": 1, "relators": [["a1"], ["b1"]]}))
        assert main(["geompres", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["genus"] == 2
        assert out["verification"]["pass"]

    def test_geompres_single_loop(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"genus": 1, "relators": [["b1"]]}))
        assert main(["geompres", str(path), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["genus"] == 1

    def test_geompres_empty_relators(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"genus": 1, "relators": []}))
        assert main(["geompres", str(path)]) == 1

    def test_metaplectic_central(self, capsys):
        assert main(["metaplectic", "(a b)^6", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"] == [[1, 0], [0, 1]]
        assert out["n"] == 4
        assert out["boundary_multiplicity"] == 1
        assert out["sigma_squared"] == -1

    def test_metaplectic_higher_power(self, capsys):
        assert main(["metaplectic", "(a b)^12", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["boundary_multiplicity"] == 2

    def test_metaplectic_not_central(self, capsys):
        assert main(["metaplectic", "a", "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["central"] is False

    def test_metaplectic_parse_error(self):
        assert main(["metaplectic", "a^"]) == 1

    def test_cover_torus(self, capsys):
        assert main(["cover", "--genus", "1", "--chi", "1,0", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover_h1"] == "Z^2"

    def test_cover_pipeline(self, capsys):
        code = main(
            [
                "cover", "--genus", "2", "--chi", "0,1,0,0",
                "--loop", "a1",
                "--loop", "a1 b1^-1",
                "--loop", "b1^-1 a2^-1",
                "--loop", "b1^-1 a2^-1 b2",
                "--loop", "b1^-1 b2",
                "--json",
            ]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover_h1"] == "Z^6"
        assert out["span_rank"] == 4
        assert len(out["loops"][0]["lift_classes"]) == 2

    def test_cover_zero_character(self):
        assert main(["cover", "--genus", "1", "--chi", "0,0"]) == 1

    def test_abelianize(self, capsys):
        assert main(["abelianize", fixture_path("wajnryb-map21"), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["torsion"] == [10]
        assert out["free_rank"] == 0

    def test_fixtures_listing(self, capsys):
        assert main(["fixtures", "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert set(out["fixtures"]) == set(FIXTURE_NAMES)


class TestOneEvaluation:
    """Each genus-1 command evaluates its word in the metaplectic group once,
    with the Maslov cross-check on."""

    @staticmethod
    def count_evaluations(monkeypatch):
        import twistlab.metaplectic as meta

        original = meta.evaluate_meta_word
        calls = []

        def counted(word, *rest):
            calls.append(word)
            return original(word, *rest)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("twistlab"):
                if getattr(mod, "evaluate_meta_word", None) is original:
                    monkeypatch.setattr(mod, "evaluate_meta_word", counted)
        return calls

    def test_invariants_evaluates_once(self, monkeypatch, capsys):
        calls = self.count_evaluations(monkeypatch)
        assert main(["invariants", fixture_path("E1"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["szpiro"]["n"] == 1
        assert len(calls) == 1

    def test_metaplectic_evaluates_once(self, monkeypatch, capsys):
        calls = self.count_evaluations(monkeypatch)
        assert main(["metaplectic", "(a b)^6", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["boundary_multiplicity"] == 1
        assert len(calls) == 1

    def test_huge_power_finishes(self, capsys):
        assert main(["metaplectic", "a^99999999999", "--json"]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["matrix"] == [[1, 99999999999], [0, 1]]
        assert out["n"] == 0
        assert out["central"] is False

    def test_huge_fixture_exponent_finishes(self, tmp_path, capsys):
        # the lift takes logarithmically many steps in the matrix entries
        data = json.load(open(fixture_path("E1")))
        data["word"][0]["exponent"] = 10**9
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        start = time.perf_counter()
        assert main(["invariants", str(path), "--json"]) == 2
        assert time.perf_counter() - start < 1.0

    def test_maslov_cross_check_runs(self, monkeypatch, capsys):
        import twistlab.metaplectic as meta

        monkeypatch.setattr(meta, "_maslov_closed_form", lambda l1, l2, l3: 2)
        assert main(["invariants", fixture_path("E1"), "--json"]) == 1
        assert "maslov cross-check failed" in capsys.readouterr().err

    def test_invariants_takes_one_homological_product(self, monkeypatch, capsys):
        # the relation check and the genus-1 lift read the same product
        import twistlab.words as words

        original = words.evaluate_homological
        calls = []

        def counted(word):
            calls.append(word)
            return original(word)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("twistlab"):
                if getattr(mod, "evaluate_homological", None) is original:
                    monkeypatch.setattr(mod, "evaluate_homological", counted)
        assert main(["invariants", fixture_path("E1"), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["szpiro"]["n"] == 1
        assert len(calls) == 1

    def test_homological_cross_check_runs(self, monkeypatch, capsys):
        # the command's one homological product, off by a factor of A, fails
        # the relation and has no lift with the word's exponent sum
        import twistlab.invariants as inv

        original = inv.evaluate_homological

        def off(word):
            return original(TwistWord(word.genus, word.letters + (TwistLetter(CURVE_A),)))

        monkeypatch.setattr(inv, "evaluate_homological", off)
        assert main(["invariants", fixture_path("E1"), "--json"]) == 1
        assert "homological cross-check failed" in capsys.readouterr().err


class TestInputErrors:
    """Malformed input ends in exit 1 with a message, never a traceback."""

    @staticmethod
    def run(argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert "input error" in err
        assert "Traceback" not in err
        return code

    @pytest.mark.parametrize(
        "relators", [[[5]], [["a1^x"]], [5], 5], ids=["int-token", "bad-power", "int-relator", "int"]
    )
    def test_abelianize_malformed_relators(self, tmp_path, capsys, relators):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"generators": ["a1"], "relators": relators}))
        assert self.run(["abelianize", str(path)], capsys) == 1

    @pytest.mark.parametrize(
        "data", [{"genus": 1, "relators": [[5]]}, {"genus": 1, "relators": 5}, [1]],
        ids=["int-token", "int-relators", "not-an-object"],
    )
    def test_geompres_malformed_input(self, tmp_path, capsys, data):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert self.run(["geompres", str(path)], capsys) == 1

    def test_cover_malformed_loop(self, capsys):
        argv = ["cover", "--genus", "1", "--chi", "1,0", "--loop", "a1^x"]
        assert self.run(argv, capsys) == 1

    def test_cover_malformed_chi(self, capsys):
        assert self.run(["cover", "--genus", "1", "--chi", "1,x"], capsys) == 1

    def test_cover_word_power_budget(self, capsys):
        # a power is checked against the word budget before it is expanded
        start = time.perf_counter()
        argv = ["cover", "--genus", "1", "--chi", "1,0", "--loop", "a1^99999999999"]
        assert self.run(argv, capsys) == 1
        assert time.perf_counter() - start < 1.0

    def test_missing_fixture_directory(self, monkeypatch, capsys):
        monkeypatch.setenv("TWISTLAB_FIXTURES", "/nonexistent")
        assert self.run(["fixtures"], capsys) == 1

    @pytest.mark.parametrize("command", ["verify", "invariants"])
    @pytest.mark.parametrize("where", ["fiber_genus", "base_genus", "exponent"])
    def test_json_boolean_is_not_an_integer(self, tmp_path, capsys, command, where):
        data = json.load(open(fixture_path("E1")))
        if where == "exponent":
            data["word"][0]["exponent"] = True
        else:
            data[where] = True if where == "fiber_genus" else False
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        assert self.run([command, str(path)], capsys) == 1

    @pytest.mark.parametrize("command", ["verify", "invariants"])
    @pytest.mark.parametrize(
        "where, value",
        [
            ("curves", 5),
            ("word", 5),
            ("conjugator", 5),
            ("commutator_part", [[5, 5]]),
            ("commutator_part", [[[["x", 0], [0, 1]], [[1, 0], [0, 1]]]]),
            ("commutator_part", [[[[True, 0], [0, 1]], [[1, 0], [0, 1]]]]),
        ],
        ids=["curves", "word", "conjugator", "matrix-int", "matrix-entry-str", "matrix-entry-bool"],
    )
    def test_factorization_malformed_types(self, tmp_path, capsys, command, where, value):
        data = json.load(open(fixture_path("E1")))
        if where == "conjugator":
            data["word"][0]["conjugator"] = value
        else:
            data[where] = value
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        assert self.run([command, str(path)], capsys) == 1

    @pytest.mark.parametrize(
        "word", ["a^+", "[a]", "(a)^99999999999", "((a b)^100000)^100000"],
        ids=["bare-sign", "end-of-input", "group-power", "nested-group-power"],
    )
    def test_metaplectic_malformed_word(self, capsys, word):
        start = time.perf_counter()
        assert main(["metaplectic", word]) == 1
        err = capsys.readouterr().err
        assert "input error" in err
        assert "Traceback" not in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("where", ["letter", "conjugator"])
    def test_non_primitive_genus1_class(self, tmp_path, capsys, where):
        data = json.load(open(fixture_path("E1")))
        if where == "letter":
            data["curves"][0]["homology"] = [5, 0]
            del data["curves"][0]["word"]
        else:
            data["curves"].append({"name": "c", "homology": [2, 0], "separating": False})
            data["word"][0]["conjugator"] = [{"curve": "c", "exponent": 1}]
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        assert main(["invariants", str(path)]) == 1
        err = capsys.readouterr().err
        assert "must be primitive" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", [[], {}, 5, None])
    def test_letter_curve_not_a_name(self, tmp_path, capsys, name):
        data = json.load(open(fixture_path("E1")))
        data["word"][3]["curve"] = name
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        assert self.run(["invariants", str(path)], capsys) == 1

    @pytest.mark.parametrize("entry", [1.5, True, "1", None])
    def test_homology_entries_are_ints(self, tmp_path, capsys, entry):
        data = json.load(open(fixture_path("E1")))
        data["curves"][0]["homology"] = [entry, 0]
        del data["curves"][0]["word"]
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        assert self.run(["verify", str(path)], capsys) == 1

    def test_curve_error_named_once(self, tmp_path, capsys):
        data = json.load(open(fixture_path("E1")))
        data["curves"][0]["separating"] = True
        path = tmp_path / "e1.json"
        path.write_text(json.dumps(data))
        code = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("curve a:") == 1, err

    @pytest.mark.parametrize(
        "where, value",
        [("genus", 10**9), ("fiber_genus", 10**9), ("--genus", 10**9), ("fiber_genus", MAX_GENUS + 1),
         ("relators", "a1^100000"), ("relators", "a1^1500")],
    )
    def test_genus_budget(self, tmp_path, capsys, where, value):
        # checked before any per-generator work; a geometric presentation's
        # letters before its chords, and its built genus g + crossings
        # (a1^n has n - 1) as the crossings are counted
        path = tmp_path / "in.json"
        if where == "genus":
            path.write_text(json.dumps({"genus": value, "relators": [["a1"]]}))
            argv = ["geompres", str(path)]
        elif where == "relators":
            path.write_text(json.dumps({"genus": 1, "relators": [[value]]}))
            argv = ["geompres", str(path)]
        elif where == "fiber_genus":
            path.write_text(json.dumps({"fiber_genus": value, "base_genus": 0, "curves": [], "word": []}))
            argv = ["verify", str(path)]
        else:
            argv = ["cover", "--genus", str(value), "--chi", "1,0"]
        start = time.perf_counter()
        assert self.run(argv, capsys) == 1
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("value", ["no", 0, None])
    def test_geompres_nonseparating_is_a_boolean(self, tmp_path, capsys, value):
        data = {"genus": 1, "relators": [["a1", "b1", "a1^-1", "b1^-1"]], "ensure_nonseparating": value}
        path = tmp_path / "p.json"
        path.write_text(json.dumps(data))
        assert self.run(["geompres", str(path)], capsys) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["cover", "--genus", "x", "--chi", "1,0"],
            ["cover", "--genus", "1"],
            ["frob"],
            [],
            ["verify"],
            ["invariants", "--signature", "x"],
            ["fixtures", "--bogus"],
        ],
        ids=["int-option", "missing-option", "unknown-command", "empty", "missing-file",
             "int-signature", "unknown-option"],
    )
    def test_malformed_command_line(self, capsys, argv):
        # argparse's own exit 2 would read as a failed relation
        assert self.run(argv, capsys) == 1

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as ex:
            main(["cover", "--help"])
        assert ex.value.code == 0
        assert "--genus" in capsys.readouterr().out

    def test_geompres_boolean_genus(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"genus": True, "relators": [["a1"]]}))
        assert self.run(["geompres", str(path)], capsys) == 1


class TestOneSmithForm:
    """The cover command takes the cover's quotient coordinates and its H1
    from one Smith normal form; the span rank uses none.  The dense Smith
    forms of a geompres command see only what unit pivots leave."""

    @staticmethod
    def count_smith_forms(monkeypatch):
        import twistlab.exact as exact

        original = exact.smith_normal_form
        calls = []

        def counted(a):
            calls.append((a.rows, a.cols))
            return original(a)

        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("twistlab"):
                if getattr(mod, "smith_normal_form", None) is original:
                    monkeypatch.setattr(mod, "smith_normal_form", counted)
        return calls

    def test_cover_runs_one_smith_form(self, monkeypatch, capsys):
        calls = self.count_smith_forms(monkeypatch)
        argv = ["cover", "--genus", "2", "--chi", "0,1,0,0", "--loop", "a1", "--loop", "b1 a2", "--json"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cover_h1"] == "Z^6"
        assert out["span_rank"] == 2
        assert len(calls) == 1

    def test_geompres_smith_forms_stay_small(self, tmp_path, monkeypatch, capsys):
        # 101 crossings give 202 one-letter handle relators; the dense Smith
        # form receives at most the rows of pi_2 modulo the three relators
        relators = [
            ["b2^-1", "a2", "b2^-2", "b1^-1", "a2", "a1", "b1^-1"],
            ["a1^-1", "a2", "a1^-1", "b2^-1", "b1^-1", "b2^-1", "a1^-2"],
            ["a2^-1", "b1^2", "b2", "a1", "b2^-1", "a2", "a1^-1"],
        ]
        path = tmp_path / "geompres.json"
        path.write_text(json.dumps({"genus": 2, "relators": relators}))
        calls = self.count_smith_forms(monkeypatch)
        assert main(["geompres", str(path), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["crossings"] == 101
        assert out["verification"]["pass"]
        assert all(rows <= 2 * 2 + len(relators) for rows, _ in calls), calls


# homology classes as the geompres writer receives them: leading and
# trailing zeros, the zero class, negative, multi-digit and big coefficients
homology_classes = st.lists(
    st.sampled_from((0, 0, 0, 0, 1, -1, 12, -7)) | st.integers(-10**40, 10**40), max_size=24
).map(HomologyClass.from_dense)


def densify(v):
    """The payload with each HomologyClass as its dense list."""
    if isinstance(v, HomologyClass):
        return list(v)
    if isinstance(v, dict):
        return {k: densify(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [densify(x) for x in v]
    return v


@settings(max_examples=100, deadline=None)
@given(homology_classes, st.integers(0, 3))
def test_class_text_matches_stdlib_json(h, depth):
    indent = "\n" + " " * depth
    expected = json.dumps(list(h), indent=1).replace("\n", indent)
    assert "".join(_json_pieces(h, indent)) == expected


# JSON values as the commands build them, and more: nested str-keyed dicts,
# lists and tuples, empty containers, int lists and other lists of scalars
# (the writer's joined cases) and ints beside bools, None, strings with
# escapes and non-ASCII, and a Fraction, which is not JSON and takes
# default=str; and homology classes, written as dense lists
json_values = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.text(), st.fractions(),
        st.lists(st.integers()), st.lists(st.one_of(st.integers(), st.booleans())),
        homology_classes,
    ),
    lambda inner: st.one_of(
        st.lists(inner), st.lists(inner).map(tuple), st.dictionaries(st.text(), inner)
    ),
    max_leaves=10,
)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(), json_values, max_size=5))
def test_emit_matches_stdlib_json(payload):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit(payload, True)
    assert out.getvalue() == json.dumps(densify(payload), indent=1, default=str) + "\n"
