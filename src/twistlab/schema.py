"""JSON (de)serialization for factorizations, presentations and curve
systems, plus the bundled fixtures.

Word tokens are strings ``gen`` or ``gen^-1`` (any integer power); twist-word
letters are objects {"curve": name, "exponent": int, "conjugator": [...]}
with conjugators nesting recursively.
"""
from __future__ import annotations

import json
import os
from typing import List, Sequence, Tuple

from .errors import BudgetExceeded, SchemaError
from .exact import IntMatrix
from .invariants import Factorization
from .presentations import (
    MAX_WORD_LETTERS,
    FinitePresentation,
    SurfaceGroup,
    Word,
    format_word,
    parse_word,
)
from .surfaces import Curve, SurfaceData
from .systems import CurveSystem
from .words import TwistLetter, TwistWord

_FIXTURE_ENV = "TWISTLAB_FIXTURES"
FIXTURE_NAMES = ("E1", "genus2-paper", "genus3-b1", "wajnryb-map21", "sl2z-amalgam")


# largest genus accepted anywhere: H1 is carried as dense 2g x 2g matrices
MAX_GENUS = 1000
# relator letters of one geometric presentation: its chord pair test is
# quadratic in them whatever the crossings; a1^n alone draws n - 1 crossings,
# so this allows twice the genus budget's crossings on the plainest input
MAX_GEOMPRES_LETTERS = 2 * MAX_GENUS


def _require(cond: bool, msg: str):
    if not cond:
        raise SchemaError(msg)


def check_genus(g, what: str, least: int = 0) -> int:
    """g if it is an int in [least, MAX_GENUS], checked before any work that
    grows with it; BudgetExceeded above the budget."""
    # type() rather than isinstance(): JSON true and false load as bools,
    # which are ints
    _require(type(g) is int and g >= least, f"{what} must be an int >= {least}")
    if g > MAX_GENUS:
        raise BudgetExceeded(f"{what} {g} exceeds the genus budget {MAX_GENUS}")
    return g


def _int_matrix(data, what: str) -> IntMatrix:
    _require(
        isinstance(data, list)
        and all(isinstance(row, list) and all(type(x) is int for x in row) for row in data),
        f"{what} must be a list of lists of ints",
    )
    return IntMatrix(data)


# ---------------------------------------------------------------------------
# factorizations


def factorization_to_dict(f: Factorization) -> dict:
    gens = _surface_generators(f.fiber_genus)
    return {
        "fiber_genus": f.fiber_genus,
        "base_genus": f.base_genus,
        "curves": [_curve_to_dict(c, gens, list(c.homology)) for c in f.curves],
        "word": [_letter_to_dict(l) for l in f.word.letters],
        **(
            {
                "commutator_part": [
                    [[list(r) for r in x.entries], [list(r) for r in y.entries]]
                    for x, y in f.commutator_part
                ]
            }
            if f.commutator_part is not None
            else {}
        ),
    }


def _letter_to_dict(l: TwistLetter) -> dict:
    d = {"curve": l.curve.name, "exponent": l.exponent}
    if l.conjugator is not None:
        d["conjugator"] = [_letter_to_dict(x) for x in l.conjugator.letters]
    return d


def _surface_generators(genus: int) -> List[str]:
    out = []
    for i in range(1, genus + 1):
        out += [f"a{i}", f"b{i}"]
    return out


def factorization_from_dict(data: dict) -> Factorization:
    _require(isinstance(data, dict), "factorization must be an object")
    for key in ("fiber_genus", "base_genus", "curves", "word"):
        _require(key in data, f"missing key {key!r}")
    for key in ("curves", "word"):
        _require(isinstance(data[key], list), f"{key!r} must be a list")
    g = check_genus(data["fiber_genus"], "fiber_genus")
    k = data["base_genus"]
    _require(type(k) is int and k >= 0, "base_genus must be a non-negative int")
    gens = _surface_generators(g)

    curves = {}
    for cd in data["curves"]:
        c = _curve_from_dict(cd, g, gens)
        _require(c.name not in curves, f"duplicate curve {c.name!r}")
        curves[c.name] = c

    def letter_from(d: dict) -> TwistLetter:
        _require(isinstance(d, dict), "word letters must be objects")
        name = d.get("curve")
        _require(isinstance(name, str) and name in curves, f"letter references unknown curve {name!r}")
        exp = d.get("exponent", 1)
        _require(type(exp) is int and exp != 0, "letter exponent must be a nonzero int")
        conj = None
        conj_data = d.get("conjugator")
        _require(
            conj_data is None or isinstance(conj_data, list),
            "a letter's conjugator must be a list of letters",
        )
        if conj_data:
            conj = TwistWord(g, tuple(letter_from(x) for x in conj_data))
        return TwistLetter(curves[name], exp, conjugator=conj)

    word = TwistWord(g, tuple(letter_from(d) for d in data["word"]))

    comm = None
    if data.get("commutator_part") is not None:
        _require(isinstance(data["commutator_part"], list), "commutator_part must be a list")
        pairs = []
        for entry in data["commutator_part"]:
            _require(
                isinstance(entry, list) and len(entry) == 2,
                "commutator_part entries are pairs of matrices",
            )
            pairs.append(tuple(_int_matrix(x, "a commutator_part matrix") for x in entry))
        comm = tuple(pairs)

    return Factorization(
        fiber_genus=g,
        base_genus=k,
        word=word,
        curves=tuple(curves.values()),
        commutator_part=comm,
    )


# ---------------------------------------------------------------------------
# presentations


def _parse_words(words: list, generators: Sequence[str]) -> List[Word]:
    """The relators of one input file.  Each word is bounded by
    MAX_WORD_LETTERS when parsed; BudgetExceeded as soon as the words read
    so far pass it together, so a file never holds more than twice it."""
    out: List[Word] = []
    letters = 0
    for tokens in words:
        out.append(parse_word(tokens, generators))
        letters += len(out[-1])
        if letters > MAX_WORD_LETTERS:
            raise BudgetExceeded(
                f"the relators expand past {MAX_WORD_LETTERS} letters in all"
            )
    return out


def presentation_to_dict(p: FinitePresentation) -> dict:
    return {
        "generators": list(p.generators),
        "relators": [format_word(r, p.generators) for r in p.relators],
    }


def presentation_from_dict(data: dict) -> FinitePresentation:
    _require(isinstance(data, dict), "presentation must be an object")
    gens = data.get("generators")
    _require(
        isinstance(gens, list) and all(isinstance(x, str) for x in gens),
        "generators must be a list of names",
    )
    rels = data.get("relators", [])
    _require(isinstance(rels, list), "relators must be a list of words")
    return FinitePresentation(tuple(gens), tuple(_parse_words(rels, gens)))


def geompres_from_dict(data: dict) -> Tuple[SurfaceGroup, List[Word], bool]:
    """(base group, relators, ensure_nonseparating) of an input
    {"genus": g, "relators": [[token, ...], ...], "ensure_nonseparating": bool}."""
    _require(isinstance(data, dict), "a geometric presentation input must be an object")
    group = SurfaceGroup(check_genus(data.get("genus"), "genus", 1))
    words = data.get("relators", [])
    _require(isinstance(words, list), "relators must be a list of words")
    nonseparating = data.get("ensure_nonseparating", False)
    _require(type(nonseparating) is bool, "ensure_nonseparating must be true or false")
    return group, _parse_words(words, group.generator_names), nonseparating


# ---------------------------------------------------------------------------
# curve systems


def curve_system_to_dict(s: CurveSystem) -> dict:
    """The system for the CLI's JSON writer.  Each homology entry is the
    curve's own HomologyClass, which the writer prints as its dense list: a
    built system's dense classes run to megabytes of text, but their
    supports are short."""
    gens = _surface_generators(s.surface.genus)
    return {
        "genus": s.surface.genus,
        "curves": [_curve_to_dict(c, gens, c.homology) for c in s.curves],
        "intersections": [[a, b, k] for a, b, k in s.intersections],
    }


def curve_system_from_dict(data: dict) -> CurveSystem:
    _require(isinstance(data, dict), "curve system must be an object")
    g = check_genus(data.get("genus"), "genus")
    gens = _surface_generators(g)
    curves, inter = data.get("curves", []), data.get("intersections", [])
    _require(isinstance(curves, list), "'curves' must be a list")
    _require(
        isinstance(inter, list)
        and all(
            isinstance(t, list) and len(t) == 3 and isinstance(t[0], str)
            and isinstance(t[1], str) and type(t[2]) is int
            for t in inter
        ),
        "intersections must be a list of [name, name, int] triples",
    )
    return CurveSystem(
        SurfaceData(g),
        tuple(_curve_from_dict(cd, g, gens) for cd in curves),
        tuple(tuple(t) for t in inter),
    )


# ---------------------------------------------------------------------------
# curves


def _curve_from_dict(cd, genus: int, gens: List[str]) -> Curve:
    _require(isinstance(cd, dict), "curve entries must be objects")
    name = cd.get("name")
    _require(isinstance(name, str) and name, "curve needs a name")
    hom = cd.get("homology")
    _require(
        isinstance(hom, list) and len(hom) == 2 * genus and all(type(x) is int for x in hom),
        f"curve {name}: homology must be a list of {2 * genus} ints",
    )
    separating = cd.get("separating", not any(hom))
    _require(type(separating) is bool, f"curve {name}: separating must be true or false")
    word = cd.get("word")
    # Curve's own checks name the curve in their messages
    return Curve(name, tuple(hom), separating, None if word is None else parse_word(word, gens))


def _curve_to_dict(c: Curve, gens: List[str], homology) -> dict:
    d = {"name": c.name, "homology": homology, "separating": c.separating}
    if c.word is not None:
        d["word"] = format_word(c.word, gens)
    return d


# ---------------------------------------------------------------------------
# files and fixtures


def load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as ex:
        raise SchemaError(f"cannot read {path}: {ex}")


def fixtures_dir() -> str:
    override = os.environ.get(_FIXTURE_ENV)
    if override:
        return override
    return os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_path(name: str) -> str:
    path = os.path.join(fixtures_dir(), f"{name}.json")
    if not os.path.exists(path):
        raise SchemaError(f"no fixture {name!r} at {path}")
    return path


def load_fixture(name: str):
    data = load_json(fixture_path(name))
    if "generators" in data:
        return presentation_from_dict(data)
    return factorization_from_dict(data)
