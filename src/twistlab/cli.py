"""twistlab command-line interface.

Exit codes: 0 pass, 1 input error, 2 verification failure, 3 certificate
contradiction.
"""
from __future__ import annotations

import argparse
import json
import sys

from .errors import SchemaError, TwistlabError
from .exact import IntMatrix, rank_over_rationals
from .invariants import invariant_report
from .metaplectic import central_multiplicity, evaluate_meta_word, parse_meta_word, szpiro_report
from .presentations import (
    AbelianInvariants,
    SurfaceGroup,
    abelianize,
    lift_loop,
    parse_word,
    reidemeister_schreier_double_cover,
)
from .schema import (
    FIXTURE_NAMES,
    check_genus,
    curve_system_to_dict,
    factorization_from_dict,
    fixture_path,
    fixtures_dir,
    geompres_from_dict,
    load_json,
    presentation_from_dict,
)
from .surfaces import HomologyClass
from .systems import build_geometric_presentation, verify_geometric_presentation
from .words import is_positive

E_OK, E_INPUT, E_VERIFY, E_CONTRADICTION = 0, 1, 2, 3


# the scalars' encoder: json.dumps(v, default=str) without a new encoder per call
_SCALAR = json.JSONEncoder(default=str).encode
# what that encoder calls for a str
_STR = json.encoder.encode_basestring_ascii
# what the writer does not print as a scalar
_NESTED = (dict, list, tuple, HomologyClass)


def _scalar(v) -> str:
    if type(v) is str:
        return _STR(v)
    if type(v) is int:  # bools are not ints here
        return repr(v)
    if type(v) is bool:
        return "true" if v else "false"
    return _SCALAR(v)


def _class_text(h: HomologyClass, indent: str) -> str:
    """json.dumps(list(h), indent=1) for a list whose first line starts at
    `indent`, from the support: each run of zeros is one repeated string."""
    if not h.dim:
        return "[]"
    inner = indent + " "
    sep = "," + inner
    zero = "0" + sep
    parts = ["[", inner]
    at = 0
    for j, x in h.support:
        parts += (zero * (j - at), repr(x), sep)
        at = j + 1
    if at == h.dim:
        parts[-1] = indent + "]"
    else:
        parts.append(zero * (h.dim - at - 1) + "0" + indent + "]")
    return "".join(parts)


def _key(k) -> str:
    """A dict key's text and colon; a key that is not a str is written as
    the string of its JSON text."""
    return _STR(k if isinstance(k, str) else _SCALAR(k)) + ": "


def _flat_text(v, indent: str):
    """The text of v as one piece when it is flat: a scalar, a
    HomologyClass, an empty container, a list of scalars, or a dict of flat
    values, as a curve is.  None for what holds a list of containers at
    any depth."""
    if isinstance(v, HomologyClass):
        return _class_text(v, indent)
    if not isinstance(v, (dict, list, tuple)):
        return _scalar(v)
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner = indent + " "
    if isinstance(v, dict):
        parts = []
        for k, x in v.items():
            text = _flat_text(x, inner)
            if text is None:
                return None
            parts.append(inner + _key(k) + text)
        return "{" + ",".join(parts) + indent + "}"
    types = set(map(type, v))
    if types == {int}:
        text = map(repr, v)
    elif any(issubclass(t, _NESTED) for t in types):
        return None
    else:
        text = map(_scalar, v)
    return "[" + inner + ("," + inner).join(text) + indent + "]"


def _json_pieces(v, indent: str):
    """The text of json.dumps(v, indent=1, default=str) in pieces, for a
    value whose first line starts at `indent` (a newline and its spaces),
    with a HomologyClass written as its dense list.

    Each flat value (``_flat_text``), such as a curve with its dense class,
    its word's tokens or an intersection triple, is one piece joined at C
    speed; the stdlib's indenting encoder runs in Python per entry.
    """
    text = _flat_text(v, indent)
    if text is not None:
        yield text
        return
    inner = indent + " "
    if isinstance(v, dict):
        items = ((_key(k), x) for k, x in v.items())
        sep, close = "{", indent + "}"
    else:
        items = (("", x) for x in v)
        sep, close = "[", indent + "]"
    for head, x in items:
        text = _flat_text(x, inner)
        if text is None:
            yield sep + inner + head
            yield from _json_pieces(x, inner)
        else:
            yield sep + inner + head + text
        sep = ","
    yield close


def _emit(payload: dict, as_json: bool):
    if as_json:
        # streamed: a geompres system runs to megabytes of text
        sys.stdout.writelines(_json_pieces(payload, "\n"))
        sys.stdout.write("\n")
    else:
        for k, v in payload.items():
            print(f"{k}: {v}")


def cmd_verify(args) -> int:
    f = factorization_from_dict(load_json(args.file))
    ok, residual = f.verify_homological()
    payload = {
        "relation_verified_homologically": ok,
        "note": "mapping-class-group identity assumed as input",
    }
    if not ok:
        payload["residual"] = [list(r) for r in residual.entries]
    _emit(payload, args.json)
    return E_OK if ok else E_VERIFY


def cmd_invariants(args) -> int:
    f = factorization_from_dict(load_json(args.file))
    rep = invariant_report(f, external_signature=args.signature)
    _emit(rep.to_dict(), args.json)
    if not rep.relation_verified:
        return E_VERIFY
    if not rep.torelli_ok:
        return E_CONTRADICTION
    return E_OK


def cmd_geompres(args) -> int:
    group, relators, ensure_nonseparating = geompres_from_dict(load_json(args.file))
    gp = build_geometric_presentation(group, relators, ensure_nonseparating)
    report = verify_geometric_presentation(gp)
    payload = {
        "genus": gp.genus,
        "crossings": gp.crossings,
        "system": curve_system_to_dict(gp.system),
        "verification": report,
    }
    if args.json:
        _emit(payload, True)
    else:
        print(f"genus e = {gp.genus} (base {gp.base.genus} + {gp.crossings} crossings)")
        print(f"curves: {[c.name for c in gp.system.curves]}")
        edges = [f"{a}-{b}:{k}" for a, b, k in gp.system.intersections if k]
        print(f"dual graph edges: {edges}")
        for k, v in report.items():
            print(f"{k}: {v}")
    return E_OK if report["pass"] else E_VERIFY


def cmd_metaplectic(args) -> int:
    word = parse_meta_word(args.word)
    value = evaluate_meta_word(word)
    payload = {"matrix": [list(r) for r in value.matrix], "n": value.n}
    if is_positive(word):
        # centrality, n and the Szpiro data all come from the one evaluation
        n = central_multiplicity(value)
        if n is None:
            payload["central"] = False
            payload["residual"] = {"matrix": payload["matrix"], "n": value.n}
            _emit(payload, args.json)
            return E_VERIFY
        rep = szpiro_report(word, n)
        payload.update(
            central=True,
            boundary_multiplicity=rep.n,
            sum_exponents=rep.sum_exponents,
            syllables=rep.syllables,
            sigma_squared=rep.sigma_squared,
            szpiro_passes=rep.passes,
        )
    _emit(payload, args.json)
    return E_OK


def cmd_cover(args) -> int:
    try:
        chi = tuple(int(x) for x in args.chi.split(","))
    except ValueError:
        raise SchemaError(f"--chi takes comma-separated integers, not {args.chi!r}") from None
    group = SurfaceGroup(check_genus(args.genus, "--genus", 1))
    cover = reidemeister_schreier_double_cover(group, chi)
    payload = {
        "cover_generators": list(cover.cover_presentation.generators),
        # free, as the cover's constructor checks
        "cover_h1": str(AbelianInvariants(cover.homology_dim(), ())),
        "loops": [],
    }
    classes = []
    gens = group.generator_names
    for loop in args.loop or []:
        w = parse_word(loop.split(), gens)
        res = lift_loop(cover, w)
        payload["loops"].append(
            {
                "loop": loop,
                "chi": res.chi_value,
                "lift_classes": [list(c) for c in res.classes],
            }
        )
        classes.extend(res.classes)
    if classes:
        payload["span_rank"] = rank_over_rationals(IntMatrix(classes))
    _emit(payload, args.json)
    return E_OK


def cmd_abelianize(args) -> int:
    inv = abelianize(presentation_from_dict(load_json(args.file)))
    _emit(
        {
            "free_rank": inv.free_rank,
            "torsion": list(inv.torsion),
            "group": str(inv),
        },
        args.json,
    )
    return E_OK


def cmd_fixtures(args) -> int:
    payload = {
        "directory": fixtures_dir(),
        "fixtures": {name: fixture_path(name) for name in FIXTURE_NAMES},
    }
    _emit(payload, args.json)
    return E_OK


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as an input error; argparse's own
    exit code 2 would read as a failed relation."""

    def error(self, message):
        raise SchemaError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="twistlab",
        description="Exact computations with Dehn-twist monodromy factorizations.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="homological relation check of a factorization file")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_verify)

    i = sub.add_parser("invariants", help="full invariant report of a factorization file")
    i.add_argument("file")
    i.add_argument("--signature", type=int, default=None,
                   help="externally supplied signature for cases the tool does not compute")
    i.add_argument("--json", action="store_true")
    i.set_defaults(func=cmd_invariants)

    g = sub.add_parser("geompres", help="build and verify a geometric presentation")
    g.add_argument("file", help='JSON {"genus": g, "relators": [["a1","b1^-1"], ...]}')
    g.add_argument("--json", action="store_true")
    g.set_defaults(func=cmd_geompres)

    m = sub.add_parser(
        "metaplectic",
        help="evaluate a genus-1 twist word in the metaplectic group",
        epilog='syntax: "(a b)^6", "a^3 b^-1", "[w] a [w]^-1" for a conjugated letter',
    )
    m.add_argument("word")
    m.add_argument("--json", action="store_true")
    m.set_defaults(func=cmd_metaplectic)

    c = sub.add_parser("cover", help="index-2 cover of a surface group with loop lifts")
    c.add_argument("--genus", type=int, required=True)
    c.add_argument("--chi", required=True, help="comma-separated 0/1 values on a1,b1,...")
    c.add_argument("--loop", action="append",
                   help='base loop as space-separated tokens, e.g. "a1 b1^-1"')
    c.add_argument("--json", action="store_true")
    c.set_defaults(func=cmd_cover)

    a = sub.add_parser("abelianize", help="abelian invariants of a presentation file")
    a.add_argument("file")
    a.add_argument("--json", action="store_true")
    a.set_defaults(func=cmd_abelianize)

    f = sub.add_parser("fixtures", help="list bundled fixture files")
    f.add_argument("--json", action="store_true")
    f.set_defaults(func=cmd_fixtures)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except TwistlabError as ex:
        print(f"input error: {ex}", file=sys.stderr)
        return E_INPUT


if __name__ == "__main__":
    sys.exit(main())
