"""Command-line front end for the weight, module, and variety analyzers.

Exit codes: 0 for success or a passing verification, 1 for a failing
verification (the failing cases are printed as JSON), 2 for usage or
input errors.  With --json every result, including errors, is rendered
as canonical JSON with sorted keys.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from gettext import gettext
from json.encoder import encode_basestring_ascii

from .heisenberg import dimension_fit
from .modules import Undecided, dump_text
from .rootsys import (
    NAMED_TYPES, CartanSpec, build_root_system, check_rank, is_pr_regular, psi_set,
)
from .sl2 import (
    Sl2Schema,
    build_simple,
    build_verma,
    hyper_simples,
    library,
    run_sl2_suites,
    simple_key,
    steinberg,
)
from .verma import NEG_INFINITY, block_contains, classify, depth, depth_reduce


def canon(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent.

    Byte-identical to ``json.dumps(obj, sort_keys=True, indent=2)``, which
    with an indent runs json's pure-Python encoder; `_render` writes the
    same text directly, escaping strings with json's C escaper.  Floats
    are written as given; the one report that holds any, `DimensionFit`,
    rounds them itself.
    """
    return _render(obj, "\n") + "\n"


def _float_text(x: float) -> str:
    """A float as json writes it."""
    if x != x:
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


# the writer of each scalar type json takes, looked up by exact type
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
    float: _float_text,
}


def _render(obj, indent: str) -> str:
    """`obj` as json writes it at sort_keys=True, indent=2; `indent` is a newline and
    the indentation of obj's own line.

    Takes dicts with str keys, lists, tuples, str, int, bool, None and
    float, subclasses included, and raises TypeError on anything else.
    Scalars inside a container are written in place, without a call.
    """
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = indent + "  "
        items = []
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            scalar = _SCALARS.get(type(value))
            text = scalar(value) if scalar is not None else _render(value, inner)
            items.append(encode_basestring_ascii(key) + ": " + text)
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = indent + "  "
        get = _SCALARS.get
        items = [
            scalar(v) if (scalar := get(type(v))) is not None else _render(v, inner) for v in obj
        ]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    # subclasses of the scalar types, written as json writes their base type
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _emit(args, obj, text: str) -> None:
    if args.json:
        sys.stdout.write(canon(obj))
    else:
        sys.stdout.write(text + "\n")


def _parse_weight(text: str):
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"weight {text!r} must be comma-separated integers") from None


@functools.lru_cache(maxsize=None)
def _cartan_spec(type_name: str | None, cartan: str | None) -> CartanSpec:
    """The Cartan matrix spelled by --type or --cartan, parsed and validated once per spelling.

    lru_cache keeps no exception, so a spelling that fails raises every time.
    """
    if type_name is not None and cartan is not None:
        raise ValueError("give one of --type or --cartan, not both")
    if cartan is not None:
        return CartanSpec.parse(cartan)
    if type_name is not None:
        return CartanSpec.from_type(type_name)
    raise ValueError("one of --type or --cartan is required")


def _checked_weight(args, rs) -> tuple[int, ...]:
    """--weight checked against the rank of `rs`, then --r, where the verb has one, checked >= 1."""
    lam = _parse_weight(args.weight)
    check_rank(rs, lam)
    if "r" in args and args.r < 1:
        raise ValueError("r must be >= 1")
    return lam


def _root_system_and_weight(args):
    """The root system named by --type or --cartan, and the checked --weight."""
    rs = build_root_system(_cartan_spec(args.type, args.cartan))
    return rs, _checked_weight(args, rs)


def _depth_str(d) -> str:
    return "-inf" if d == NEG_INFINITY else str(int(d))


def _cmd_depth(args) -> int:
    rs, lam = _root_system_and_weight(args)
    d = depth(rs, lam, args.p)
    _emit(
        args,
        {"lambda": list(lam), "p": args.p, "depth": _depth_str(d) if d == NEG_INFINITY else int(d)},
        _depth_str(d),
    )
    return 0


def _cmd_regular(args) -> int:
    rs, lam = _root_system_and_weight(args)
    reg = is_pr_regular(rs, lam, args.p, args.r)
    _emit(
        args,
        {"lambda": list(lam), "p": args.p, "r": args.r, "regular": reg},
        "true" if reg else "false",
    )
    return 0


def _cmd_psi(args) -> int:
    rs, lam = _root_system_and_weight(args)
    idx = psi_set(rs, lam, args.p, args.r)
    roots = [list(rs.positive_roots[i].coeffs) for i in idx]
    lines = [f"{i} {tuple(rs.positive_roots[i].coeffs)}" for i in idx]
    _emit(
        args,
        {"lambda": list(lam), "p": args.p, "r": args.r, "indices": list(idx), "roots": roots},
        "\n".join(lines) if lines else "(empty)",
    )
    return 0


def _cmd_classify(args) -> int:
    # the spec alone: classify checks p before it builds the root system
    spec = _cartan_spec(args.type, args.cartan)
    lam = _checked_weight(args, spec)
    report = classify(spec, lam, args.p, args.r).to_json_dict()
    if args.json:
        sys.stdout.write(canon(report))
    else:
        sys.stdout.write("\n".join(f"{k}: {json.dumps(v)}" for k, v in report.items()) + "\n")
    return 0


def _cmd_reduce(args) -> int:
    rs, lam = _root_system_and_weight(args)
    d, mu = depth_reduce(rs, lam, args.p, args.r)
    _emit(
        args,
        {"lambda": list(lam), "p": args.p, "r": args.r, "d": d, "mu": list(mu)},
        f"d {d} mu {','.join(str(x) for x in mu)}",
    )
    return 0


def _cmd_block(args) -> int:
    rs, lam = _root_system_and_weight(args)
    gamma = _parse_weight(args.gamma)
    inside = block_contains(rs, gamma, lam, args.p, args.r)
    _emit(
        args,
        {
            "lambda": list(lam),
            "gamma": list(gamma),
            "p": args.p,
            "r": args.r,
            "contains": inside,
        },
        "true" if inside else "false",
    )
    return 0


def _cmd_verify_sl2(args) -> int:
    reports = run_sl2_suites(args.p, args.r, seed=args.seed)
    ok = all(rep.passed for rep in reports)
    if args.json:
        sys.stdout.write(
            canon({"checks": [rep.to_json_dict() for rep in reports], "pass": ok})
        )
    else:
        for rep in reports:
            state = "PASS" if rep.passed else "FAIL"
            sys.stdout.write(f"{rep.check}: {state} ({len(rep.cases)} cases)\n")
            if not rep.passed:
                bad = [c for c in rep.cases if not c.get("ok", False)]
                sys.stdout.write(canon({"check": rep.check, "failing_cases": bad}))
        sys.stdout.write(("all checks passed" if ok else "FAILED") + "\n")
    return 0 if ok else 1


def _cmd_verify_heisenberg(args) -> int:
    qs = [int(x) for x in args.qs.split(",")]
    fit = dimension_fit(args.r, qs, tol=args.tol)
    if args.json:
        sys.stdout.write(canon(fit.to_json_dict()))
    else:
        state = "PASS" if fit.passed else "FAIL"
        sys.stdout.write(
            f"slope {fit.slope:.6f} target {fit.target} tol {fit.tol}: {state}\n"
        )
        if not fit.passed:
            sys.stdout.write(canon(fit.to_json_dict()))
    return 0 if fit.passed else 1


def _build_module(kind: str, p: int, r: int, lam: int):
    schema = Sl2Schema(p, r)
    if kind == "steinberg":
        return steinberg(schema)
    if kind == "verma":
        return build_verma(schema, lam)
    if kind == "simple":
        if r == 1:
            return build_simple(schema, lam)
        try:
            return hyper_simples(p)[simple_key(lam)]
        except KeyError:
            raise ValueError(f"no level-2 simple of weight {lam}") from None
    if kind == "projective":
        try:
            return library(p, r).projectives[simple_key(lam)]
        except KeyError:
            raise ValueError(f"no projective cover of weight {lam}") from None
    raise ValueError(f"unknown module kind {kind!r}")


def _cmd_dump_module(args) -> int:
    if args.kind != "steinberg" and args.weight is None:
        raise ValueError(f"--weight is required for kind {args.kind!r}")
    lam_vec = _parse_weight(args.weight) if args.weight is not None else (0,)
    if len(lam_vec) != 1:
        raise ValueError("module dumps cover rank one only: --weight takes one integer")
    mod = _build_module(args.kind, args.p, args.r, lam_vec[0])
    text = dump_text(mod)
    if args.out is not None:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as e:
            # bad input, like any other: exit 2 with the reason, not a traceback
            raise ValueError(f"cannot write {args.out}: {e.strerror or e}") from None
        sys.stdout.write(f"wrote {mod.dim}-dimensional module to {args.out}\n")
    else:
        sys.stdout.write(text)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by later ones.

    ``parse_args`` returns a fresh namespace on every call, so nothing
    carries over from one command to the next.
    """
    parser = argparse.ArgumentParser(
        prog="vermalab",
        description="analyzers and verification suites for modular weight combinatorics",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    declared = {}  # verb -> (the actions its add_argument calls returned, fn)

    def add(name, fn, *, needs_p=True, root=False, needs_r=True, weight=True):
        """Add the verb's parser and its shared flags; returns its add_argument."""
        sp = sub.add_parser(name)
        sp.set_defaults(fn=fn)
        actions = []
        declared[name] = (actions, fn)

        def arg(*names, **kwargs):
            actions.append(sp.add_argument(*names, **kwargs))

        arg("--json", action="store_true", help="canonical JSON output")
        if needs_p:
            arg("--p", type=int, required=True, help="prime")
        if root:
            arg("--type", help=f"named type: {', '.join(NAMED_TYPES)}")
            arg("--cartan", help="explicit Cartan rows, e.g. '2,-1;-1,2'")
        if needs_r:
            arg("--r", type=int, required=True, help="Frobenius kernel level")
        if weight:
            arg("--weight", required=True, help="comma-separated fundamental-weight coordinates")
        return arg

    add("depth", _cmd_depth, root=True, needs_r=False)
    add("regular", _cmd_regular, root=True)
    add("psi", _cmd_psi, root=True)
    add("classify", _cmd_classify, root=True)
    add("reduce", _cmd_reduce, root=True)
    bl = add("block", _cmd_block, root=True)
    bl("--gamma", required=True, help="candidate weight, comma-separated")

    vs = add("verify-sl2", _cmd_verify_sl2, weight=False)
    vs("--seed", type=int, default=0, help="seed for randomized subroutines")

    vh = add(
        "verify-heisenberg", _cmd_verify_heisenberg, needs_p=False, needs_r=False, weight=False
    )
    vh("--r", type=int, required=True, help="number of generator pairs")
    vh("--qs", required=True, help="comma-separated field sizes")
    vh("--tol", type=float, default=None, help="slope tolerance")

    dm = add("dump-module", _cmd_dump_module, weight=False)
    dm("--weight", help="highest weight (single integer)")
    dm(
        "--kind",
        default="verma",
        choices=["verma", "simple", "projective", "steinberg"],
        help="which module to construct",
    )
    dm("--out", help="write the module text format to this path")

    # each verb's own parser, for main to hand the arguments after the verb to directly
    parser.verb_parsers = sub.choices
    tables = {name: _verb_table(actions, fn) for name, (actions, fn) in declared.items()}
    parser.verb_tables = {name: t for name, t in tables.items() if t is not None}
    return parser


def _verb_table(actions, fn):
    """One verb's flags as `_parse_by_table` reads them, or None for a verb with choices.

    The table holds: option string -> (dest, type) for the flags that
    take a value, option string -> (dest, const) for the flags that take
    none, the required dests, and the namespace argparse starts from
    (every default, then fn).  argparse checks choices and converts
    string defaults, so a verb with either is left to it.
    """
    options, flags, required, defaults = {}, {}, set(), {}
    for action in actions:
        if action.choices is not None or isinstance(action.default, str):
            return None
        for option in action.option_strings:
            if action.nargs == 0:
                flags[option] = (action.dest, action.const)
            else:
                options[option] = (action.dest, action.type or str)
        if action.required:
            required.add(action.dest)
        defaults[action.dest] = action.default
    defaults["fn"] = fn
    return options, flags, required, defaults


def _parse_by_table(verb: str, tokens: list[str], table):
    """The namespace argparse gives a well-formed call of `verb`, or None to leave it to argparse.

    Well-formed: every token is a declared option string, a flag with a
    value given as ``--flag=value`` or as ``--flag value`` with a value
    that does not start with "-", no flag twice, every required flag
    present, and every value converted by its type.
    """
    options, flags, required, defaults = table
    values = {}
    i, n = 0, len(tokens)
    while i < n:
        token = tokens[i]
        i += 1
        if token in flags:
            dest, value = flags[token]
        else:
            name, eq, value = token.partition("=")
            if name not in options:
                return None
            if eq:
                if value == "--":  # argparse drops a lone "--", even after "="
                    return None
            elif i < n and not tokens[i].startswith("-"):
                value = tokens[i]
                i += 1
            else:
                return None
            dest, convert = options[name]
            try:
                value = convert(value)
            except (TypeError, ValueError, argparse.ArgumentTypeError):
                return None
        if dest in values:
            return None
        values[dest] = value
    if not required <= values.keys():
        return None
    args = argparse.Namespace(verb=verb, **defaults)
    vars(args).update(values)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """What ``build_parser().parse_args(argv)`` returns, in one pass when argv starts with a verb.

    A well-formed call of a verb with a table is read from that table
    alone.  Otherwise the top-level parser passes everything after the
    verb to that verb's parser and reports what it leaves over, so
    calling the verb's parser directly gives the same namespace, output
    and exit.  The top-level parser still handles an empty argv, an
    unknown verb and a flag before the verb.
    """
    parser = build_parser()
    if not argv:
        return parser.parse_args(argv)
    verb = argv[0]
    table = parser.verb_tables.get(verb)
    if table is not None:
        args = _parse_by_table(verb, argv[1:], table)
        if args is not None:
            return args
    verb_parser = parser.verb_parsers.get(verb)
    if verb_parser is None:
        return parser.parse_args(argv)
    args, extras = verb_parser.parse_known_args(argv[1:], argparse.Namespace(verb=verb))
    if extras:
        # in argparse's own words, translation included
        parser.error(gettext("unrecognized arguments: %s") % " ".join(extras))
    return args


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.fn(args)
    except Undecided as e:
        _emit(args, {"error": str(e)}, f"error: {e}")
        return 1
    except (ValueError, KeyError) as e:
        msg = str(e)
        _emit(args, {"error": msg}, f"error: {msg}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
