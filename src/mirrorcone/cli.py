"""Command line entry points: validate, analyze, examples.

Exit codes: 0 success, 1 domain-condition failure, 2 input error,
3 internal certificate failure (a falsified identity, i.e. a bug).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import CertificateFailure
from .fans import FanError
from .fixtures import FIXTURE_NAMES, fixture_input
from .report import ALL_SECTIONS, build_report, input_echo, write_json
from .toricdata import LatticeSpec, ToricDataError, ToricInput, validate

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class ConfigError(ValueError):
    pass


# Fraction and int() would also take spaces, underscores and non-ASCII digits,
# and Fraction exponents too, expanding "1e999999999" in full.
_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_EXPONENT_KEY = re.compile(r"-?[0-9]+(,-?[0-9]+)*")
_CONFIG_KEYS = ("blocks", "d", "lattice", "lambda", "v", "b_valuations")


def _parse_fraction(value, where):
    """A JSON integer or a "num/den" string as a Fraction; any other form is refused."""
    if type(value) is int:
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL.fullmatch(value):
        raise ConfigError(
            f"{where}: bad rational {value!r}, expected an integer or 'num/den'")
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:  # more digits than int() takes, or /0
        raise ConfigError(f"{where}: bad rational {value!r}: {exc}") from None


def _exponent_map(obj, where):
    """{exponent: Fraction} from "i,j,..." keys; two keys of one exponent are refused."""
    out = {}
    for key, value in obj.items():
        if not _EXPONENT_KEY.fullmatch(str(key)):
            raise ConfigError(f"{where}: bad exponent key {key!r}, expected 'i,j,...'")
        exp = tuple(int(x) for x in str(key).split(","))
        if exp in out:
            raise ConfigError(f"{where}: exponent key {key!r} repeats {exp}")
        out[exp] = _parse_fraction(value, where)
    return out


def _array(value, where):
    """value itself if it is a JSON array (a string is not); else ConfigError."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{where}: expected an array, got {type(value).__name__}")
    return value


def _int(value, where):
    """value itself if it is a JSON integer; a float or a bool is refused, not cast."""
    if type(value) is not int:
        raise ConfigError(f"{where}: expected an integer, got {value!r}")
    return value


def _int_tuple(value, where):
    return tuple(_int(x, where) for x in _array(value, where))


def _parse_vector(value, n, where):
    vec = _int_tuple(value, where)
    if len(vec) != n:
        raise ConfigError(f"{where}: has length {len(vec)}, expected {n}")
    return vec


def parse_config(data) -> ToricInput:
    """Build a ToricInput from the JSON config structure (1-based blocks)."""
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = [key for key in data if key not in _CONFIG_KEYS]
    if unknown:
        raise ConfigError(f"config: unknown keys {unknown}, expected some of "
                          f"{', '.join(_CONFIG_KEYS)}")
    for key in ("blocks", "d", "lattice"):
        if key not in data:
            raise ConfigError(f"config: missing field {key!r}")
    blocks = tuple(tuple(i - 1 for i in _int_tuple(blk, "block"))
                   for blk in _array(data["blocks"], "blocks"))
    degrees = _int_tuple(data["d"], "d")

    lat = data["lattice"]
    if not isinstance(lat, dict):
        raise ConfigError("config: lattice must be an object")
    n = len(degrees)
    if ("congruences" in lat) == ("generators" in lat):
        raise ConfigError(
            "config: lattice needs exactly one of congruences or generators")
    if "congruences" in lat:
        congruences = []
        for item in _array(lat["congruences"], "congruences"):
            if not isinstance(item, dict) or "c" not in item or "mod" not in item:
                raise ConfigError("config: each congruence needs 'c' and 'mod'")
            mod = _int(item["mod"], "congruence mod")
            if mod < 1:
                raise ConfigError(f"congruence mod: must be >= 1, got {mod}")
            congruences.append((_parse_vector(item["c"], n, "congruence c"), mod))
        spec = LatticeSpec(congruences=tuple(congruences))
    else:
        spec = LatticeSpec(generators=tuple(
            _parse_vector(g, n, "generator")
            for g in _array(lat["generators"], "generators")))

    weights = None
    if data.get("lambda") is not None:
        lam = data["lambda"]
        if isinstance(lam, str):
            if not lam.startswith("uniform:"):
                raise ConfigError("config: lambda string must be 'uniform:<rational>'")
            weights = _parse_fraction(lam[len("uniform:"):], "lambda")
        elif isinstance(lam, dict):
            weights = _exponent_map(lam, "lambda")
        else:
            raise ConfigError("config: lambda must be a string or object")

    volume_orders = None
    if data.get("v") is not None:
        volume_orders = _parse_vector(data["v"], n, "v")

    b_valuations = None
    if data.get("b_valuations") is not None:
        if not isinstance(data["b_valuations"], dict):
            raise ConfigError("config: b_valuations must be an object")
        b_valuations = _exponent_map(data["b_valuations"], "b_valuations")

    return ToricInput(blocks=blocks, degrees=degrees, lattice=spec,
                      weights=weights, volume_orders=volume_orders,
                      b_valuations=b_valuations)


def _unique_keys(pairs):
    """A JSON object's pairs as a dict, refusing a key that json would overwrite."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"config: key {key!r} repeats")
        out[key] = value
    return out


def load_config(path) -> ToricInput:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # bad or too deep JSON; not UTF-8
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    return parse_config(data)


def fixture_config_json(name):
    return input_echo(validate(fixture_input(name)))


def _load_validated(path):
    """(validated data, None) for the config at path, or (None, exit code)."""
    try:
        return validate(load_config(path)), None
    except ConfigError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return None, EXIT_INPUT
    except ToricDataError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return None, EXIT_DOMAIN


def cmd_validate(args):
    vt, code = _load_validated(args.config)
    if vt is None:
        return code
    print(json.dumps({"valid": True, "xi_count": len(vt.xi),
                      "xi0_count": len(vt.xi0)}, sort_keys=True))
    return EXIT_OK


def cmd_analyze(args):
    vt, code = _load_validated(args.config)
    if vt is None:
        return code

    if args.sections:
        sections = tuple(s.strip() for s in args.sections.split(",") if s.strip())
        unknown = [s for s in sections if s not in ALL_SECTIONS]
        if unknown:
            print(f"input error: unknown sections {unknown}", file=sys.stderr)
            return EXIT_INPUT
    else:
        sections = ["validation", "conditions", "groups", "grading", "bside"]
        if vt.input.weights is not None:
            sections.append("fans")
        if args.algebra:
            sections.append("algebra")
        sections = tuple(sections)
    largest = max(map(len, vt.blocks))
    if "algebra" in sections and (args.cutoff is None or args.cutoff < largest):
        print(f"input error: --algebra requires --cutoff N >= {largest}, "
              "the largest block size", file=sys.stderr)
        return EXIT_INPUT
    if "fans" in sections and vt.input.weights is None:
        print("input error: fans section needs a lambda in the config",
              file=sys.stderr)
        return EXIT_INPUT

    try:
        report = build_report(vt, sections, algebra_cutoff=args.cutoff,
                              perturb_seed=args.perturb)
    except CertificateFailure as exc:
        print(f"certificate failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ToricDataError, FanError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN

    try:
        with open(args.out, "w") if args.out else nullcontext(sys.stdout) as fh:
            write_json(report, fh)
    except OSError as exc:
        print(f"input error: cannot write {args.out or 'stdout'}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    return EXIT_OK


def cmd_examples(args):
    if args.action == "list":
        for name in FIXTURE_NAMES:
            print(name)
        return EXIT_OK
    if args.name not in FIXTURE_NAMES:
        print(f"unknown example {args.name!r}; choose from {', '.join(FIXTURE_NAMES)}",
              file=sys.stderr)
        return EXIT_INPUT
    write_json(fixture_config_json(args.name), sys.stdout)
    return EXIT_OK


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="mirrorcone",
        description="Combinatorial analysis of generalized Greene-Plesser toric data")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="check the input axioms")
    p_val.add_argument("config")
    p_val.set_defaults(func=cmd_validate)

    p_an = sub.add_parser("analyze", help="run the analysis pipeline")
    p_an.add_argument("config")
    p_an.add_argument("--sections", default=None,
                      help="comma-separated subset of: " + ",".join(ALL_SECTIONS))
    p_an.add_argument("--algebra", action="store_true",
                      help="include the graded-algebra section")
    p_an.add_argument("--cutoff", type=int, default=None,
                      help="z-degree cutoff for the algebra section")
    p_an.add_argument("--perturb", type=int, default=None, metavar="SEED",
                      help="refine non-simplicial cells by lexicographic perturbation")
    p_an.add_argument("--out", default=None, help="write the report to a file")
    p_an.set_defaults(func=cmd_analyze)

    p_ex = sub.add_parser("examples", help="list or show the builtin fixtures")
    p_ex.add_argument("action", choices=("list", "show"))
    p_ex.add_argument("name", nargs="?")
    p_ex.set_defaults(func=cmd_examples)

    args = parser.parse_args(argv)
    if args.command == "examples" and args.action == "show" and not args.name:
        parser.error("examples show requires a name")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
