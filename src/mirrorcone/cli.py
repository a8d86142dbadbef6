"""Command line entry points: validate, analyze, examples.

Exit codes: 0 success, 1 domain-condition failure, 2 input error,
3 internal certificate failure (a falsified identity, i.e. a bug).
"""

from __future__ import annotations

import json
import re
import sys
from contextlib import nullcontext
from fractions import Fraction
from types import SimpleNamespace

from . import ALL_SECTIONS, CertificateFailure
from .toricdata import LatticeSpec, ToricDataError, ToricInput, input_echo, validate

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
    if not isinstance(obj, dict):
        raise ConfigError(f"config: {where} must be an object")
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

    volume_orders = None if data.get("v") is None else _parse_vector(data["v"], n, "v")
    b_valuations = (None if data.get("b_valuations") is None
                    else _exponent_map(data["b_valuations"], "b_valuations"))

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
    else:  # fans only with a lambda, algebra only with --algebra
        optional = {"fans": vt.heights is not None, "algebra": args.algebra}
        sections = tuple(s for s in ALL_SECTIONS if optional.get(s, True))
    largest = max(map(len, vt.blocks))
    if "algebra" in sections and (args.cutoff is None or args.cutoff < largest):
        print(f"input error: --algebra requires --cutoff N >= {largest}, "
              "the largest block size", file=sys.stderr)
        return EXIT_INPUT
    if "fans" in sections and vt.heights is None:
        print("input error: fans section needs a lambda in the config",
              file=sys.stderr)
        return EXIT_INPUT

    from .report import build_report, write_json

    try:
        report = build_report(vt, sections, algebra_cutoff=args.cutoff,
                              perturb_seed=args.perturb)
    except CertificateFailure as exc:
        print(f"certificate failure [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:  # every domain error (ToricDataError, FanError, ...)
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
    from .fixtures import FIXTURE_NAMES, fixture

    if args.action == "list":
        print(*FIXTURE_NAMES, sep="\n")
        return EXIT_OK
    if args.name not in FIXTURE_NAMES:
        print(f"unknown example {args.name!r}; choose from {', '.join(FIXTURE_NAMES)}",
              file=sys.stderr)
        return EXIT_INPUT
    print(json.dumps(input_echo(fixture(args.name)), sort_keys=True, indent=2))
    return EXIT_OK


# The commands, from which main parses argv and prints the usage (argparse,
# with the gettext and locale its first message loads, costs each process
# 4-5 ms).  An option is (type, metavar, help): bool for a flag, else int or str.
_COMMANDS = {
    "validate": (cmd_validate, "check the input axioms", ("config",), {}),
    "analyze": (cmd_analyze, "run the analysis pipeline", ("config",), {
        "sections": (str, "SECTIONS", "comma-separated, any of " + ",".join(ALL_SECTIONS)),
        "algebra": (bool, "", "include the graded-algebra section"),
        "cutoff": (int, "N", "z-degree cutoff for the algebra section"),
        "perturb": (int, "SEED", "refine into a triangulation on every point by seeded heights"),
        "out": (str, "FILE", "write the report to a file")}),
    "examples list": (cmd_examples, "list the builtin fixtures", (), {}),
    "examples show": (cmd_examples, "print a builtin fixture's config", ("name",), {}),
}
_OPTION = re.compile(r"-[^0-9]")  # an option word; "-" and negative numbers are values


def _usage(error=None):
    """Print the usage (exit 0), or to stderr with the error line (exit 2)."""
    lines = ["mirrorcone [COMMAND] -h|--help".ljust(38) + "this usage; options also as --opt=VALUE"]
    for command, (_, about, positionals, options) in _COMMANDS.items():
        words = [command, *map(str.upper, positionals)] + ["[options]"] * bool(options)
        lines.append(f"mirrorcone {' '.join(words)}".ljust(38) + about)
        lines += [f"  --{name} {meta}".ljust(24) + text for name, (_, meta, text) in options.items()]
    print("usage: " + "\n       ".join(lines), *[f"mirrorcone: error: {error}"] * bool(error),
          sep="\n", file=sys.stderr if error else sys.stdout)
    return EXIT_INPUT if error else EXIT_OK


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        return _usage()
    command = next((c for c in _COMMANDS if argv[:c.count(" ") + 1] == c.split()), None)
    if command is None:
        return _usage(f"expected a command, one of: {', '.join(_COMMANDS)}")
    func, _, positionals, options = _COMMANDS[command]
    args, words, rest = dict.fromkeys(options), [], iter(argv[command.count(" ") + 1:])
    for word in rest:
        name, eq, value = word[2:].partition("=")
        kind = options[name][0] if word[:2] == "--" and name in options else None
        if not _OPTION.match(word):
            words.append(word)
        elif kind is None or eq and kind is bool:
            return _usage(f"unrecognized argument {word}")
        elif kind is not bool and not eq and _OPTION.match(value := next(rest, "--")):
            return _usage(f"argument --{name}: expected one argument")
        elif kind is int and not re.fullmatch(r"-?[0-9]+", value):
            return _usage(f"argument --{name}: invalid int value: {value!r}")
        else:
            args[name] = kind is bool or kind(value)
    if len(words) != len(positionals):
        return _usage(f"{command} takes {' '.join(positionals).upper() or 'nothing'}, got {words}")
    # examples reads its action, list or show, from the command's last word
    return func(SimpleNamespace(action=command.split()[-1], **dict(zip(positionals, words)), **args))


if __name__ == "__main__":
    sys.exit(main())
