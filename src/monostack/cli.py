"""Batch command line front end with JSON input and output.

Payloads are read from a file argument (or stdin when the argument is "-"
or omitted) and written to stdout; identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 malformed input, 2 a
semantic precondition was violated (non-sharp monoid, level mismatch and
friends, any `ideal mingens --bound` below the certified bound, where a
larger --bound changes nothing, a monoid whose triangulation has more
half-open parallelepiped points than `lattice.ENUMERATION_BUDGET`, a
`delta`/`delta0` level past the enumeration budget of
`infquot.delta_points`, or a `picard` level with more than that many
labels; `infquot check` builds no slice and answers at any level), 3 the
infinite-quotient check came back inconclusive, 4 an internal error: any
other exception, with its traceback on stderr, 5 the answer could not be
written to stdout (a full disk, a closed pipe).  Every --level, --levels,
--to and --divisor value must be a positive integer; anything else is
malformed input, and so is every other usage error argparse reports.
`COMMANDS` declares each action's arguments (`parabolic restrict` and
`induce` need --to, `hom` needs --with, only `check-induced` takes
--divisor), so a missing one, or a flag of another action, is a usage
error.
"""

from __future__ import annotations

import argparse
import decimal
import json
import sys

from . import lattice, monoid
from .errors import EnumerationBudget, MalformedInput, MonostackError

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_PRECONDITION = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT = 5


def _read_payload(path):
    try:
        if path in (None, "-"):
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text, parse_float=decimal.Decimal)  # exact: a float would round 1e-400 to 0.0
    except (OSError, ValueError) as exc:  # ValueError: bad JSON, bad UTF-8, an int past the digit limit
        raise MalformedInput(f"cannot read JSON input: {exc}") from exc


def _positive(value, flag):
    """A level-like argument: positive integers pass, anything else is malformed."""
    if value < 1:
        raise MalformedInput(f"{flag} must be a positive integer, got {value}")
    return value


def _parse_levels(text):
    try:
        levels = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise MalformedInput(f"bad level list {text!r}") from exc
    if not levels:
        raise MalformedInput(f"empty level list {text!r}")
    return [_positive(n, "--levels") for n in levels]


def _pair(text, flag):
    """The two points of a "a;b" value."""
    parts = text.split(";")
    if len(parts) != 2:
        raise MalformedInput(f"{flag} takes two points a;b, got {text!r}")
    return [lattice.vec_from_key(part) for part in parts]


# -- command handlers ---------------------------------------------------------
# Each handler imports the modules it runs, so a process loads only those.


def cmd_monoid(args):
    pres = monoid.monoid_from_json(_read_payload(args.input))
    if args.action == "info":
        payload = {
            "monoid": monoid.monoid_to_json(pres),
            "group_rank": pres.group_rank,
            "facets": [list(f) for f in pres.cone.facets],
            "flags": {
                "sharp": pres.is_sharp,
                "saturated": pres.is_saturated,
                "simplicial": pres.is_simplicial,
            },
        }
        summary = (
            f"rank {pres.group_rank}; sharp={pres.is_sharp} "
            f"saturated={pres.is_saturated} simplicial={pres.is_simplicial}"
        )
    elif args.action == "hilbert":
        basis = pres.integer_hilbert_basis
        payload = {
            "monoid": monoid.monoid_to_json(pres),
            "hilbert_basis": [lattice.scaled_to_json(v, pres.denominator) for v in basis],
        }
        summary = f"Hilbert basis with {len(basis)} elements"
    else:  # saturate
        sat = monoid.saturate(pres)
        payload = monoid.monoid_to_json(sat)
        summary = f"saturation has {len(sat.generators)} generators"
    return payload, summary, EXIT_OK


def cmd_delta(args):
    from . import infquot

    pres = monoid.monoid_from_json(_read_payload(args.input))
    ds = infquot.delta_points(pres, args.level)
    d = args.level * pres.denominator
    payload = {"monoid": monoid.monoid_to_json(pres), "level": args.level}
    if args.command == "delta0":
        payload["points"] = [lattice.scaled_to_json(y, d) for y, flag in zip(ds.scaled, ds.delta0_mask) if flag]
        summary = f"{len(payload['points'])} Delta0 points at level {args.level}"
    else:
        payload["points"] = [lattice.scaled_to_json(y, d) for y in ds.scaled]
        payload["in_delta0"] = list(ds.delta0_mask)
        summary = f"{len(ds)} Delta points at level {args.level}"
    return payload, summary, EXIT_OK


def cmd_infquot(args):
    from . import infquot

    element = infquot.profinite_from_json(_read_payload(args.input))
    verdict = infquot.is_infinite_quotient(element)
    payload = {"verdict": verdict.kind}
    code = EXIT_OK
    if verdict.is_confirmed:
        payload["element"] = lattice.vec_to_json(verdict.element.vector)
    elif verdict.is_inconclusive:
        payload["level"] = verdict.level
        code = EXIT_INCONCLUSIVE
    return payload, str(verdict), code


def cmd_kummer(args):
    from . import kummer

    hom = kummer.hom_from_json(_read_payload(args.input))
    flag = kummer.is_kummer(hom)
    payload = {"kummer": flag}
    if flag:
        group = kummer.cokernel(hom)
        payload["cokernel"] = list(group.invariant_factors)
    return payload, f"kummer={flag}", EXIT_OK


def cmd_picard(args):
    from . import infquot, kummer

    pres = monoid.monoid_from_json(_read_payload(args.input))
    group = kummer.picard_group(pres, args.level)
    if group.order > infquot.ENUMERATION_BUDGET:
        raise EnumerationBudget(
            f"level {args.level} has {group.order} labels, past the budget of {infquot.ENUMERATION_BUDGET}"
        )
    labels = kummer.enumerate_labels(pres, args.level)
    payload = {
        "monoid": monoid.monoid_to_json(pres),
        "level": args.level,
        "invariant_factors": list(group.invariant_factors),
        "order": group.order,
        "labels": [list(lab.residues) for lab in labels],
    }
    return payload, f"picard group {group}", EXIT_OK


def cmd_ideal(args):
    from . import ideals

    pres = monoid.monoid_from_json(_read_payload(args.input))
    bound = None if args.bound is None else lattice.frac_from_str(args.bound)
    if args.colon:
        a, b = _pair(args.colon, "--colon")
        ideal = ideals.colon_degree_ideal(pres, args.level, a, b, bound=bound)
        colon = [lattice.vec_to_json(a), lattice.vec_to_json(b)]
    elif args.generators:
        gens = [lattice.vec_from_key(part) for part in args.generators.split(";")]
        ideal = ideals.MonoidIdeal(pres, args.level, generators=gens, bound=bound)
        colon = None
    else:
        raise MalformedInput("ideal mingens needs --colon or --generators")
    mins = ideals.ideal_min_generators(ideal)
    payload = {
        "monoid": monoid.monoid_to_json(pres),
        "level": args.level,
        "generators": [lattice.vec_to_json(v) for v in mins],
        "count": len(mins),
    }
    if colon:
        payload["colon"] = colon
    return payload, f"{len(mins)} minimal generators", EXIT_OK


def cmd_probe(args):
    from . import ideals

    pres = monoid.monoid_from_json(_read_payload(args.input))
    a, b = _pair(args.pair, "--pair")
    rows = ideals.coherence_probe(pres, a, b, _parse_levels(args.levels))
    payload = {
        "monoid": monoid.monoid_to_json(pres),
        "pair": [lattice.vec_to_json(a), lattice.vec_to_json(b)],
        "rows": [
            {
                "n": r["n"],
                "min_gens": r["min_gens"],
                "generators": [lattice.vec_to_json(v) for v in r["generators"]],
            }
            for r in rows
        ],
    }
    counts = ", ".join(f"{r['n']}:{r['min_gens']}" for r in rows)
    return payload, f"min generator counts {counts}", EXIT_OK


def cmd_parabolic(args):
    from . import jsonio, parabolic

    if args.action == "from-graded":
        module = jsonio.graded_from_json(_read_payload(args.input))
        return jsonio.parabolic_to_json(module), "converted", EXIT_OK
    sheaf = jsonio.parabolic_from_json(_read_payload(args.input))
    if args.action == "to-graded":
        return jsonio.graded_to_json(sheaf), "converted", EXIT_OK
    if args.action == "restrict":
        out = parabolic.restrict(sheaf, args.to)
        return jsonio.parabolic_to_json(out), f"restricted to level {args.to}", EXIT_OK
    if args.action == "induce":
        out = parabolic.induce(sheaf, args.to)
        return jsonio.parabolic_to_json(out), f"induced to level {args.to}", EXIT_OK
    if args.action == "check-induced":
        if args.divisor:
            flag = parabolic.is_induced_from(sheaf, args.divisor)
            payload = {"divisor": args.divisor, "induced": flag}
            summary = f"induced from level {args.divisor}: {flag}"
        else:
            best = parabolic.minimal_inducing_level(sheaf)
            payload = {"minimal_inducing_level": best}
            summary = f"minimal inducing level: {best}"
        return payload, summary, EXIT_OK
    # hom
    other = jsonio.parabolic_from_json(_read_payload(args.with_sheaf))
    dim, maps = parabolic.hom_space(sheaf, other)
    payload = {
        "dimension": dim,
        "basis": [
            {
                jsonio.label_key(lab): jsonio.matrix_to_json(sheaf.field, m.block(lab))
                for lab in sorted(sheaf.dims, key=lambda la: la.residues)  # the order of the normal forms
                if other.dim(lab) and sheaf.dim(lab)
            }
            for m in maps
        ],
    }
    return payload, f"hom space dimension {dim}", EXIT_OK


# -- parser -------------------------------------------------------------------
# Per command, in the order the top-level help lists them: its help, the name
# of its handler (looked up when the parser is built, so a patched handler
# runs), and per action the arguments that action reads besides the optional
# `input` (flag -> add_argument keywords; an "input" entry gives `input` a help
# line); the action None puts them on the command.

LEVEL = {"--level": {"type": int, "default": 1}}
TO = {"--to": {"type": int, "required": True, "help": "target level"}}

COMMANDS = {
    "monoid": ("inspect, saturate, or generate Hilbert bases", "cmd_monoid", dict.fromkeys(
        ("info", "hilbert", "saturate"), {"input": {"nargs": "?", "help": "monoid.json file, or - for stdin"}})),
    "delta": ("Delta points at a root level", "cmd_delta", {None: LEVEL}),
    "delta0": ("Delta0 points at a root level", "cmd_delta", {None: LEVEL}),
    "infquot": ("infinite-quotient check", "cmd_infquot", {"check": {}}),
    "kummer": ("Kummer test for a monoid homomorphism", "cmd_kummer", {"check": {}}),
    "picard": ("level-n class group and coset labels", "cmd_picard", {None: LEVEL}),
    "ideal": ("minimal generators of monomial ideals", "cmd_ideal", {"mingens": {
        **LEVEL,
        "--colon": {"help": 'colon pair "a;b" with comma-separated rational coordinates'},
        "--generators": {"help": 'ideal generators "g1;g2;..."'},
        "--bound": {"help": "bound on l(x) for the region; below the certified bound (the default) exits 2"},
    }}),
    "probe": ("coherence probe across levels", "cmd_probe", {"coherence": {
        "--pair": {"required": True, "help": 'degree pair "a;b"'},
        "--levels": {"default": "1,2,3,4"},
    }}),
    "parabolic": ("parabolic sheaf functors", "cmd_parabolic", {
        "to-graded": {},
        "from-graded": {},
        "restrict": TO,
        "induce": TO,
        "check-induced": {"--divisor": {"type": int, "help": "level to test; without it, the minimal inducing level"}},
        "hom": {"--with": {"dest": "with_sheaf", "required": True, "help": "second sheaf.json file, or - for stdin"}},
    }),
}


def _add(sub, name):
    """Add the parser of command `name`, and of each of its actions, to `sub`."""
    text, handler, actions = COMMANDS[name]
    p = sub.add_parser(name, help=text)
    p.set_defaults(func=globals()[handler])
    if None not in actions:
        psub = p.add_subparsers(dest="action", required=True)
    for action, arguments in actions.items():
        q = p if action is None else psub.add_parser(action)
        for flag, keywords in {"input": {"nargs": "?"}, **arguments}.items():
            q.add_argument(flag, **keywords)


def build_parser(argv=None):
    """The argument parser; given `argv`, only the subtree of its command.

    A process runs one command, so building the other subtrees is wasted
    start-up.  When `argv` starts with a known command, after any number of
    --pretty, only that command's subtree is added, and the top-level
    usage line still lists every command (`metavar`), so every message
    reads as it does from the full tree.  Anything else (no command, an
    unknown one, or another option first, a top-level --help among them)
    gets the full tree, whose messages list the commands.
    """
    parser = argparse.ArgumentParser(
        prog="monostack",
        description="Exact monoid/root-stack combinatorics with JSON I/O.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent output, add a summary on stderr")
    command = next((arg for arg in argv or () if arg != "--pretty"), None)
    if command in COMMANDS:
        sub = parser.add_subparsers(dest="command", required=True, metavar="{" + ",".join(COMMANDS) + "}")
        _add(sub, command)
    else:
        sub = parser.add_subparsers(dest="command", required=True)
        for name in COMMANDS:
            _add(sub, name)
    return parser


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return EXIT_MALFORMED if exc.code == 2 else exc.code
    try:
        for flag in ("level", "to", "divisor"):
            value = getattr(args, flag, None)
            if value is not None:
                _positive(value, f"--{flag}")
        payload, summary, code = args.func(args)
        text = json.dumps(payload, indent=2 if args.pretty else None, sort_keys=True)
    except MalformedInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_MALFORMED
    except MonostackError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except (ValueError, KeyError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PRECONDITION
    except Exception:  # noqa: BLE001 - a bug, not bad input: keep its traceback
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL
    try:
        print(text, flush=True)
    except OSError as exc:  # a full disk or a closed pipe: the answer is lost, the input was fine
        sys.stderr.write(f"error: cannot write the output: {exc}\n")
        return EXIT_OUTPUT
    if args.pretty and summary:
        sys.stderr.write(summary + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
