"""Command-line front end.

Inline grammar: a transformation is a comma list of images ("0,0,1"),
multiple transformations are ';'-separated.  A matrix is ';'-separated
rows of ',' entries ("1,0;1,1"); multiple matrices are '|'-separated.
A subspace is given by ';'-separated spanning rows.  Blank ';'-parts are
skipped.  ``--f``, ``--ns``, ``--pn`` and ``--sizes`` follow the same
grammar; every inline text is read by ``family.parse_ints`` and
``family.parse_rows``.  The inline instance flags are read as the
instance JSON they spell, through the loader ``--input`` uses (the
``from_dict`` of the family class its ``kind`` names), and the inline
plan flags as the plan JSON they spell, through ``SweepPlan.from_dict``;
``--input`` excludes them all.

Each command takes only the flags that change what it does: ``build``
has no ``--mode`` or ``--no-oracle``, and a sweep's ``--samples`` and
``--seed`` need ``--source seeded``.  ``main`` builds one flat parser
for the command its first argument names, ``build_parser(command)``,
filled by the same function that fills that command's subparser in the
full parser, and reads the rest of the arguments with it; it reads the
terminal width once, where argparse would read it once per flag.
``build_parser()`` with no command is the full parser, which help, a
missing command and an unknown one go through.

A command loads only the modules it runs.  An instance command imports
the one family module its instance's ``kind`` names
(``family.family_class``): ``transform_semigroup`` and
``transformations``, or ``linear_semigroup`` and ``gflinear``; help and
a usage error load neither family, ``sweep`` is imported by the sweep
command alone and loads its plan's family alone, and ``json`` only where
JSON is read or written.

Exit codes: 0 success, 2 validation error (also a flag the command does
not take, a mode the family does not decide, and a sweep whose plan
selects no instance), 3 work past a stated bound, refused with one line
naming it: a build or a ``--gens`` closure past the Cayley table's
``TABLE_CAP`` elements (also a sweep all of whose selected instances
are; the report is printed first), an exhaustive sweep past its
27-element base, a seeded sweep past the closure or cell budget,
or a sweep whose instances, counted before its first cell, pass the
sweep instance bound of 100,000; 4 when a predicate and its oracle
disagree, when ``element`` prints a theorem witness that fails its check
(run with or without the oracle), or when a sweep reports any mismatch.
"""

from __future__ import annotations

import argparse
import shutil
import sys
from functools import partial

from .family import KINDS, family_class, parse_ints, parse_rows
from .semigroups import SizeCapExceeded, element_oracle, semigroup_oracle

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SIZE_CAP = 3
EXIT_MISMATCH = 4


def _transformations(text: str) -> list[list[int]]:
    """';'-separated transformations; "" is the empty map (of an empty Y)."""
    return parse_rows(text) or [[]]


def _matrices(text: str) -> list[list[list[int]]]:
    """'|'-separated matrices of ';'-separated rows."""
    return [parse_rows(m) for m in text.split("|")]


def _witness_text(witness) -> object:
    """None, an element's text, or the texts of the inverse oracle's pair."""
    if witness is None:
        return None
    if isinstance(witness, tuple):
        return [_witness_text(w) for w in witness]
    return witness.to_text()


def _read_json(path: str, load):
    """``load`` applied to the JSON in the file at ``path``.  Content of the
    wrong shape (a missing key, a value of the wrong type) is reported as
    a validation error, like malformed JSON."""
    import json

    with open(path) as fh:
        data = json.load(fh)
    try:
        return load(data)
    except (KeyError, IndexError, TypeError, AttributeError) as exc:
        raise ValueError(f"malformed JSON in {path}: {exc!r}") from None


def _instance_from_dict(data: dict):
    """``from_dict`` of the class ``family.family_class`` finds for
    ``data["kind"]``, whose module alone is imported."""
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValueError('instance JSON needs "kind": "transformation" or "linear"')
    return family_class(kind).from_dict(data)


def _inline_instance(args) -> dict:
    """The instance JSON that the inline flags spell (see ``_GRAMMAR``)."""
    if args.kind is None:
        raise ValueError("--kind t|l (or --input) is required")
    t = args.kind == "t"
    region, block = (args.y, args.sy) if t else (args.w, args.sw)
    if None in ((args.n, region) if t else (args.p, args.n, region)):
        raise ValueError("--kind t needs --n and --y" if t else "--kind l needs --p, --n and --w")
    if block is None and args.gens is None:
        raise ValueError(f"--kind {args.kind} needs --{'sy' if t else 'sw'} or --gens")
    parse = _transformations if t else _matrices
    given = {key: parse(text) for key, text in (("elements", block), ("generators", args.gens))
             if text is not None}
    if t:
        return {"kind": "transformation", "n": args.n, "Y": parse_ints(region), "sY": given}
    return {"kind": "linear", "p": args.p, "n": args.n, "W": parse_rows(region), "sW": given}


def _load_instance(args):
    """Instance from --input JSON or from inline flags, through one loader."""
    if args.input is None:
        return _instance_from_dict(_inline_instance(args))
    inline = [args.kind, args.n, args.y, args.sy, args.p, args.w, args.sw, args.gens]
    if any(v is not None for v in inline):
        raise ValueError("--input and inline instance flags are mutually exclusive")
    return _read_json(args.input, _instance_from_dict)


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        import json

        data = {k: v for k, v in payload.items() if k != "_text"}
        print(json.dumps(data, sort_keys=True, indent=2))
        return
    for line in payload["_text"]:
        print(line)


def _cmd_build(args) -> int:
    inst = _load_instance(args)
    build = inst.build()
    idem, units = len(build.idempotent_indices), len(build.unit_indices)
    payload = {
        "command": "build",
        "instance": inst.key(),
        "size": len(build),
        "has_identity": build.has_identity,
        "idempotents": idem,
        "units": units,
        "_text": [
            f"semigroup size: {len(build)}",
            f"two-sided identity: {'yes' if build.has_identity else 'no'}",
            f"idempotents: {idem}",
            f"units: {units}",
        ],
    }
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_classify(args) -> int:
    """``classify`` (semigroup level) and ``element`` (one element): the
    theorem's verdict next to the oracle's, per mode."""
    if args.mode and len(set(args.mode)) != len(args.mode):
        raise ValueError(f"--mode must name distinct modes, not {args.mode!r}")
    inst = _load_instance(args)
    if args.command == "element":
        if args.f is None:
            raise ValueError("element command needs --f")
        f = inst.parse_element(args.f)
        inst.record(f)  # an f outside the instance is refused before the build
        level, modes, witness_key = "element", inst.ELEMENT_MODES, "theorem_witness"
        theorem = lambda mode: inst.thm_element(f, mode)
        oracle = lambda build, mode: element_oracle(build, f, mode)
        witness_problem = lambda mode, w: inst.witness_problem(f, w, mode)
    else:
        level, modes, witness_key = "semigroup", inst.SEMIGROUP_MODES, "witness"
        theorem, oracle = inst.thm_semigroup, semigroup_oracle
        witness_problem = lambda mode, w: None
    for mode in args.mode or ():  # refused before the build
        inst.check_mode(mode, level)
    modes = args.mode or inst.decidable(modes)
    build = None if args.no_oracle else inst.build()
    results = []
    lines = []
    disagreement = False
    for mode in modes:
        thm = theorem(mode)
        if build is None:
            oracle_verdict: object = "skipped"
            oracle_witness = None
            agree: object = "skipped"
        else:
            orc = oracle(build, mode)
            oracle_verdict = orc.holds
            oracle_witness = _witness_text(orc.witness)
            agree = thm.holds == orc.holds
            if not agree:
                disagreement = True
        result = {
            "mode": mode, "theorem": thm.holds, "clause": thm.clause,
            "oracle": oracle_verdict, "oracle_witness": oracle_witness,
            "agree": agree, witness_key: _witness_text(thm.witness),
        }
        marker = "" if agree in (True, "skipped") else "  << DISAGREEMENT"
        problem = None if thm.witness is None else witness_problem(mode, thm.witness)
        if problem is not None:
            result["witness_problem"] = problem
            marker += f"  << BAD WITNESS: {problem}"
            disagreement = True
        results.append(result)
        lines.append(
            f"{mode}: theorem={thm.holds} ({thm.clause}), oracle={oracle_verdict}{marker}"
        )
    payload = {"command": args.command, "instance": inst.key(), "results": results, "_text": lines}
    if args.command == "element":
        payload["element"] = f.to_text()
    else:
        payload["build_size"] = None if build is None else len(build)
    _emit(payload, args.format)
    return EXIT_MISMATCH if disagreement else EXIT_OK


def _inline_plan(kind=None, ns="", pn="", sizes="", source=None, samples=None, seed=None,
                 mode=None, **element_cap) -> dict:
    """The plan JSON that the given inline flags spell.  An element cap
    not given is left out, so the plan's default holds; the modes default
    to all of the family's, and a seeded source to 200 draws with seed
    "0"."""
    if kind is None:
        raise ValueError("sweep needs --kind t|l or --input plan.json")
    if source != "seeded" and (samples, seed) != (None, None):
        raise ValueError("--samples and --seed need --source seeded")
    family = {"t": "transformation", "l": "linear"}[kind]
    plan = {"family": family, "ns": parse_ints(ns), "pns": parse_rows(pn),
            "modes": mode or family_class(family).SEMIGROUP_MODES, **element_cap}
    if sizes:
        plan["subset_sizes"] = parse_ints(sizes)
    if source == "seeded":
        plan["source"] = ["seeded", 200 if samples is None else samples,
                          "0" if seed is None else seed]
    return plan


def _cmd_sweep(args) -> int:
    from .sweep import SweepPlan, run_sweep

    # the sweep's plan flags default to nothing, so these are the given ones
    inline = {k: v for k, v in vars(args).items() if k not in ("command", "fn", "input", "format")}
    if args.input is None:
        plan = SweepPlan.from_dict(_inline_plan(**inline))
    elif inline:
        raise ValueError("--input and inline plan flags are mutually exclusive")
    else:
        plan = _read_json(args.input, SweepPlan.from_dict)
    report = run_sweep(plan)
    none_run = report.instances_run == 0 and report.clean
    if none_run and not report.skipped:
        raise ValueError("the plan selects no instance")
    d = report.to_dict()
    d["_text"] = [
        f"instances run: {d['instances_run']}",
        f"semigroup checks: {d['semigroup_checks']} agreements: {d['semigroup_agreements']}",
        f"element checks: {d['element_checks']} agreements: {d['element_agreements']}",
        f"witnesses checked: {d['witnesses_checked']}",
        f"skipped: {len(d['skipped'])}",
        f"mismatches: {report.failure_count}",
        *(f"  MISMATCH {entry}" for entry in d["mismatches"]),
    ]
    _emit(d, args.format)
    if none_run:
        raise SizeCapExceeded(f"size cap exceeded by all {len(report.skipped)} selected instances")
    return EXIT_OK if report.clean else EXIT_MISMATCH


def _instance_command(sp, name: str) -> None:
    """Fills the parser of ``build``, ``classify`` or ``element``: the
    instance flags, the modes for the two that classify, and the element
    for ``element``."""
    sp.add_argument("--input", help="instance JSON file (exclusive with inline flags)")
    sp.add_argument("--kind", choices=("t", "l"), help="t: transformations, l: linear maps")
    sp.add_argument("--n", type=int, help="ambient size (|X| or dim V)")
    sp.add_argument("--y", help="subset Y as comma list, e.g. 0,1")
    sp.add_argument("--sy", help="S(Y) elements, ';'-separated transformations")
    sp.add_argument("--p", type=int, help="prime modulus")
    sp.add_argument("--w", help="subspace W as ';'-separated spanning rows")
    sp.add_argument("--sw", help="S(W) elements, '|'-separated matrices")
    sp.add_argument("--gens", help="generators instead of elements (closure is applied)")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    if name != "build":
        sp.add_argument("--mode", action="append", help="property to check (repeatable)")
        sp.add_argument("--no-oracle", action="store_true",
                        help="skip the brute-force oracle (reported as 'skipped')")
    if name == "element":
        sp.add_argument("--f", help="the element to classify (same grammar as elements)")
    sp.set_defaults(fn=_cmd_build if name == "build" else _cmd_classify)


def _sweep_command(sp, name: str) -> None:
    """Fills the parser of ``sweep``: the plan flags, each absent, not
    None, when not given (see ``_cmd_sweep``)."""
    sp.argument_default = argparse.SUPPRESS
    sp.add_argument("--input", default=None, help="plan JSON file (exclusive with plan flags)")
    sp.add_argument("--kind", choices=("t", "l"))
    sp.add_argument("--ns", help="ambient sizes, e.g. 1,2,3")
    sp.add_argument("--pn", help="(p,n) cells, e.g. 2,2;3,2")
    sp.add_argument("--sizes", help="|Y| or dim W values to include, e.g. 1,2")
    sp.add_argument("--source", choices=("exhaustive", "seeded"))
    sp.add_argument("--samples", type=int, help="with --source seeded (default 200)")
    sp.add_argument("--seed", help="with --source seeded (default 0)")
    sp.add_argument("--mode", action="append")
    sp.add_argument("--element-cap", type=int)
    sp.add_argument("--format", choices=("text", "json"), default="json")
    sp.set_defaults(fn=_cmd_sweep)


# Each command and what fills its parser, in the order help lists them.
_COMMANDS = {"build": _instance_command, "classify": _instance_command,
             "element": _instance_command, "sweep": _sweep_command}


_GRAMMAR = """\
inline grammar:
  transformation   comma list of images, e.g. "0,0,1" (2 maps to 1);
                   several elements separated by ';'   -> --sy "0,1;1,0";
                   with an empty --y, "" is the empty map -> --sy ""
  matrix           ';'-separated rows of ',' entries, e.g. "1,0;1,1";
                   several elements separated by '|'   -> --sw "1|0"
  subspace         ';'-separated spanning rows          -> --w "1,0;0,1"
exit codes: 0 ok, 2 validation error, 3 work past a stated bound, 4 disagreement/mismatch
"""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors (an unknown flag, a missing
    value, a value outside its choices) are validation errors, reported by
    ``main`` like any other: exit 2."""

    def error(self, message):
        raise ValueError(message)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full parser, one subparser per command, or the flat parser of
    ``command`` alone, which reads that command's arguments (without the
    command's name) to the same namespace."""
    if command is not None:
        # the width HelpFormatter would read again for every flag added
        width = shutil.get_terminal_size().columns - 2
        ap = _Parser(prog=f"resemi {command}",
                     formatter_class=partial(argparse.HelpFormatter, width=width))
        _COMMANDS[command](ap, command)
        ap.set_defaults(command=command)
        return ap
    ap = _Parser(
        prog="resemi",
        description="Build and classify semigroups of (linear) transformations "
                    "constrained by their restriction to an invariant subset/subspace.",
        epilog=_GRAMMAR,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, fill in _COMMANDS.items():
        fill(sub.add_parser(name), name)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # only the named command's parser (see the module docstring)
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        args = build_parser(command).parse_args(argv if command is None else argv[1:])
        if [] in [*vars(args).values(), *(vars(args).get("mode") or ())]:
            # argparse reads "--flag=--" as an empty list, not as the text "--"
            raise ValueError("'--' is not an option value")
        return args.fn(args)
    except SizeCapExceeded as exc:
        print(f"error: {exc}: {exc.bound}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (ValueError, OSError) as exc:  # a JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
