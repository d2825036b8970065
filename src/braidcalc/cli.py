"""Command-line front door: stable text/JSON output over every module."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, List, Optional, Tuple

# each verb imports its own modules, so a verb loads only what it runs
from .words import BraidWord, _field_values, format_word, parse_word

FORMAT_ENV_VAR = "BRAIDCALC_FORMAT"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse's default error handler prints multi-line usage; the
    # contract wants a one-line diagnostic and exit status 2
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _word_argument(text: str, strands: Optional[int]) -> BraidWord:
    word = parse_word(text)
    if strands is not None:
        word = BraidWord(strands, word.letters)
    return word


def _resolve_format(args: argparse.Namespace) -> str:
    if getattr(args, "json", False):
        return "json"
    if args.format is not None:
        return args.format
    env = os.environ.get(FORMAT_ENV_VAR, "text")
    if env not in ("text", "json"):
        raise UsageError(
            f"{FORMAT_ENV_VAR} must be 'text' or 'json', got {env!r}"
        )
    return env


# Each verb returns its exit code, its JSON payload and its text lines;
# main resolves the format only after the verb ran, so a verb's own usage
# errors take precedence over a bad BRAIDCALC_FORMAT.
Result = Tuple[int, Any, List[str]]


def _cmd_invariants(args: argparse.Namespace) -> Result:
    word = _word_argument(args.word, args.n)
    e, b, beta = word.exponent_sum(), word.strands, word.bennequin()
    payload = {"word": format_word(word), "e": e, "b": b, "beta": beta}
    return EXIT_OK, payload, [f"e={e}, b={b}, beta={beta}"]


def _cmd_components(args: argparse.Namespace) -> Result:
    from .links import components, linking_matrix

    word = _word_argument(args.word, args.n)
    comps = components(word)
    matrix = linking_matrix(word)
    pair_rows = [
        (matrix.members[i][0], matrix.members[j][0], matrix.between(i, j))
        for i in range(len(matrix.members))
        for j in range(i + 1, len(matrix.members))
    ]
    payload = {
        "components": [
            {
                "id": c.members[0],
                "members": list(c.members),
                "e": c.self_writhe,
                "b": c.strand_count,
                "beta": c.bennequin,
            }
            for c in comps
        ],
        "linking": [{"a": a, "b": b, "lk": lk} for a, b, lk in pair_rows],
        "beta_total": word.bennequin(),
    }
    lines = [
        f"component {c.members[0]}: strands {{{','.join(map(str, c.members))}}}, "
        f"e={c.self_writhe}, b={c.strand_count}, beta={c.bennequin}"
        for c in comps
    ]
    lines.extend(f"lk({a},{b}) = {lk}" for a, b, lk in pair_rows)
    lines.append(f"beta_total = {word.bennequin()}")
    return EXIT_OK, payload, lines


def _cmd_conjugate(args: argparse.Namespace) -> Result:
    from .b3 import normal_form

    first = _word_argument(args.word1, args.n)
    second = _word_argument(args.word2, args.n)
    nf1, nf2 = normal_form(first), normal_form(second)
    payload = {"conjugate": nf1 == nf2, "normal_form_1": str(nf1), "normal_form_2": str(nf2)}
    lines = [
        f"conjugate: {json.dumps(nf1 == nf2)}",
        f"normal_form_1: {nf1}",
        f"normal_form_2: {nf2}",
    ]
    return EXIT_OK, payload, lines


def _cmd_classify(args: argparse.Namespace) -> Result:
    from .b3 import TorusKnot2k, UnknotClass, classify_closure, normal_form

    word = _word_argument(args.word, args.n)
    result = classify_closure(normal_form(word))
    if isinstance(result, UnknotClass):
        payload = {"class": "unknot", "tag": list(result.tag)}
        text = f"unknot tag=({result.tag[0]},{result.tag[1]})"
    elif isinstance(result, TorusKnot2k):
        payload = {"class": "torus", "k": result.k, "mu": result.mu}
        text = f"torus k={result.k} mu={result.mu}"
    else:
        payload, text = {"class": "generic"}, "generic unique"
    return EXIT_OK, payload, [text]


def _cmd_flype(args: argparse.Namespace) -> Result:
    from .templates import (
        flype_template,
        instantiate,
        parse_template_description,
        per_component_beta_delta,
    )

    if args.desc is not None:
        with open(args.desc, "r", encoding="utf-8") as handle:
            template, assignment = parse_template_description(handle.read())
    else:
        missing = [flag for flag in ("P", "R", "Q") if getattr(args, flag) is None]
        if missing:
            raise UsageError(f"flype needs --{missing[0]} (or --desc FILE)")
        template = flype_template(args.sign)
        assignment = {flag: parse_word(getattr(args, flag)) for flag in ("P", "R", "Q")}
    plus = instantiate(template.plus, assignment)
    minus = instantiate(template.minus, assignment)
    table = per_component_beta_delta(template, assignment)
    payload = {
        "plus": format_word(plus),
        "minus": format_word(minus),
        "table": [list(row) for row in table],
    }
    lines = [f"plus:  {payload['plus']}", f"minus: {payload['minus']}"]
    lines.extend(
        f"component {cid}: beta_plus={bp} beta_minus={bm}" for cid, bp, bm in table
    )
    return EXIT_OK, payload, lines


def _cmd_tower_validate(args: argparse.Namespace) -> Result:
    from .moves import tower_from_json, validate_tower

    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        result = validate_tower(*tower_from_json(text))
    except (OSError, ValueError) as exc:
        raise UsageError(f"bad tower description: {exc}") from None
    payload = {
        "ok": result.ok,
        "counts": _field_values(result.counts),
        "problems": [{"code": code, "step": step} for code, step in result.problems],
    }
    lines = [
        f"ok: {json.dumps(result.ok)}",
        " ".join(f"{name}={value}" for name, value in payload["counts"].items()),
    ]
    lines.extend(f"problem[step {step}]: {code}" for code, step in result.problems)
    return (EXIT_OK if result.ok else EXIT_CHECK_FAILED), payload, lines


def _cmd_certify(args: argparse.Namespace) -> Result:
    from .certify import FamilyParams, certify, report_lines, report_to_dict

    report = certify(FamilyParams(args.p, args.q, args.r))
    code = EXIT_OK if report.certified else EXIT_CHECK_FAILED
    return code, report_to_dict(report), report_lines(report)


def _cmd_sweep(args: argparse.Namespace) -> Result:
    from .certify import report_to_dict, sweep

    p_max = args.p_max if args.p_max is not None else args.max
    q_max = args.q_max if args.q_max is not None else args.max
    r_max = args.r_max if args.r_max is not None else args.max
    if None in (p_max, q_max, r_max):
        raise UsageError("sweep needs --max (or all of --p-max/--q-max/--r-max)")
    reports = sweep(p_max, q_max, r_max)
    lines = [
        f"p={r.params.p} q={r.params.q} r={r.params.r} "
        f"beta={r.checks.beta_plus} verdict={r.verdict}"
        for r in reports
    ]
    lines.append(f"certified {sum(r.certified for r in reports)}/{len(reports)}")
    code = EXIT_OK if all(r.certified for r in reports) else EXIT_CHECK_FAILED
    return code, [report_to_dict(r) for r in reports], lines


def _build_parser() -> _Parser:
    parser = _Parser(prog="braidcalc", description=__doc__)
    sub = parser.add_subparsers(dest="verb", metavar="verb")
    sub.required = True

    def common(p: argparse.ArgumentParser, needs_n: bool = False) -> None:
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--out", default=None, metavar="FILE")
        if needs_n:
            p.add_argument("--n", type=int, default=None,
                           help="override the inferred strand count")

    p = sub.add_parser("invariants", help="exponent sum, braid index, self-linking")
    p.add_argument("word")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_invariants)

    p = sub.add_parser("components", help="per-component closure invariants")
    p.add_argument("word")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_components)

    p = sub.add_parser("conjugate", help="decide conjugacy of two 3-strand words")
    p.add_argument("word1")
    p.add_argument("word2")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("classify", help="exceptional-class detection for closures")
    p.add_argument("word")
    common(p, needs_n=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("flype", help="instantiate the flype template")
    p.add_argument("--sign", type=int, choices=(1, -1), default=-1)
    p.add_argument("--P", default=None, metavar="WORD")
    p.add_argument("--R", default=None, metavar="WORD")
    p.add_argument("--Q", default=None, metavar="WORD")
    p.add_argument("--desc", default=None, metavar="FILE",
                   help="JSON template description instead of flags")
    common(p)
    p.set_defaults(func=_cmd_flype)

    p = sub.add_parser("tower-validate", help="validate a move tower description")
    p.add_argument("file", nargs="?", default="-", help="JSON file, '-' for stdin")
    common(p)
    p.set_defaults(func=_cmd_tower_validate)

    p = sub.add_parser("certify", help="run the family certification checks")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    common(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("sweep", help="certify every admissible triple in range")
    p.add_argument("--max", type=int, default=None)
    p.add_argument("--p-max", type=int, default=None, dest="p_max")
    p.add_argument("--q-max", type=int, default=None, dest="q_max")
    p.add_argument("--r-max", type=int, default=None, dest="r_max")
    p.add_argument("--json", action="store_true", help="shorthand for --format json")
    common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, payload, lines = args.func(args)
        if _resolve_format(args) == "json":
            text = json.dumps(payload, indent=2, sort_keys=True)
        else:
            text = "\n".join(lines)
        if args.out is None:
            sys.stdout.write(text + "\n")
        else:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
        return code
    # bad input, whether the CLI or a library call finds it, is one line and exit 2
    except (UsageError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
