"""Command-line front door: stable text/JSON output over every module."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .b3 import TorusKnot2k, UnknotClass, classify_closure, normal_form
from .certify import FamilyParams, certify, report_to_dict, sweep
from .links import components, linking_matrix
from .moves import tower_from_json, validate_tower
from .templates import (
    BraidingAssignment,
    Flype,
    InconsistentCorrespondence,
    builtin_template,
    instantiate,
    parse_template_description,
    per_component_beta_delta,
)
from .words import BraidWord, format_word, parse_word

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


def _dumps(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True)


def _word_argument(text: str, strands: Optional[int]) -> BraidWord:
    try:
        word = parse_word(text)
        if strands is not None:
            word = BraidWord(strands, word.letters)
        return word
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


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


def _cmd_invariants(args: argparse.Namespace) -> int:
    word = _word_argument(args.word, args.n)
    e = word.exponent_sum()
    if _resolve_format(args) == "json":
        payload = {
            "word": format_word(word),
            "e": e,
            "b": word.strands,
            "beta": word.bennequin(),
        }
        _emit(_dumps(payload), args.out)
    else:
        _emit(f"e={e}, b={word.strands}, beta={word.bennequin()}", args.out)
    return EXIT_OK


def _cmd_components(args: argparse.Namespace) -> int:
    word = _word_argument(args.word, args.n)
    comps = components(word)
    matrix = linking_matrix(word)
    pair_rows = [
        (matrix.members[i][0], matrix.members[j][0], matrix.between(i, j))
        for i in range(len(matrix.members))
        for j in range(i + 1, len(matrix.members))
    ]
    if _resolve_format(args) == "json":
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
        _emit(_dumps(payload), args.out)
        return EXIT_OK
    lines = [
        f"component {c.members[0]}: strands {{{','.join(map(str, c.members))}}}, "
        f"e={c.self_writhe}, b={c.strand_count}, beta={c.bennequin}"
        for c in comps
    ]
    lines.extend(f"lk({a},{b}) = {lk}" for a, b, lk in pair_rows)
    lines.append(f"beta_total = {word.bennequin()}")
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_conjugate(args: argparse.Namespace) -> int:
    first = _word_argument(args.word1, args.n)
    second = _word_argument(args.word2, args.n)
    if first.strands != 3 or second.strands != 3:
        raise UsageError("conjugate requires three-strand words")
    nf1, nf2 = normal_form(first), normal_form(second)
    verdict = nf1 == nf2
    if _resolve_format(args) == "json":
        payload = {
            "conjugate": verdict,
            "normal_form_1": str(nf1),
            "normal_form_2": str(nf2),
        }
        _emit(_dumps(payload), args.out)
    else:
        _emit(
            f"conjugate: {'true' if verdict else 'false'}\n"
            f"normal_form_1: {nf1}\n"
            f"normal_form_2: {nf2}",
            args.out,
        )
    return EXIT_OK


def _class_payload(result) -> dict:
    if isinstance(result, UnknotClass):
        return {"class": "unknot", "tag": list(result.tag)}
    if isinstance(result, TorusKnot2k):
        return {"class": "torus", "k": result.k, "mu": result.mu}
    return {"class": "generic"}


def _cmd_classify(args: argparse.Namespace) -> int:
    word = _word_argument(args.word, args.n)
    if word.strands != 3:
        raise UsageError("classify requires a three-strand word")
    result = classify_closure(word)
    if _resolve_format(args) == "json":
        _emit(_dumps(_class_payload(result)), args.out)
        return EXIT_OK
    if isinstance(result, UnknotClass):
        text = f"unknot tag=({result.tag[0]},{result.tag[1]})"
    elif isinstance(result, TorusKnot2k):
        text = f"torus k={result.k} mu={result.mu}"
    else:
        text = "generic unique"
    _emit(text, args.out)
    return EXIT_OK


def _cmd_flype(args: argparse.Namespace) -> int:
    try:
        if args.desc is not None:
            with open(args.desc, "r", encoding="utf-8") as handle:
                _, template, assignment = parse_template_description(handle.read())
        else:
            missing = [flag for flag in ("P", "R", "Q") if getattr(args, flag) is None]
            if missing:
                raise UsageError(f"flype needs --{missing[0]} (or --desc FILE)")
            template = builtin_template(Flype(args.sign))
            assignment = BraidingAssignment.from_mapping(
                {
                    "P": _word_argument(args.P, None),
                    "R": _word_argument(args.R, None),
                    "Q": _word_argument(args.Q, None),
                }
            )
        plus = instantiate(template.plus, assignment)
        minus = instantiate(template.minus, assignment)
    except (NotImplementedError, ValueError) as exc:
        raise UsageError(str(exc)) from None
    try:
        table = per_component_beta_delta(template, assignment)
    except InconsistentCorrespondence as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_CHECK_FAILED
    if _resolve_format(args) == "json":
        payload = {
            "plus": format_word(plus),
            "minus": format_word(minus),
            "table": [list(row) for row in table],
        }
        _emit(_dumps(payload), args.out)
        return EXIT_OK
    lines = [f"plus:  {format_word(plus)}", f"minus: {format_word(minus)}"]
    lines.extend(
        f"component {cid}: beta_plus={bp} beta_minus={bm}" for cid, bp, bm in table
    )
    _emit("\n".join(lines), args.out)
    return EXIT_OK


def _cmd_tower_validate(args: argparse.Namespace) -> int:
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
        tower = tower_from_json(text)
    except (OSError, ValueError, KeyError) as exc:
        raise UsageError(f"bad tower description: {exc}") from None
    result = validate_tower(tower)
    counts = result.counts
    if _resolve_format(args) == "json":
        payload = {
            "ok": result.ok,
            "counts": {
                "v_plus": counts.v_plus,
                "v_minus": counts.v_minus,
                "s_plus": counts.s_plus,
                "s_minus": counts.s_minus,
            },
            "problems": [{"code": code, "step": step} for code, step in result.problems],
        }
        _emit(_dumps(payload), args.out)
    else:
        lines = [
            f"ok: {'true' if result.ok else 'false'}",
            f"v_plus={counts.v_plus} v_minus={counts.v_minus} "
            f"s_plus={counts.s_plus} s_minus={counts.s_minus}",
        ]
        lines.extend(f"problem[step {step}]: {code}" for code, step in result.problems)
        _emit("\n".join(lines), args.out)
    return EXIT_OK if result.ok else EXIT_CHECK_FAILED


def _report_text(report) -> List[str]:
    checks = report.checks

    def flag(value: bool) -> str:
        return "true" if value else "false"

    return [
        f"params: p={report.params.p} q={report.params.q} r={report.params.r}",
        f"tx_plus: {format_word(report.tx_plus)}",
        f"tx_minus: {format_word(report.tx_minus)}",
        f"conditions_ok: {flag(checks.conditions_ok)}",
        f"beta_plus: {checks.beta_plus}",
        f"beta_minus: {checks.beta_minus}",
        f"beta_formula_ok: {flag(checks.beta_formula_ok)}",
        f"alexander_equal: {flag(checks.alexander_equal)}",
        f"conjugacy_distinct: {flag(checks.conjugacy_distinct)}",
        f"not_unknot: {flag(checks.not_unknot)}",
        f"not_torus: {flag(checks.not_torus)}",
        f"kolee_single_sign: {flag(checks.kolee_single_sign)}",
        f"obstruction_swap_detected: {flag(checks.obstruction.swap_detected)}",
        f"verdict: {report.verdict}",
    ]


def _cmd_certify(args: argparse.Namespace) -> int:
    report = certify(FamilyParams(args.p, args.q, args.r))
    if _resolve_format(args) == "json":
        _emit(_dumps(report_to_dict(report)), args.out)
    else:
        _emit("\n".join(_report_text(report)), args.out)
    return EXIT_OK if report.certified else EXIT_CHECK_FAILED


def _cmd_sweep(args: argparse.Namespace) -> int:
    p_max = args.p_max if args.p_max is not None else args.max
    q_max = args.q_max if args.q_max is not None else args.max
    r_max = args.r_max if args.r_max is not None else args.max
    if None in (p_max, q_max, r_max):
        raise UsageError("sweep needs --max (or all of --p-max/--q-max/--r-max)")
    try:
        reports = sweep(p_max, q_max, r_max)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if _resolve_format(args) == "json":
        _emit(_dumps([report_to_dict(r) for r in reports]), args.out)
    else:
        lines = [
            f"p={r.params.p} q={r.params.q} r={r.params.r} "
            f"beta={r.checks.beta_plus} verdict={r.verdict}"
            for r in reports
        ]
        lines.append(f"certified {sum(r.certified for r in reports)}/{len(reports)}")
        _emit("\n".join(lines), args.out)
    return EXIT_OK if all(r.certified for r in reports) else EXIT_CHECK_FAILED


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
        return args.func(args)
    except (UsageError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
