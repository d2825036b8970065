"""Certification that a two-parameter flype family is transversally rigid.

For admissible parameters the two words of the negative-flype pair close
to the same topological knot with equal self-linking number, yet lie in
distinct conjugacy classes and dodge every move that could carry one
braiding to the other transversally.  The checks below mechanize each
exclusion step and accumulate into a machine-readable verdict.
"""

from __future__ import annotations

import functools
import json
from typing import Dict, List, Tuple

from .b3 import (
    TorusKnot2k,
    UnknotClass,
    classify_closure,
    kolee_both_signs,
    normal_form,
)
from .burau import _packed_trace
from .links import alexander_polynomial
from .templates import flype_template, instantiate, per_component_beta_delta
from .words import BraidWord, _field_values, _value_class, format_word, parse_word, sigma_power

VERDICT_CERTIFIED = "CERTIFIED_NOT_TRANSVERSALLY_SIMPLE"

# the two-component link assignment whose component table exhibits the
# swapped self-linking numbers; deliberately parameter-independent: one
# bad braiding poisons the template for every braiding
OBSTRUCTION_ASSIGNMENT: Tuple[Tuple[str, str], ...] = (
    ("P", "s1^3"),
    ("Q", "s1^-5"),
    ("R", "s1^4"),
)


@_value_class
class FamilyParams:
    """Parameters (p, q, r) selecting one flype pair of the family."""

    p: int
    q: int
    r: int

    def __init__(self, p: int, q: int, r: int) -> None:
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)

    def violations(self) -> Tuple[str, ...]:
        found = []
        if self.p <= 1:
            found.append("p <= 1")
        if self.q <= 1:
            found.append("q <= 1")
        if self.r <= 1:
            found.append("r <= 1")
        if self.q == self.r:
            found.append("q = r")
        if self.p + 1 == self.q:
            found.append("p+1 = q")
        return tuple(found)


@_value_class
class ObstructionChecks:
    assignment: Tuple[Tuple[str, str], ...]
    component_table: Tuple[Tuple[int, int, int], ...]
    swap_detected: bool


@_value_class
class CertificationChecks:
    """Every exclusion check, in the order the verdict consults them.

    The field order, read from ``__match_args__``, is the order of the
    checks; ``__init__`` takes them in that order, which
    ``tests/test_values.py`` checks.  The verdict names the first failing
    one without its ``_ok`` (``conditions`` adds its first violation);
    ``obstruction`` fails when no swap is detected.  The text and JSON
    reports walk the same fields.  ``beta_plus`` and ``beta_minus`` are
    data, not checks.
    """

    conditions_ok: bool
    beta_plus: int
    beta_minus: int
    beta_formula_ok: bool
    alexander_equal: bool
    conjugacy_distinct: bool
    not_unknot: bool
    not_torus: bool
    kolee_single_sign: bool
    obstruction: ObstructionChecks

    def __init__(
        self, conditions_ok: bool, beta_plus: int, beta_minus: int, beta_formula_ok: bool,
        alexander_equal: bool, conjugacy_distinct: bool, not_unknot: bool, not_torus: bool,
        kolee_single_sign: bool, obstruction: ObstructionChecks,
    ) -> None:
        object.__setattr__(self, "conditions_ok", conditions_ok)
        object.__setattr__(self, "beta_plus", beta_plus)
        object.__setattr__(self, "beta_minus", beta_minus)
        object.__setattr__(self, "beta_formula_ok", beta_formula_ok)
        object.__setattr__(self, "alexander_equal", alexander_equal)
        object.__setattr__(self, "conjugacy_distinct", conjugacy_distinct)
        object.__setattr__(self, "not_unknot", not_unknot)
        object.__setattr__(self, "not_torus", not_torus)
        object.__setattr__(self, "kolee_single_sign", kolee_single_sign)
        object.__setattr__(self, "obstruction", obstruction)


@_value_class
class CertificationReport:
    params: FamilyParams
    tx_plus: BraidWord
    tx_minus: BraidWord
    checks: CertificationChecks
    verdict: str

    def __init__(
        self, params: FamilyParams, tx_plus: BraidWord, tx_minus: BraidWord,
        checks: CertificationChecks, verdict: str,
    ) -> None:
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "tx_plus", tx_plus)
        object.__setattr__(self, "tx_minus", tx_minus)
        object.__setattr__(self, "checks", checks)
        object.__setattr__(self, "verdict", verdict)

    @property
    def certified(self) -> bool:
        return self.verdict == VERDICT_CERTIFIED


def family_words(params: FamilyParams) -> Tuple[BraidWord, BraidWord]:
    """The flype pair at (p, q, r): exponents (2p+1, 2q, 2r) and one
    negative crossing, as instantiations of the negative-flype template
    with the family's twist regions in its blocks."""
    template = flype_template(-1)
    assignment = {
        "P": sigma_power(2, 1, 2 * params.p + 1),
        "R": sigma_power(2, 1, 2 * params.q),
        "Q": sigma_power(2, 1, 2 * params.r),
    }
    return instantiate(template.plus, assignment), instantiate(template.minus, assignment)


@functools.cache
def _obstruction_checks() -> ObstructionChecks:
    template = flype_template(-1)
    assignment = {bid: parse_word(text) for bid, text in OBSTRUCTION_ASSIGNMENT}
    table = tuple(per_component_beta_delta(template, assignment))
    swap = any(bp != bm for _, bp, bm in table)
    return ObstructionChecks(OBSTRUCTION_ASSIGNMENT, table, swap)


def _alexander_equal(a: BraidWord, b: BraidWord) -> bool:
    """Whether the closures of ``a`` and ``b`` have equal Alexander polynomials.

    On 3 strands Delta * (1 + t + t^2) = 1 - tr + (-t)^e, so two words
    with the same exponent sum e and the same Burau trace have the same
    polynomial.  Equal packed traces, at the same ``low`` and digit
    width, are equal traces (see ``_packed_trace``).  Every other case
    compares the polynomials, which may be equal up to a unit although
    the traces differ.
    """
    if a.strands == b.strands == 3 and a.exponent_sum() == b.exponent_sum():
        if _packed_trace(a) == _packed_trace(b):
            return True
    return alexander_polynomial(a) == alexander_polynomial(b)


def certify(params: FamilyParams) -> CertificationReport:
    """Run every exclusion check on the pair at (p, q, r).

    All checks run regardless of earlier failures; the verdict is
    CERTIFIED only when every one of them passes, otherwise FAILED with
    the first failing check as the reason.
    """
    tx_plus, tx_minus = family_words(params)
    violations = params.violations()
    beta_plus = tx_plus.bennequin()
    beta_minus = tx_minus.bennequin()
    expected_beta = 2 * params.p + 2 * params.q + 2 * params.r - 3
    nf_plus, nf_minus = normal_form(tx_plus), normal_form(tx_minus)
    class_plus, class_minus = classify_closure(nf_plus), classify_closure(nf_minus)
    checks = CertificationChecks(
        conditions_ok=not violations,
        beta_plus=beta_plus,
        beta_minus=beta_minus,
        beta_formula_ok=beta_plus == expected_beta and beta_minus == expected_beta,
        alexander_equal=_alexander_equal(tx_plus, tx_minus),
        conjugacy_distinct=nf_plus != nf_minus,
        not_unknot=not isinstance(class_plus, UnknotClass)
        and not isinstance(class_minus, UnknotClass),
        not_torus=not isinstance(class_plus, TorusKnot2k)
        and not isinstance(class_minus, TorusKnot2k),
        kolee_single_sign=not kolee_both_signs(
            2 * params.p + 1, 2 * params.q, 2 * params.r, -1
        ),
        obstruction=_obstruction_checks(),
    )
    return CertificationReport(params, tx_plus, tx_minus, checks, verdict(params, checks))


def verdict(params: FamilyParams, checks: CertificationChecks) -> str:
    """FAILED naming the first failing check in field order, else CERTIFIED."""
    for name, value in _field_values(checks).items():
        if isinstance(value, ObstructionChecks):
            value = value.swap_detected
        if value is False:  # the betas are ints, never False
            if name == "conditions_ok":
                return f"FAILED(conditions: {params.violations()[0]})"
            return f"FAILED({name.removesuffix('_ok')})"
    return VERDICT_CERTIFIED


# The largest bound ``sweep`` takes on each of p, q and r.  A sweep holds
# every report and its time grows faster than the cube of its bounds: on
# a shared 2-core host, --max 16 takes about 1 s and --max 24, which
# certifies 11 154 triples, about 3-4 s.
SWEEP_MAX = 24


def sweep(p_max: int, q_max: int, r_max: int) -> List[CertificationReport]:
    """Certify every admissible triple with 2 <= p,q,r <= the bounds."""
    if min(p_max, q_max, r_max) < 2:
        raise ValueError("sweep bounds must be >= 2")
    if max(p_max, q_max, r_max) > SWEEP_MAX:
        raise ValueError(f"sweep bounds must be <= {SWEEP_MAX}")
    reports = []
    for p in range(2, p_max + 1):
        for q in range(2, q_max + 1):
            for r in range(2, r_max + 1):
                params = FamilyParams(p, q, r)
                if not params.violations():
                    reports.append(certify(params))
    return reports


def report_to_dict(report: CertificationReport) -> Dict:
    checks = _field_values(report.checks)
    obstruction = report.checks.obstruction
    checks["obstruction"] = {
        "assignment": dict(obstruction.assignment),
        "component_table": [list(row) for row in obstruction.component_table],
        "swap_detected": obstruction.swap_detected,
    }
    return {
        "params": _field_values(report.params),
        "tx_plus": format_word(report.tx_plus),
        "tx_minus": format_word(report.tx_minus),
        "checks": checks,
        "verdict": report.verdict,
    }


def report_to_json(report: CertificationReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True)


def report_lines(report: CertificationReport) -> List[str]:
    """The text report: one ``name: value`` line per check field."""
    p = report.params
    lines = [
        f"params: p={p.p} q={p.q} r={p.r}",
        f"tx_plus: {format_word(report.tx_plus)}",
        f"tx_minus: {format_word(report.tx_minus)}",
    ]
    for name, value in _field_values(report.checks).items():
        if isinstance(value, ObstructionChecks):
            name, value = "obstruction_swap_detected", value.swap_detected
        # JSON spelling: true/false for flags, digits for the betas
        lines.append(f"{name}: {json.dumps(value)}")
    lines.append(f"verdict: {report.verdict}")
    return lines
