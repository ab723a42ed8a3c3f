"""Curated reference rows for the four model systems and their comparison.

Five benchmark tables are embedded: two for the harmonic-oscillator pair
(uncoupled and coupled), one for spherium, one for Laguerre-Gaussian
modes and one for coupled angular momentum eigenstates.  Each table
carries its own not-shared-entropy convention (sector-restricted or fully
minimized) established when the reference values were matched; the log
base is detected per table by comparing base 2 against base e.

Every entropy-like quantity scales by 1/log(base), so each row runs
through :func:`entconvex.sweep.criterion_vs_observation` once, in bits,
and only its entropies are rescaled to the table's base.  Q_c and the
convexity label are decided in bits, so they do not depend on the base.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .criterion import CriterionReport
from .spectra import LN2
from .sweep import (
    DEFAULT_GRID_SIZE,
    ConvexityLabel,
    PairSpec,
    angular_pair,
    criterion_vs_observation,
    lg_pair,
    oscillator_pair,
    spherium_pair,
)

TABLE_IDS = (1, 2, 3, 4, 5)
DEFAULT_VALUE_TOL = 5e-3
CANDIDATE_BASES = (2.0, math.e)


@dataclass(frozen=True)
class ReferenceRow:
    """One benchmark row: a degenerate pair and its reference quantities."""

    pair: PairSpec
    convexity: str
    qc: int
    s_ns: float
    s_r: float
    s_vn: float | None = None  # omitted in some tables

    def magnitudes(self) -> dict[str, float]:
        out = {"s_ns": self.s_ns, "s_r": self.s_r}
        if self.s_vn is not None:
            out["s_vn"] = self.s_vn
        return out


@dataclass(frozen=True)
class RowResult:
    row: ReferenceRow
    report: CriterionReport
    observed: ConvexityLabel
    value_errors: dict[str, float]
    values_agree: bool
    qc_agree: bool
    convexity_agree: bool

    @property
    def agree(self) -> bool:
        return self.values_agree and self.qc_agree and self.convexity_agree


@dataclass(frozen=True)
class TableResult:
    table_id: int
    log_base: float
    rows: tuple[RowResult, ...]

    @property
    def agree(self) -> bool:
        return all(r.agree for r in self.rows)


def _osc_row(q0, q1, lam, convexity, qc, s_vn, s_ns, s_r, use_sectors) -> ReferenceRow:
    from .oscillator import OscState

    pair = oscillator_pair(OscState(*q0, lam), OscState(*q1, lam), use_sectors=use_sectors)
    return ReferenceRow(pair, convexity, qc, s_ns, s_r, s_vn)


def _lg_row(lm0, lm1, convexity, qc, s_ns, s_r) -> ReferenceRow:
    from .lgmodes import LGMode

    return ReferenceRow(lg_pair(LGMode(*lm0), LGMode(*lm1)), convexity, qc, s_ns, s_r)


def reference_table(table_id: int) -> tuple[ReferenceRow, ...]:
    """The embedded reference rows for one benchmark table."""
    if table_id == 1:  # uncoupled oscillators, fully minimized convention
        rows = [
            _osc_row((0, 0, 3, -1), (0, 0, 3, 1), 0.0, "convex", 1, 3.907, 0.0, 3.907, False),
            _osc_row((0, 0, 3, -1), (3, 1, 0, 0), 0.0, "convex", 1, 3.907, 0.0, 3.907, False),
            _osc_row((1, 1, 2, 0), (0, 0, 3, -1), 0.0, "concave", -1, 3.704, 1.959, 1.745, False),
            _osc_row((0, 0, 2, -2), (0, 0, 2, 2), 0.0, "convex", 1, 3.94, 0.0, 3.94, False),
            _osc_row((0, 0, 2, -2), (1, 1, 1, 1), 0.0, "concave", -1, 3.94, 2.85, 1.09, False),
            _osc_row((0, 0, 2, 2), (1, -1, 1, -1), 0.0, "concave", -1, 3.94, 2.85, 1.09, False),
            _osc_row((1, 1, 1, 1), (1, -1, 1, -1), 0.0, "convex", 1, 2.94, 0.0, 2.94, False),
        ]
    elif table_id == 2:  # coupled oscillators at lambda = 0.7, L_z-sector convention
        rows = [
            _osc_row((1, -1, 0, 0), (1, 1, 0, 0), 0.7, "convex", 1, 2.717, 1.034, 1.683, True),
            _osc_row((2, -1, 0, 0), (2, 1, 0, 0), 0.7, "convex", 1, 3.487, 1.121, 2.366, True),
            _osc_row((0, -2, 0, 0), (0, 2, 0, 0), 0.7, "concave", -1, 1.776, 1.123, 0.653, True),
            _osc_row((1, -2, 0, 0), (1, 2, 0, 0), 0.7, "concave", -1, 3.006, 1.740, 1.266, True),
        ]
    elif table_id == 3:  # spherium, L_z-sector convention
        rows = [
            ReferenceRow(spherium_pair(1), "convex", 1, 0.917, 1.584),
            ReferenceRow(spherium_pair(2), "concave", -1, 1.422, 0.578),
        ]
    elif table_id == 4:  # Laguerre-Gaussian modes, fully minimized convention
        rows = [
            _lg_row((1, 1), (1, -1), "convex", 1, 0.0, 0.796),
            _lg_row((2, 1), (2, -1), "convex", 1, 0.0, 0.894),
            _lg_row((2, 1), (2, 2), "convex", 1, 0.194, 0.700),
            _lg_row((1, 1), (2, -2), "convex", 1, 0.187, 0.608),
            _lg_row((3, 3), (3, -3), "convex", 1, 0.0, 1.323),
        ]
    elif table_id == 5:  # coupled angular momenta, l = 3, fully minimized convention
        rows = [
            ReferenceRow(angular_pair(3, 1, 1), "convex", 1, 0.196, 1.558),
            ReferenceRow(angular_pair(3, 2, 2), "convex", 1, 0.550, 0.997),
            ReferenceRow(angular_pair(3, 3, 3), "concave", -1, 1.031, 0.299),
            ReferenceRow(angular_pair(3, 4, 4), "concave", -1, 1.067, 0.0),
            ReferenceRow(angular_pair(3, 5, 5), "concave", -1, 0.693, 0.0),
            ReferenceRow(angular_pair(3, 6, 6), "concave", 0, 0.0, 0.0),
        ]
    else:
        raise ValueError(f"unknown table id {table_id}")
    return tuple(rows)


def bits_factor(log_base: float) -> float:
    """ln 2 / ln b: the factor that converts bits to base b, exactly 1.0 for b = 2."""
    return LN2 / math.log(log_base)


def rescale_report(report: CriterionReport, log_base: float) -> CriterionReport:
    """Convert a report in bits to base ``log_base`` (:func:`bits_factor`); Q_c is kept."""
    f = bits_factor(log_base)
    return replace(report, s0=report.s0 * f, s1=report.s1 * f, s_ns=report.s_ns * f, s_r=report.s_r * f)


def detect_log_base(rows, reports) -> float:
    """Base (2 or e) with the smaller worst-case magnitude error over a table.

    When the table quotes von Neumann entropies, only those are compared:
    they are independent of the not-shared-entropy convention, so they
    identify the base unambiguously.  Tables without S_vn fall back to
    all quoted magnitudes.
    """
    has_svn = any(r.s_vn is not None for r in rows)
    best_base, best_err = CANDIDATE_BASES[0], None
    for base in CANDIDATE_BASES:
        worst = 0.0
        for row, bits in zip(rows, reports):
            rep = rescale_report(bits, base)
            got = {"s_ns": rep.s_ns, "s_r": rep.s_r, "s_vn": rep.s0}
            for key, ref in row.magnitudes().items():
                if has_svn and key != "s_vn":
                    continue
                worst = max(worst, abs(got[key] - ref) / max(abs(ref), 1.0))
        if best_err is None or worst < best_err:
            best_base, best_err = base, worst
    return best_base


def evaluate_table(
    table_id: int,
    value_tol: float = DEFAULT_VALUE_TOL,
    grid_size: int = DEFAULT_GRID_SIZE,
    log_base: float | None = None,
) -> TableResult:
    """Compute a benchmark table and compare it against the reference rows.

    Each row's verdict is :func:`entconvex.sweep.criterion_vs_observation`
    in bits; ``log_base=None`` selects the base its entropies are rescaled
    to by detection, and an explicit value skips it.
    """
    rows = reference_table(table_id)
    records = [criterion_vs_observation(r.pair, grid_size) for r in rows]
    base = detect_log_base(rows, [rec.report for rec in records]) if log_base is None else log_base

    results = []
    for row, rec in zip(rows, records):
        rep = rescale_report(rec.report, base)
        got = {"s_ns": rep.s_ns, "s_r": rep.s_r, "s_vn": rep.s0}
        errs = {k: abs(got[k] - ref) for k, ref in row.magnitudes().items()}
        results.append(
            RowResult(
                row=row,
                report=rep,
                observed=rec.observed,
                value_errors=errs,
                values_agree=all(e <= value_tol for e in errs.values()),
                qc_agree=rep.qc == row.qc,
                convexity_agree=rec.observed.label == row.convexity,
            )
        )
    return TableResult(table_id, base, tuple(results))
