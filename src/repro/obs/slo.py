"""Declarative SLO evaluation over live soak telemetry.

The live watcher (:mod:`repro.obs.live`) and the nightly CI soak both
need the same question answered continuously: *is this run healthy so
far?*  An :class:`SLO` names one metric from the records a ``--live``
run writes (:func:`repro.obs.live.window_record`: ``conformance``,
``skew_over_bound``, ``lease_violations``, ``first_breach_at``, ...)
and a bound on it.  Evaluation is three-valued: a metric absent from
the record (e.g. ``lease_violations`` before the final record, or
``conformance`` before any judged period) is *pending*, not a breach --
a watcher mid-run must not page anyone for data that hasn't arrived
yet.  The ``check`` subcommand of the live CLI decides how strict to be
about still-pending SLOs at exit time.

``first_breach_at`` is naturally inverted: ``None`` means *no breach
ever*, which is the best outcome -- the ``none_or_ge`` op encodes
"never breached, or not before t".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

__all__ = [
    "SLO",
    "SLOStatus",
    "default_slos",
    "evaluate",
    "parse_slo",
    "render_statuses",
]

_OPS = {
    "ge": ">=",
    "le": "<=",
    "none_or_ge": "none-or->=",
}

#: Metrics where ``None`` means "never happened" (best case), so the
#: ``>=`` spelling parses to ``none_or_ge``.
_NONE_IS_GOOD = frozenset({"first_breach_at"})


@dataclass(frozen=True)
class SLO:
    """One service-level objective over a rolling telemetry record."""

    name: str
    metric: str
    op: str  # "ge" | "le" | "none_or_ge"
    threshold: float

    def __post_init__(self):
        if self.op not in _OPS:
            raise ValueError(
                f"unknown SLO op {self.op!r} (have {sorted(_OPS)})"
            )

    def evaluate(self, record: Dict[str, Any]) -> "SLOStatus":
        """Judge one rolling record; absent metrics are pending."""
        if self.metric not in record:
            return SLOStatus(self, None, None)
        value = record[self.metric]
        if self.op == "none_or_ge":
            ok = value is None or value >= self.threshold
        elif value is None:
            ok = None  # metric present but not yet computable
        elif self.op == "ge":
            ok = value >= self.threshold
        else:
            ok = value <= self.threshold
        return SLOStatus(self, value, ok)


@dataclass(frozen=True)
class SLOStatus:
    """The outcome of one SLO against one record."""

    slo: SLO
    value: Any
    ok: Optional[bool]  # None = pending (metric absent / not computable)

    @property
    def label(self) -> str:
        if self.ok is None:
            return "PENDING"
        return "OK" if self.ok else "BREACH"

    def describe(self) -> str:
        value = "-" if self.value is None else _fmt(self.value)
        return (
            f"{self.slo.name} {value} "
            f"{_OPS[self.slo.op]} {_fmt(self.slo.threshold)} {self.label}"
        )


def _fmt(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.4f}".rstrip("0").rstrip(".") or "0"
    return str(value)


def default_slos(
    min_conformance: float = 0.95,
    max_skew_over: float = 0,
    max_lease_violations: float = 0,
    min_first_breach: Optional[float] = None,
) -> Tuple[SLO, ...]:
    """The stock objectives the soak/scenario watchers start from."""
    slos = [
        SLO("conformance", "conformance", "ge", min_conformance),
        SLO("skew-bound", "skew_over_bound", "le", max_skew_over),
        SLO("leases", "lease_violations", "le", max_lease_violations),
    ]
    if min_first_breach is not None:
        slos.append(SLO(
            "first-breach", "first_breach_at", "none_or_ge",
            min_first_breach,
        ))
    return tuple(slos)


def parse_slo(text: str) -> SLO:
    """Parse ``"metric>=0.95"`` / ``"metric<=3"`` into an :class:`SLO`.

    Metrics in :data:`_NONE_IS_GOOD` (``first_breach_at``) get the
    ``none_or_ge`` op for ``>=`` so "never breached" satisfies them.
    """
    for spelling, op in ((">=", "ge"), ("<=", "le")):
        if spelling in text:
            metric, _, raw = text.partition(spelling)
            metric = metric.strip()
            if not metric:
                break
            try:
                threshold = float(raw.strip())
            except ValueError:
                break
            if op == "ge" and metric in _NONE_IS_GOOD:
                op = "none_or_ge"
            return SLO(metric, metric, op, threshold)
    raise ValueError(
        f"can't parse SLO {text!r} (want e.g. 'conformance>=0.95')"
    )


def evaluate(slos: Sequence[SLO],
             record: Dict[str, Any]) -> List[SLOStatus]:
    """All objectives judged against one rolling record."""
    return [slo.evaluate(record) for slo in slos]


def render_statuses(statuses: Sequence[SLOStatus]) -> str:
    """One-line rendering for watch mode / logs."""
    return " | ".join(status.describe() for status in statuses)
