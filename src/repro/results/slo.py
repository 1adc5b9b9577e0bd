"""Declarative SLO assertions evaluated inside the scenario runner.

An :class:`SLO` is a predicate over a scenario's flat metrics
(:func:`repro.api.metrics.scenario_metrics`): *did the control plane
converge within 20 s*, *did every outage recover within 10 s*, *was at
least 95 % of demanded traffic delivered*, *did convergence cost fewer
than 5 000 control messages* — or any custom expression over metric
names.  SLOs ride the :class:`~repro.scenarios.spec.ScenarioSpec`
(JSON round-trippable like everything else there), the runner
evaluates them as part of every run, and each persisted record carries
the verdicts — so a seeded sweep doubles as a regression gate for
controller changes (``repro campaign check``).

Verdict statuses: ``pass`` / ``fail`` from a real evaluation,
``error`` when the scenario itself died or the expression could not be
evaluated — an errored verdict fails a gate just like a failed one.
"""

from __future__ import annotations

import ast
import operator
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.core.errors import ConfigurationError

PASS = "pass"
FAIL = "fail"
ERROR = "error"


@dataclass
class SLOVerdict:
    """The outcome of one SLO against one scenario's metrics."""

    slo: str                      # the SLO's label, e.g. "converged_within<=20"
    kind: str                     # the SLO kind that produced it
    status: str                   # "pass" | "fail" | "error"
    observed: Optional[float] = None
    threshold: Optional[float] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo,
            "kind": self.kind,
            "status": self.status,
            "observed": self.observed,
            "threshold": self.threshold,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SLOVerdict":
        return cls(
            slo=data["slo"],
            kind=data["kind"],
            status=data["status"],
            observed=data.get("observed"),
            threshold=data.get("threshold"),
            detail=data.get("detail", ""),
        )


@dataclass
class SLO:
    """Base predicate: subclasses define ``kind`` and :meth:`check`."""

    kind = "abstract"

    def label(self) -> str:
        raise NotImplementedError

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on nonsense thresholds."""

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        raise NotImplementedError

    def evaluate(self, metrics: Dict[str, Any]) -> SLOVerdict:
        """Check, demoting any evaluation blow-up to an ``error``
        verdict instead of killing the run.

        The detail names only the exception *type*: verdicts are
        fingerprint-covered and exception message wording varies
        across Python versions (a full repr would make the same run
        fingerprint differently on different interpreters).
        """
        try:
            return self.check(metrics)
        except Exception as exc:  # noqa: BLE001 - verdicts must not raise
            return SLOVerdict(slo=self.label(), kind=self.kind, status=ERROR,
                              detail=f"evaluation error: "
                                     f"{type(exc).__name__}")

    def error_verdict(self, message: str) -> SLOVerdict:
        """The verdict for a scenario that never produced metrics."""
        return SLOVerdict(slo=self.label(), kind=self.kind, status=ERROR,
                          detail=message)

    def to_dict(self) -> Dict[str, Any]:
        """Serialize as {kind, <threshold field>} — every concrete SLO
        has exactly one tunable, named in ``_SLO_FIELDS``."""
        field_name = _SLO_FIELDS[self.kind]
        return {"kind": self.kind, field_name: getattr(self, field_name)}


def _status(passed: bool) -> str:
    return PASS if passed else FAIL


@dataclass
class ConvergedWithin(SLO):
    """The control plane converged, and no later than ``seconds``."""

    seconds: float = 20.0
    kind = "converged_within"

    def label(self) -> str:
        return f"converged_within<={self.seconds:g}s"

    def validate(self) -> None:
        if self.seconds <= 0:
            raise ConfigurationError(
                f"converged_within needs a positive bound, got {self.seconds}")

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        converged = bool(metrics.get("converged"))
        observed = metrics.get("convergence_time")
        if not converged:
            return SLOVerdict(self.label(), self.kind, FAIL,
                              observed=None, threshold=self.seconds,
                              detail="never converged")
        # A protocol-less scenario reports converged with no timestamp:
        # trivially within any bound.
        passed = observed is None or observed <= self.seconds
        return SLOVerdict(self.label(), self.kind, _status(passed),
                          observed=observed, threshold=self.seconds)


@dataclass
class MaxRecoveryTime(SLO):
    """Every injected disruption recovered, each within ``seconds``."""

    seconds: float = 10.0
    kind = "max_recovery_time"

    def label(self) -> str:
        return f"max_recovery_time<={self.seconds:g}s"

    def validate(self) -> None:
        if self.seconds <= 0:
            raise ConfigurationError(
                f"max_recovery_time needs a positive bound, "
                f"got {self.seconds}")

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        unrecovered = int(metrics.get("unrecovered_count") or 0)
        worst = metrics.get("max_recovery_seconds")
        if unrecovered:
            return SLOVerdict(self.label(), self.kind, FAIL,
                              observed=worst, threshold=self.seconds,
                              detail=f"{unrecovered} disruption(s) "
                                     f"never recovered")
        passed = worst is None or worst <= self.seconds
        return SLOVerdict(self.label(), self.kind, _status(passed),
                          observed=worst, threshold=self.seconds)


@dataclass
class MinDeliveredFraction(SLO):
    """At least ``fraction`` of demanded bytes were delivered."""

    fraction: float = 0.95
    kind = "min_delivered_fraction"

    def label(self) -> str:
        return f"delivered_fraction>={self.fraction:g}"

    def validate(self) -> None:
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigurationError(
                f"min_delivered_fraction needs a fraction in (0, 1], "
                f"got {self.fraction}")

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        observed = float(metrics.get("delivered_fraction") or 0.0)
        return SLOVerdict(self.label(), self.kind,
                          _status(observed >= self.fraction),
                          observed=observed, threshold=self.fraction)


@dataclass
class MaxControlMessages(SLO):
    """The control plane used at most ``count`` messages."""

    count: int = 10_000
    kind = "max_control_messages"

    def label(self) -> str:
        return f"control_messages<={self.count}"

    def validate(self) -> None:
        if self.count < 0:
            raise ConfigurationError(
                f"max_control_messages needs a non-negative count, "
                f"got {self.count}")

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        observed = int(metrics.get("control_messages") or 0)
        return SLOVerdict(self.label(), self.kind,
                          _status(observed <= self.count),
                          observed=observed, threshold=float(self.count))


# -- the custom-expression SLO and its safe evaluator ----------------------

#: No ast.Pow: unbounded ** lets a spec file freeze a worker with an
#: astronomically large integer — nothing an SLO needs.
_BIN_OPS: Dict[type, Callable[[Any, Any], Any]] = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: operator.truediv,
    ast.Mod: operator.mod,
}

_CMP_OPS: Dict[type, Callable[[Any, Any], bool]] = {
    ast.Lt: operator.lt,
    ast.LtE: operator.le,
    ast.Gt: operator.gt,
    ast.GtE: operator.ge,
    ast.Eq: operator.eq,
    ast.NotEq: operator.ne,
}

_FUNCS: Dict[str, Callable[..., Any]] = {
    "abs": abs, "min": min, "max": max, "round": round,
}


def _validate_node(node: ast.AST) -> None:
    """The grammar, and the only place a construct is accepted or
    rejected: arithmetic, comparisons, and/or/not, numeric literals,
    metric names, and abs/min/max/round calls.  Every branch is checked,
    short-circuited or not, so a bad spec fails at validate time instead
    of burning a sweep on error verdicts; only unknown metric names
    wait for :func:`_eval_node` (they are resolvable only at run time)."""
    if isinstance(node, ast.Expression):
        _validate_node(node.body)
        return
    if isinstance(node, ast.Constant):
        if isinstance(node.value, (int, float, bool)) or node.value is None:
            return
        raise ConfigurationError(
            f"literal {node.value!r} not allowed in SLO expression")
    if isinstance(node, ast.Name):
        return
    if isinstance(node, ast.BinOp) and type(node.op) in _BIN_OPS:
        _validate_node(node.left)
        _validate_node(node.right)
        return
    if isinstance(node, ast.UnaryOp) and isinstance(node.op,
                                                    (ast.USub, ast.Not)):
        _validate_node(node.operand)
        return
    if isinstance(node, ast.BoolOp):
        for value in node.values:
            _validate_node(value)
        return
    if isinstance(node, ast.Compare):
        for op in node.ops:
            if type(op) not in _CMP_OPS:
                raise ConfigurationError(
                    f"operator {type(op).__name__} not allowed "
                    f"in SLO expression")
        _validate_node(node.left)
        for comparator in node.comparators:
            _validate_node(comparator)
        return
    if isinstance(node, ast.Call):
        if (isinstance(node.func, ast.Name) and node.func.id in _FUNCS
                and not node.keywords):
            for arg in node.args:
                _validate_node(arg)
            return
        raise ConfigurationError("only abs/min/max/round calls are allowed "
                                 "in SLO expressions")
    raise ConfigurationError(
        f"syntax {type(node).__name__} not allowed in SLO expression")


def _parse(expression: str) -> ast.Expression:
    """Parse ``expression`` and check it against the grammar."""
    try:
        tree = ast.parse(expression, mode="eval")
    except SyntaxError as exc:
        raise ConfigurationError(
            f"bad SLO expression {expression!r}: {exc.msg}") from None
    _validate_node(tree)
    return tree


def _eval_node(node: ast.AST, names: Dict[str, Any]) -> Any:
    """Evaluate a tree :func:`_validate_node` accepted."""
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, names)
    if isinstance(node, ast.Constant):
        return node.value
    if isinstance(node, ast.Name):
        if node.id not in names:
            raise ConfigurationError(
                f"unknown metric {node.id!r} in SLO expression")
        return names[node.id]
    if isinstance(node, ast.BinOp):
        return _BIN_OPS[type(node.op)](_eval_node(node.left, names),
                                       _eval_node(node.right, names))
    if isinstance(node, ast.UnaryOp):
        operand = _eval_node(node.operand, names)
        return -operand if isinstance(node.op, ast.USub) else not operand
    if isinstance(node, ast.BoolOp):
        # Short-circuit like Python: "not converged or convergence_time
        # < 30" must be writable when convergence_time is None.
        if isinstance(node.op, ast.And):
            for value in node.values:
                if not _eval_node(value, names):
                    return False
            return True
        for value in node.values:
            if _eval_node(value, names):
                return True
        return False
    if isinstance(node, ast.Compare):
        left = _eval_node(node.left, names)
        for op, comparator in zip(node.ops, node.comparators):
            right = _eval_node(comparator, names)
            if not _CMP_OPS[type(op)](left, right):
                return False
            left = right
        return True
    # What the grammar leaves: a call of one of _FUNCS.
    return _FUNCS[node.func.id](*(_eval_node(arg, names)
                                  for arg in node.args))


def evaluate_expression(expression: str, metrics: Dict[str, Any]) -> Any:
    """Evaluate a metric expression against a flat metrics dict.

    The grammar is a strict subset of Python expressions — arithmetic,
    comparisons, boolean combinators, metric names and abs/min/max/
    round — parsed through :mod:`ast`, never ``eval``, so a spec file
    from anywhere cannot execute anything.
    """
    return _eval_node(_parse(expression), metrics)


@dataclass
class MetricExpression(SLO):
    """A custom boolean expression over the flat metrics, e.g.
    ``"delivered_fraction >= 0.9 and recomputations < 500"``."""

    expression: str = "converged"
    kind = "expr"

    def label(self) -> str:
        return f"expr:{self.expression}"

    def validate(self) -> None:
        if not self.expression.strip():
            raise ConfigurationError("SLO expression must be non-empty")
        _parse(self.expression)

    def check(self, metrics: Dict[str, Any]) -> SLOVerdict:
        value = evaluate_expression(self.expression, metrics)
        return SLOVerdict(self.label(), self.kind, _status(bool(value)),
                          detail=f"evaluated to {value!r}")


# -- serialization ---------------------------------------------------------

SLO_KINDS: Dict[str, type] = {
    ConvergedWithin.kind: ConvergedWithin,
    MaxRecoveryTime.kind: MaxRecoveryTime,
    MinDeliveredFraction.kind: MinDeliveredFraction,
    MaxControlMessages.kind: MaxControlMessages,
    MetricExpression.kind: MetricExpression,
}

#: kind -> the single tunable field that kind serializes.
_SLO_FIELDS: Dict[str, str] = {
    ConvergedWithin.kind: "seconds",
    MaxRecoveryTime.kind: "seconds",
    MinDeliveredFraction.kind: "fraction",
    MaxControlMessages.kind: "count",
    MetricExpression.kind: "expression",
}

#: field -> coercion applied to deserialized/CLI-given values, so a
#: hand-edited spec with "seconds": "20" gates on 20.0 instead of
#: exploding in a string/float comparison mid-sweep.
_FIELD_COERCIONS: Dict[str, Callable[[Any], Any]] = {
    "seconds": float,
    "fraction": float,
    "count": int,
    "expression": str,
}


def _make_slo(kind: Any, raw_value: Any) -> SLO:
    try:
        cls = SLO_KINDS[kind]
    except (KeyError, TypeError):
        raise ConfigurationError(
            f"unknown SLO kind {kind!r}; "
            f"choose from {sorted(SLO_KINDS)}") from None
    field_name = _SLO_FIELDS[kind]
    try:
        value = _FIELD_COERCIONS[field_name](raw_value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"bad {field_name!r} for SLO kind {kind!r}: "
            f"{raw_value!r}") from None
    return cls(**{field_name: value})


def slo_from_dict(data: Dict[str, Any]) -> SLO:
    """Inverse of ``SLO.to_dict`` — the spec deserialization hook."""
    kind = data.get("kind")
    if kind in SLO_KINDS and _SLO_FIELDS[kind] not in data:
        # to_dict always writes the threshold: a payload without it is
        # a typoed spec file, and silently gating on the class default
        # would pass runs the author meant to fail.
        raise ConfigurationError(
            f"SLO kind {kind!r} needs a {_SLO_FIELDS[kind]!r} value")
    return _make_slo(kind, data.get(_SLO_FIELDS.get(kind, ""), None))


def slo_from_kv(kind: str, raw_value: str) -> SLO:
    """Build an SLO from a ``--slo kind=value`` CLI pair — same
    registry and coercions as spec deserialization, one place to add
    a new kind."""
    return _make_slo(kind, raw_value)


def evaluate_slos(
    slos: Sequence[SLO],
    metrics: Optional[Dict[str, Any]],
    error: bool = False,
) -> List[SLOVerdict]:
    """Evaluate every SLO; with ``error`` set (the scenario died before
    producing metrics) every verdict is status ``error``.

    The verdict detail is deliberately a *fixed* string, not the
    exception text: verdicts are fingerprint-covered, and exception
    reprs can embed memory addresses.  The actual error string lives
    in the result's (fingerprint-excluded) diagnostics.
    """
    if error:
        return [slo.error_verdict(
                    "scenario failed before producing metrics "
                    "(see diagnostics.error)")
                for slo in slos]
    return [slo.evaluate(metrics or {}) for slo in slos]
