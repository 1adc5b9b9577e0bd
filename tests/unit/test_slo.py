"""Unit tests: the SLO assertion engine — predicates, the safe
expression evaluator, verdict statuses and serialization."""

import random

import pytest

from repro.core.errors import ConfigurationError
from repro.results import (
    SLO_KINDS,
    ConvergedWithin,
    MaxControlMessages,
    MaxRecoveryTime,
    MetricExpression,
    MinDeliveredFraction,
    SLOVerdict,
    evaluate_expression,
    evaluate_slos,
    slo_from_dict,
)

HEALTHY = {
    "converged": True,
    "convergence_time": 12.5,
    "delivered_fraction": 0.97,
    "control_messages": 400,
    "unrecovered_count": 0,
    "max_recovery_seconds": 4.2,
    "recomputations": 55,
}

ALL_SLOS = [
    ConvergedWithin(seconds=20.0),
    MaxRecoveryTime(seconds=10.0),
    MinDeliveredFraction(fraction=0.9),
    MaxControlMessages(count=1000),
    MetricExpression(expression="recomputations < 100"),
]


class TestPredicates:
    def test_all_pass_on_healthy_metrics(self):
        for slo in ALL_SLOS:
            verdict = slo.evaluate(HEALTHY)
            assert verdict.status == "pass", slo.label()
            assert verdict.passed

    def test_converged_within_fails_when_late(self):
        verdict = ConvergedWithin(seconds=10.0).evaluate(HEALTHY)
        assert verdict.status == "fail"
        assert verdict.observed == pytest.approx(12.5)
        assert verdict.threshold == pytest.approx(10.0)

    def test_converged_within_fails_when_never_converged(self):
        verdict = ConvergedWithin(seconds=10.0).evaluate(
            {**HEALTHY, "converged": False, "convergence_time": None})
        assert verdict.status == "fail"
        assert "never converged" in verdict.detail

    def test_converged_without_timestamp_passes(self):
        # Protocol-less scenarios converge trivially with no timestamp.
        verdict = ConvergedWithin(seconds=1.0).evaluate(
            {"converged": True, "convergence_time": None})
        assert verdict.status == "pass"

    def test_max_recovery_fails_on_unrecovered(self):
        verdict = MaxRecoveryTime(seconds=10.0).evaluate(
            {**HEALTHY, "unrecovered_count": 2})
        assert verdict.status == "fail"
        assert "never recovered" in verdict.detail

    def test_max_recovery_fails_when_slow(self):
        verdict = MaxRecoveryTime(seconds=3.0).evaluate(HEALTHY)
        assert verdict.status == "fail"

    def test_max_recovery_passes_with_no_injections(self):
        verdict = MaxRecoveryTime(seconds=3.0).evaluate(
            {"unrecovered_count": 0, "max_recovery_seconds": None})
        assert verdict.status == "pass"

    def test_min_delivered_boundary_inclusive(self):
        slo = MinDeliveredFraction(fraction=0.97)
        assert slo.evaluate(HEALTHY).status == "pass"
        assert slo.evaluate({"delivered_fraction": 0.9699}).status == "fail"

    def test_max_control_messages(self):
        slo = MaxControlMessages(count=399)
        assert slo.evaluate(HEALTHY).status == "fail"
        assert MaxControlMessages(count=400).evaluate(HEALTHY).status == "pass"


class TestValidation:
    @pytest.mark.parametrize("slo", [
        ConvergedWithin(seconds=0.0),
        MaxRecoveryTime(seconds=-1.0),
        MinDeliveredFraction(fraction=0.0),
        MinDeliveredFraction(fraction=1.5),
        MaxControlMessages(count=-1),
        MetricExpression(expression=""),
        MetricExpression(expression="converged and"),
    ], ids=lambda s: s.label())
    def test_nonsense_rejected(self, slo):
        with pytest.raises(ConfigurationError):
            slo.validate()

    def test_good_slos_validate(self):
        for slo in ALL_SLOS:
            slo.validate()

    @pytest.mark.parametrize("expression", [
        "converged ** 2 > 0",          # Pow is banned
        "open('x') > 0",
        "metrics['a'] > 0",
        "'text' == 'text'",
    ])
    def test_forbidden_constructs_fail_at_validate_time(self, expression):
        """A statically-bad expression must die at spec validation,
        not after a 10k-scenario run of guaranteed error verdicts."""
        with pytest.raises(ConfigurationError):
            MetricExpression(expression=expression).validate()

    def test_unknown_metric_names_defer_to_evaluation(self):
        # only resolvable at run time — validate must accept them
        MetricExpression(expression="some_future_metric < 5").validate()


class TestExpressionEvaluator:
    def test_arithmetic_and_comparison(self):
        assert evaluate_expression("2 + 3 * 4 == 14", {})
        assert evaluate_expression("convergence_time / 2 < 10", HEALTHY)

    def test_boolean_combinators(self):
        assert evaluate_expression(
            "converged and delivered_fraction >= 0.9", HEALTHY)
        assert evaluate_expression("not (control_messages > 1000)", HEALTHY)
        assert evaluate_expression(
            "control_messages > 1000 or converged", HEALTHY)

    def test_boolean_short_circuit(self):
        """and/or must short-circuit like Python so expressions can
        guard None-able metrics (convergence_time, recovery times)."""
        converged_no_time = {"converged": True, "convergence_time": None}
        assert evaluate_expression(
            "converged or convergence_time < 30", converged_no_time)
        unconverged = {"converged": False, "convergence_time": None}
        assert not evaluate_expression(
            "converged and convergence_time < 30", unconverged)

    def test_chained_comparison(self):
        assert evaluate_expression("0.9 <= delivered_fraction <= 1.0",
                                   HEALTHY)
        assert not evaluate_expression("0.98 <= delivered_fraction <= 1.0",
                                       HEALTHY)

    def test_allowed_functions(self):
        assert evaluate_expression("max(1, convergence_time) > 12", HEALTHY)
        assert evaluate_expression("abs(-3) == 3", {})

    def test_unknown_metric_rejected(self):
        with pytest.raises(ConfigurationError):
            evaluate_expression("latency_p99 < 5", HEALTHY)

    @pytest.mark.parametrize("expression", [
        "__import__('os')",
        "().__class__",
        "open('x')",
        "'a' < 'b'",
        "[1, 2][0]",
        "converged if converged else 0",
        "lambda: 1",
        "9**9**9**9 < 1",  # unbounded ** could freeze a worker
        # Forbidden on a branch evaluation never reaches: validate()
        # always refused it, the evaluator used to let it through.
        "True or 'x'",
        "converged or open('x')",
        "not converged and [1][0]",
    ])
    def test_dangerous_syntax_rejected(self, expression):
        with pytest.raises(ConfigurationError):
            evaluate_expression(expression, HEALTHY)
        with pytest.raises(ConfigurationError):
            MetricExpression(expression=expression).validate()

    def test_validate_and_evaluate_accept_the_same_grammar(self):
        """One whitelist: over a seeded corpus of expressions grown
        from allowed and forbidden nodes, ``validate()`` accepts exactly
        those ``evaluate_expression`` does not reject.  (Only a
        :class:`ConfigurationError` is a rejection — dividing by zero
        or comparing ``None`` is the metrics' doing, not the
        grammar's — and every name is a known metric, since unknown
        names are the one thing only evaluation can see.)"""
        rng = random.Random(20)
        names = sorted(HEALTHY)
        allowed_leaves = names + ["0", "1", "2.5", "True", "None"]
        forbidden_leaves = ["'text'", "b'x'", "1j", "...", "[1, 2]", "(1, 2)",
                            "{1: 2}", "lambda: 1", "converged.real",
                            "open('x')", "max(1, key=abs)"]
        allowed_shapes = [
            "({} + {})", "({} - {})", "({} * {})", "({} / {})", "({} % {})",
            "(-{})", "(not {})", "({} and {})", "({} or {})",
            "({} < {})", "({} <= {} < {})", "({} == {})", "({} != {})",
            "({} > {})", "({} >= {})",
            "abs({})", "min({}, {})", "max({}, {}, {})", "round({})"]
        forbidden_shapes = [
            "({} ** {})", "({} // {})", "({} & {})", "({} << {})", "(+{})",
            "(~{})", "({} is {})", "({} in {})", "({} if {} else {})",
            "{}[{}]", "len({})", "[{}]", "max({}, default={})"]

        def grow(depth, taint):
            """An expression; ``taint`` says whether one forbidden
            node must appear somewhere in it."""
            if depth == 0:
                return rng.choice(forbidden_leaves if taint
                                  else allowed_leaves)
            bad_here = taint and rng.random() < 0.4
            shape = rng.choice(forbidden_shapes if bad_here
                               else allowed_shapes)
            holes = shape.count("{}")
            carrier = rng.randrange(holes) if taint and not bad_here else -1
            return shape.format(*(grow(depth - 1, hole == carrier)
                                  for hole in range(holes)))

        accepted = rejected = 0
        for case in range(600):
            taint = case % 2 == 1
            expression = grow(rng.randint(0, 3), taint)
            try:
                MetricExpression(expression=expression).validate()
                valid = True
            except ConfigurationError:
                valid = False
            try:
                evaluate_expression(expression, HEALTHY)
                evaluated = True
            except ConfigurationError:
                evaluated = False
            except (ArithmeticError, TypeError):
                evaluated = True
            assert valid == evaluated, expression
            assert valid != taint, expression
            accepted += valid
            rejected += not valid
        assert accepted == rejected == 300

    def test_evaluate_demotes_blowup_to_error_verdict(self):
        verdict = MetricExpression("nonexistent > 1").evaluate(HEALTHY)
        assert verdict.status == "error"
        assert "evaluation error" in verdict.detail


class TestSerialization:
    @pytest.mark.parametrize("slo", ALL_SLOS, ids=lambda s: s.kind)
    def test_round_trip(self, slo):
        again = slo_from_dict(slo.to_dict())
        assert again == slo
        assert type(again) is type(slo)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            slo_from_dict({"kind": "five-nines"})

    def test_missing_threshold_rejected(self):
        """A typoed spec file must not silently gate on the default."""
        with pytest.raises(ConfigurationError, match="seconds"):
            slo_from_dict({"kind": "converged_within", "second": 5})

    def test_string_threshold_coerced(self):
        """Hand-edited spec files say "seconds": "20" — coerce rather
        than explode in a str/float comparison mid-sweep."""
        slo = slo_from_dict({"kind": "converged_within", "seconds": "20"})
        assert slo == ConvergedWithin(seconds=20.0)
        slo = slo_from_dict({"kind": "max_control_messages", "count": "7"})
        assert slo == MaxControlMessages(count=7)

    def test_uncoercible_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="bad 'seconds'"):
            slo_from_dict({"kind": "converged_within",
                           "seconds": "twenty"})

    def test_slo_from_kv_matches_registry(self):
        from repro.results import slo_from_kv

        assert slo_from_kv("converged_within", "20") == ConvergedWithin(
            seconds=20.0)
        assert slo_from_kv("expr", "converged") == MetricExpression(
            expression="converged")
        with pytest.raises(ConfigurationError):
            slo_from_kv("five-nines", "1")

    def test_registry_covers_all(self):
        assert set(SLO_KINDS) == {s.kind for s in ALL_SLOS}

    def test_verdict_round_trip(self):
        verdict = SLOVerdict(slo="x<=1", kind="expr", status="fail",
                             observed=2.0, threshold=1.0, detail="d")
        assert SLOVerdict.from_dict(verdict.to_dict()) == verdict


class TestEvaluateSlos:
    def test_normal_evaluation(self):
        verdicts = evaluate_slos(ALL_SLOS, HEALTHY)
        assert [v.status for v in verdicts] == ["pass"] * len(ALL_SLOS)

    def test_error_mode_marks_everything_error(self):
        verdicts = evaluate_slos(ALL_SLOS, None, error=True)
        assert [v.status for v in verdicts] == ["error"] * len(ALL_SLOS)
        assert all("scenario failed" in v.detail for v in verdicts)
        # labels survive so the report can still tally per-SLO
        assert verdicts[0].slo == ALL_SLOS[0].label()

    def test_error_verdicts_are_deterministic(self):
        """The verdict detail must NOT embed the exception text —
        verdicts are fingerprint-covered and exception reprs can carry
        memory addresses."""
        first = evaluate_slos(ALL_SLOS, None, error=True)
        second = evaluate_slos(ALL_SLOS, None, error=True)
        assert first == second
        assert "0x" not in first[0].detail
