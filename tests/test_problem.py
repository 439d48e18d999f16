import numpy as np
import pytest

from dirbvp import corpus
from dirbvp.convergence import ManufacturedProblem, manufacture
from dirbvp.expr import EvalError, evaluate, parse
from dirbvp.problem import (
    ConditionReport,
    ProblemSpec,
    apriori_bound,
    check_fx_lower,
    check_growth,
    classify,
    make_spec,
)

F1 = "(t + sin(x))/(2*x^2 + 4)"
F2 = "x*exp(t - pi) - atan(x) + exp(t)"


def test_make_spec_validates_constants():
    with pytest.raises(ValueError):
        make_spec("x", "0", A=0.0, B=0.5, fx_lower=-0.5)
    with pytest.raises(ValueError):
        make_spec("x", "0", A=0.5, B=-1.0, fx_lower=-0.5)


@pytest.mark.parametrize("constant", ["A", "B", "fx_lower"])
def test_make_spec_rejects_non_finite_constant(constant):
    # a NaN bound compares false everywhere, so no sample could falsify it
    constants = {"A": 0.5, "B": 0.5, "fx_lower": -0.5}
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="finite"):
            make_spec("x", "0", **{**constants, constant: bad})


def test_make_spec_rejects_v_depending_on_x():
    with pytest.raises(ValueError, match="t only"):
        make_spec("0", "x + 1", A=0.5, B=0.5, fx_lower=0.0)


@pytest.mark.parametrize(
    "build, f, g, name",
    [(make_spec, "0", None, "v"), (make_spec, "0", 2.0, "v"), (make_spec, None, "1", "f"),
     (manufacture, "0", None, "x_star"), (manufacture, None, "t^2 - t", "f")],
)
def test_builders_take_only_expressions(build, f, g, name):
    # a value of another type would otherwise fail later, far from the call that took it
    with pytest.raises(TypeError, match=f"^{name} must be an expression string or tree, got "):
        build(f, g, A=0.1, B=0.1, fx_lower=0.0)


@pytest.mark.parametrize("name", sorted(corpus.ENTRIES))
def test_corpus_fx_matches_finite_differences(name):
    # make_spec trusts the symbolic f_x; check it against centred differences
    problem = corpus.build(name)
    spec = problem.spec if isinstance(problem, ManufacturedProblem) else problem
    step = 1e-6
    checked = 0
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        for x in (-0.93, -0.41, 0.17, 0.58, 0.94):
            try:
                analytic = evaluate(spec.fx, t, x)
                fd = (evaluate(spec.f, t, x + step) - evaluate(spec.f, t, x - step)) / (2 * step)
            except EvalError:
                continue
            assert abs(analytic - fd) <= 1e-5 * (1.0 + abs(analytic)), (t, x)
            checked += 1
    assert checked > 0


def test_check_growth_f1_clean():
    # |t + sin(x)| <= 2 and 2x^2 + 4 >= 4, so |f1| <= 1/2 <= 0.1|x| + 0.5
    spec = make_spec(F1, "1", A=0.1, B=0.5, fx_lower=-0.25)
    report = check_growth(spec, x_range=100.0)
    assert not report.violated
    assert report.violation_count == 0
    assert report.samples_t == 201 and report.samples_x == 2001


def test_check_growth_linear_violation():
    spec = make_spec("x", "0", A=0.5, B=0.1, fx_lower=0.9)
    report = check_growth(spec, x_range=10.0)
    assert report.violated
    assert report.witnesses
    t, x, lhs, rhs = report.witnesses[0]
    assert abs(x) > 0.2  # |x| > B/(1-A) is where the bound fails
    assert lhs > rhs


def test_check_growth_zero_function():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.1)
    assert not check_growth(spec, x_range=50.0).violated


def test_check_growth_reflexive_on_the_bound_itself():
    # f literally equal to A|x| + B can never violate its own bound
    # make_spec cannot differentiate abs; check_growth reads only f
    spec = ProblemSpec(
        f=parse("0.3*abs(x) + 0.2"),
        fx=parse("0.3*x/sqrt(x^2)"),
        v=parse("0"),
        declared_A=0.3,
        declared_B=0.2,
        declared_fx_lower=-0.3,
    )
    assert not check_growth(spec, x_range=25.0).violated


def test_check_fx_lower_f2_clean():
    # f2_x = exp(t - pi) - 1/(1 + x^2) attains its infimum exp(-pi) - 1 at (0, 0)
    lower = float(np.exp(-np.pi) - 1.0)
    spec = make_spec(F2, "1", A=0.12, B=4.3, fx_lower=lower)
    report = check_fx_lower(spec, x_range=10.0)
    assert not report.violated


def test_check_fx_lower_violated_everywhere():
    spec = make_spec("-2*x", "0", A=2.5, B=0.1, fx_lower=-1.0)
    report = check_fx_lower(spec, x_range=10.0, samples_t=11, samples_x=101)
    assert report.violated
    assert report.violation_count == 11 * 101
    t, x, lhs, rhs = report.witnesses[0]
    assert lhs == -2.0 and rhs == -1.0


def test_check_fx_lower_zero_function():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.5)
    assert not check_fx_lower(spec, x_range=10.0).violated


def test_check_reports_eval_failure_with_location():
    spec = make_spec("1/(x - 1)", "0", A=0.5, B=0.5, fx_lower=-10.0)
    with pytest.raises(EvalError, match="sample point"):
        check_growth(spec, x_range=2.0, samples_t=3, samples_x=5)


def test_check_rejects_bad_sampling():
    spec = make_spec("0", "0", A=0.3, B=0.2, fx_lower=-0.5)
    with pytest.raises(ValueError):
        check_growth(spec, x_range=-1.0)


def test_classify_examples():
    flags = classify(make_spec("0", "0", A=0.1, B=0.5, fx_lower=-0.9))
    assert flags.continuous_theorem_applies and flags.discrete_theorem_applies

    flags = classify(make_spec("0", "0", A=2.0, B=0.5, fx_lower=-0.5))
    assert flags.continuous_theorem_applies and not flags.discrete_theorem_applies

    flags = classify(make_spec("0", "0", A=0.5, B=0.5, fx_lower=-20.0))
    assert not flags.continuous_theorem_applies and not flags.discrete_theorem_applies


def test_classify_discrete_implies_continuous():
    rng = np.random.default_rng(5)
    for _ in range(200):
        spec = make_spec(
            "0",
            "0",
            A=float(rng.uniform(0.01, 15.0)),
            B=0.5,
            fx_lower=float(rng.uniform(-15.0, 5.0)),
        )
        flags = classify(spec)
        assert flags.continuous_theorem_applies or not flags.discrete_theorem_applies


def test_apriori_bound():
    spec = make_spec("0", "0", A=0.1, B=0.5, fx_lower=0.0)
    np.testing.assert_allclose(apriori_bound(spec, 1.0), 5.0 / 3.0)

    tiny = make_spec("0", "0", A=1e-9, B=1e-9, fx_lower=0.0)
    assert apriori_bound(tiny, 0.0) < 1e-8

    at_one = make_spec("0", "0", A=1.0, B=0.5, fx_lower=0.0)
    with pytest.raises(ValueError):
        apriori_bound(at_one, 1.0)
    with pytest.raises(ValueError):
        apriori_bound(spec, -1.0)


def test_condition_report_invariant():
    with pytest.raises(ValueError):
        ConditionReport(
            condition="growth",
            verdict="violated",
            witnesses=(),
            violation_count=3,
            samples_t=2,
            samples_x=2,
        )
