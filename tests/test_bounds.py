import json
import math
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from margsyn.bounds import (BoundError, BoundInputs, excess_risk_bound, hard_instance_schedule,
                            private_excess_risk_bound)
from margsyn.cli import main
from margsyn.privacy import PrivacyParams, calibrate

from conftest import assert_refused, reference_lipschitz_bound, reference_logistic_bound

LN2 = math.log(2.0)

# shared fixture: n=1e4, m=4, d=3, tau=1/2, K=1, phi(0)=ln 2
FIXTURE = dict(n=10_000, m=4, d=3, tau=0.5, K=1.0, phi0=LN2)


class TestLipschitzBound:
    def test_zero_nu_leaves_approx_only(self):
        rep = excess_risk_bound(BoundInputs(nu=0.0, **FIXTURE))
        assert rep.marginal_term == 0.0
        assert rep.total == rep.approx_term > 0.0

    def test_approx_term_vanishes_with_order(self):
        vals = [excess_risk_bound(
            BoundInputs(n=10_000, m=4, d=d, tau=0.5, nu=0.0)).total for d in (2, 5, 20, 100)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.6 * vals[0]

    def test_frozen_fixture(self):
        # reference computed by extended-precision evaluation of
        # 4*(5/4)*K*tau*sqrt(m)/sqrt(d-1) + 2/n*(K tau sqrt(m)+ln 2)*((1+2/w) m max(1,tau))^(d-1)*nu
        rep = excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE))
        assert rep.approx_term == pytest.approx(3.535533905932738, rel=1e-12)
        assert rep.marginal_term == pytest.approx(0.216722839111673, rel=1e-12)
        assert rep.total == pytest.approx(3.752256745044411, rel=1e-12)

    def test_requires_nu_and_order(self):
        with pytest.raises(BoundError):
            excess_risk_bound(BoundInputs(**FIXTURE))
        with pytest.raises(BoundError):
            BoundInputs(n=100, m=4, d=1, tau=0.5)

    def test_report_totals_and_terms(self):
        rep = excess_risk_bound(BoundInputs(nu=3.0, **FIXTURE))
        assert rep.total == rep.approx_term + rep.marginal_term
        assert rep.terms["poly_hops"] == 4.0
        assert rep.terms["marginal_hops"] == 2.0

    def test_shape_mode(self):
        rep = excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE), mode="shape")
        assert rep.approx_term == pytest.approx(0.5 * math.sqrt(4.0 / 2.0))
        assert rep.terms["coeff_base"] == pytest.approx(12.0)  # 3 m max(1, tau)


class TestLogisticBound:
    def test_tighter_than_generic_at_fixture(self):
        generic = excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE))
        logistic = excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE), "logistic")
        assert logistic.total < generic.total
        assert logistic.total == pytest.approx(1.716722839111673, rel=1e-12)

    def test_inverse_linear_scaling_in_order(self):
        vals = {d: excess_risk_bound(
            BoundInputs(n=10_000, m=4, d=d, tau=0.5, nu=0.0), "logistic").approx_term for d in (2, 5)}
        assert vals[2] / vals[5] == pytest.approx(4.0, rel=1e-12)

    def test_zero_budget(self):
        rep = excess_risk_bound(BoundInputs(n=100, m=4, d=3, tau=0.0, nu=5.0), "logistic")
        assert rep.total == rep.approx_term == rep.marginal_term == 0.0

    def test_base_discrepancy_note_recorded(self):
        rep = excess_risk_bound(BoundInputs(nu=1.0, **FIXTURE), "logistic")
        assert any("2m vs 3m" in note for note in rep.notes)


class TestPrivateBound:
    def test_zero_sigma_reduces_to_zero_nu(self):
        rep = private_excess_risk_bound(
            BoundInputs(l=4, sigma=0.0, lam=3.0, **FIXTURE), loss="lipschitz")
        base = excess_risk_bound(BoundInputs(nu=0.0, **FIXTURE))
        assert rep.total == pytest.approx(base.total, rel=1e-12)

    def test_frozen_fixture(self):
        # eps=2, delta=1/n^2, lam=3, l=4; sigma = sqrt(2 |Q|) sqrt(2 ln(1.25/delta)) / eps
        # with |Q| = 25 at m=4, d=3; references evaluated in extended precision
        rep = private_excess_risk_bound(
            BoundInputs(l=4, lam=3.0, epsilon=2.0, delta=1e-8, **FIXTURE), loss="lipschitz")
        assert rep.terms["sigma"] == pytest.approx(21.589247494566928, rel=1e-12)
        assert rep.terms["nu_from_tail_bound"] == pytest.approx(13014.730945879144, rel=1e-12)
        assert rep.total == pytest.approx(285.5944779924805, rel=1e-12)

    @pytest.mark.parametrize("m, d", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 3), (8, 2), (12, 3)])
    @pytest.mark.parametrize("eps, delta", [(0.1, 1e-9), (1.0, 1e-6), (2.0, 1e-8), (8.0, 0.01)])
    def test_sigma_is_the_mechanism_sigma(self, m, d, eps, delta):
        inputs = BoundInputs(n=1000, m=m, d=d, tau=0.5, l=2, lam=3.0, epsilon=eps, delta=delta)
        privacy = PrivacyParams(eps, delta, allow_large_epsilon=True)
        if (eps, delta) == (8.0, 0.01):  # the classical sigma is not (8, 0.01)-DP: both refuse
            with pytest.raises(ValueError, match="exact delta"):
                private_excess_risk_bound(inputs)
            with pytest.raises(ValueError, match="exact delta"):
                calibrate(m, d, privacy)
            return
        rep = private_excess_risk_bound(inputs)
        assert rep.terms["sigma"] == calibrate(m, d, privacy)

    @pytest.mark.parametrize("eps", [math.nan, -1.0, 0.0, 1e-3, 1.0, 9.0, 20.0, math.inf])
    @pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-6, 0.5, 1.0])
    def test_refuses_exactly_the_budgets_the_mechanism_refuses(self, eps, delta):
        inputs = BoundInputs(n=1000, m=4, d=2, tau=0.5, l=2, lam=3.0, epsilon=eps, delta=delta)
        try:
            sigma = calibrate(4, 2, PrivacyParams(eps, delta))
        except ValueError:
            with pytest.raises(ValueError):
                private_excess_risk_bound(inputs)
        else:
            assert private_excess_risk_bound(inputs).terms["sigma"] == sigma

    def test_monotone_in_inverse_epsilon(self):
        totals = [private_excess_risk_bound(
            BoundInputs(l=4, lam=3.0, epsilon=eps, delta=1e-8, **FIXTURE)).total
            for eps in (0.25, 0.5, 1.0, 2.0)]
        assert totals == sorted(totals, reverse=True)

    def test_requires_privacy_inputs(self):
        with pytest.raises(BoundError):
            private_excess_risk_bound(BoundInputs(l=4, **FIXTURE))
        with pytest.raises(BoundError):
            private_excess_risk_bound(BoundInputs(lam=3.0, **FIXTURE))


class TestHardInstanceSchedule:
    def test_m8_values(self):
        sched = hard_instance_schedule(8)
        assert sched.r == pytest.approx(5.0 / 6.0)
        assert sched.gamma == pytest.approx(0.43527528164806207, rel=1e-12)
        assert sched.n == pytest.approx(3.741579733092386, rel=1e-12)
        assert sched.d_scale == pytest.approx(1.5863729327381761, rel=1e-12)

    def test_tau_rule(self):
        for m in (6, 17, 100):
            assert hard_instance_schedule(m).tau == pytest.approx(1.0 / math.sqrt(m))

    def test_gamma_range_flag(self):
        assert not hard_instance_schedule(8).gamma_range_ok  # gamma too large at small m
        assert hard_instance_schedule(4000).gamma_range_ok

    def test_minimum_m(self):
        with pytest.raises(BoundError):
            hard_instance_schedule(5)

    @pytest.mark.parametrize("m", [math.inf, math.nan, -math.inf])
    def test_a_non_finite_m_is_refused(self, m):
        # inf used to divide by zero, and NaN to give all-NaN parameters
        with pytest.raises(BoundError, match="schedule needs a finite m > 2e"):
            hard_instance_schedule(m)

    def test_an_n_past_the_largest_float_is_refused(self, tmp_path, capsys):
        # n = exp((m/2)^(1/5)) passes 1.8e308 between m = 3.5e14 and 3.7e14
        assert math.isfinite(hard_instance_schedule(350_000_000_000_000).n)
        for m in (370_000_000_000_000, 10**15, 10**400):
            with pytest.raises(BoundError, match="overflows a float"):
                hard_instance_schedule(m)
        params = tmp_path / "params.json"
        params.write_text(json.dumps({"family": "schedule", "m": 10**15}))
        assert_refused(capsys, ["bound", "--params", str(params), "--out", str(tmp_path / "bound.json")],
                       r"schedule's n = exp\(\(m/2\)\^\(1/5\)\) overflows a float")
        assert not (tmp_path / "bound.json").exists()


@pytest.mark.parametrize("tau", [math.nan, -0.1])
def test_budget_must_be_non_negative(tau):
    with pytest.raises(BoundError):
        BoundInputs(**{**FIXTURE, "tau": tau, "nu": 1.0})
    assert BoundInputs(**{**FIXTURE, "tau": math.inf, "nu": 1.0}).tau == math.inf


def test_reports_are_pure():
    a = excess_risk_bound(BoundInputs(nu=2.5, **FIXTURE))
    b = excess_risk_bound(BoundInputs(nu=2.5, **FIXTURE))
    assert a == b


@pytest.mark.parametrize("loss", ["lipschitz", "logistic"])
@pytest.mark.parametrize("mode", ["asymptotic-shape", "exact"])
def test_unknown_mode_raises(loss, mode):
    with pytest.raises(BoundError):
        excess_risk_bound(BoundInputs(nu=1.0, **FIXTURE), loss, mode)


@pytest.mark.parametrize("loss, mode", [("lipschitz", "bogus"), ("logistic", "exact"),
                                        ("hinge", "explicit"), ("hinge", "shape")])
def test_unknown_loss_or_mode_raises_at_zero_budget(loss, mode):
    # tau = 0 has a closed-form report, but only for a loss and mode that exist
    inputs = BoundInputs(nu=1.0, **{**FIXTURE, "tau": 0.0})
    with pytest.raises(BoundError, match="unknown"):
        excess_risk_bound(inputs, loss, mode)
    with pytest.raises(BoundError, match="unknown"):
        private_excess_risk_bound(BoundInputs(**{**FIXTURE, "tau": 0.0}, l=2, lam=3.0, sigma=1.0),
                                  loss, mode)


@pytest.mark.parametrize("loss", ["lipschitz", "logistic"])
@pytest.mark.parametrize("mode", ["explicit", "shape"])
def test_no_marginal_shift_at_an_infinite_budget(loss, mode):
    # tau = inf makes the marginal term's coefficient infinite; at nu = 0 (or
    # a private bound at sigma = 0) the term is 0, not inf * 0 = NaN
    inputs = {**FIXTURE, "tau": math.inf}
    for report in (excess_risk_bound(BoundInputs(**inputs, nu=0.0), loss, mode),
                   private_excess_risk_bound(BoundInputs(**inputs, l=2, lam=3.0, sigma=0.0), loss, mode)):
        assert report.marginal_term == 0.0
        assert report.approx_term == report.total == math.inf
    assert excess_risk_bound(BoundInputs(**inputs, nu=1.0), loss, mode).marginal_term == math.inf


def test_bound_command_reports_an_infinite_total_at_an_infinite_budget(tmp_path):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"family": "lipschitz", "n": 100, "m": 4, "d": 2, "tau": math.inf,
                                  "nu": 0.0}))
    assert main(["bound", "--params", str(params), "--out", str(tmp_path / "bound.json")]) == 0
    doc = json.loads((tmp_path / "bound.json").read_text())
    assert (doc["marginal_term"], doc["total"]) == (0.0, math.inf)


def test_bound_command_refuses_an_unknown_mode_at_zero_budget(tmp_path, capsys):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"family": "logistic", "mode": "bogus", "n": 100, "m": 4, "d": 3,
                                  "tau": 0.0, "nu": 1.0}))
    assert_refused(capsys, ["bound", "--params", str(params), "--out", str(tmp_path / "bound.json")],
                   "unknown constants mode 'bogus'")
    assert not (tmp_path / "bound.json").exists()


@given(n=st.integers(1, 10**6), m=st.integers(1, 50), d=st.integers(2, 600), tau=st.floats(1e-3, 1e12),
       nu=st.floats(1e-6, 1e6))
def test_a_power_past_the_float_range_saturates_to_infinity(n, m, d, tau, nu):
    # coeff_base ** (d - 1) raises OverflowError past 1.8e308 on Python floats;
    # every value that computes is kept, and the others are infinite, not NaN
    inputs = BoundInputs(n=n, m=m, d=d, tau=tau, nu=nu)
    for loss, reference in (("lipschitz", reference_lipschitz_bound),
                            ("logistic", reference_logistic_bound)):
        for mode in ("explicit", "shape"):
            got = excess_risk_bound(inputs, loss, mode)
            try:
                want = reference(inputs, mode)
            except OverflowError:
                assert got.marginal_term == got.total == math.inf
                assert math.isfinite(got.approx_term)
                assert excess_risk_bound(replace(inputs, nu=0.0), loss, mode).marginal_term == 0.0
            else:
                assert got == want


@pytest.mark.parametrize("loss", ["lipschitz", "logistic"])
@pytest.mark.parametrize("mode", ["explicit", "shape"])
def test_a_tail_bound_past_the_float_range_is_infinite(loss, mode):
    # l**d is an int too large to convert to a float
    inputs = dict(n=100, m=4, d=400, tau=0.5, l=10, lam=3.0)
    report = private_excess_risk_bound(BoundInputs(**inputs, sigma=1.0), loss, mode)
    assert report.terms["nu_from_tail_bound"] == report.marginal_term == report.total == math.inf
    report = private_excess_risk_bound(BoundInputs(**inputs, sigma=0.0), loss, mode)
    assert report.terms["nu_from_tail_bound"] == report.marginal_term == 0.0
    assert math.isfinite(report.total)


def test_a_logistic_curvature_past_the_float_range_is_infinite():
    # (2 tau sqrt(m))^2 passes 1.8e308 at tau = 1e160
    report = excess_risk_bound(BoundInputs(n=100, m=4, d=3, tau=1e160, nu=1.0), "logistic")
    assert report.terms["rescaled_curvature"] == report.approx_term == report.total == math.inf


@pytest.mark.parametrize("params", [
    {"family": "lipschitz", "n": 100, "m": 4, "d": 200, "tau": 1e10, "nu": 1.0},
    {"family": "lipschitz", "n": 100, "m": 4, "d": 200, "tau": 1e10, "nu": 1.0, "mode": "shape"},
    {"family": "private-logistic", "n": 100, "m": 4, "d": 400, "tau": 0.5, "l": 10, "lam": 3.0, "sigma": 1.0},
], ids=["lipschitz", "lipschitz shape", "private-logistic"])
def test_bound_command_reports_an_infinite_total_past_the_float_range(tmp_path, params):
    # both used to exit 1 with an OverflowError traceback
    path = tmp_path / "params.json"
    path.write_text(json.dumps(params))
    assert main(["bound", "--params", str(path), "--out", str(tmp_path / "bound.json")]) == 0
    doc = json.loads((tmp_path / "bound.json").read_text())
    assert (doc["marginal_term"], doc["total"]) == (math.inf, math.inf)


@given(n=st.integers(1, 10**6), m=st.integers(1, 50), d=st.integers(2, 8),
       tau=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)), K=st.floats(1e-3, 10.0),
       phi0=st.floats(-5.0, 5.0), nu=st.floats(0.0, 1e6))
def test_one_calculator_equals_the_two_it_replaced(n, m, d, tau, K, phi0, nu):
    inputs = BoundInputs(n=n, m=m, d=d, tau=tau, K=K, phi0=phi0, nu=nu)
    for loss, reference in (("lipschitz", reference_lipschitz_bound),
                            ("logistic", reference_logistic_bound)):
        for mode in ("explicit", "shape"):
            got, want = excess_risk_bound(inputs, loss, mode), reference(inputs, mode)
            assert got == want
            assert list(got.terms) == list(want.terms)


@pytest.mark.parametrize("nu", [-50.0, -1e-12, math.nan])
def test_nu_must_be_non_negative(nu):
    with pytest.raises(BoundError):
        BoundInputs(**FIXTURE, nu=nu)
    assert excess_risk_bound(BoundInputs(**FIXTURE, nu=math.inf)).total == math.inf


@pytest.mark.parametrize("sigma", [-1.0, math.nan])
def test_sigma_must_be_non_negative(sigma):
    with pytest.raises(BoundError):
        BoundInputs(**FIXTURE, l=4, lam=3.0, sigma=sigma)


@pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, math.nan])
def test_lam_must_be_finite_and_positive(lam):
    with pytest.raises(BoundError):
        BoundInputs(**FIXTURE, l=4, lam=lam, sigma=1.0)


@pytest.mark.parametrize("K", [0.0, -1.0, math.inf, math.nan])
def test_lipschitz_constant_must_be_finite_and_positive(K):
    with pytest.raises(BoundError):
        BoundInputs(**{**FIXTURE, "K": K, "nu": 1.0})


@pytest.mark.parametrize("phi0", [math.inf, -math.inf, math.nan])
def test_loss_at_zero_must_be_finite(phi0):
    with pytest.raises(BoundError):
        BoundInputs(**{**FIXTURE, "phi0": phi0, "nu": 1.0})


@pytest.mark.parametrize("family, name", [("lipschitz", "n"), ("lipschitz", "m"), ("lipschitz", "d"),
                                          ("private-lipschitz", "l")])
def test_an_integer_past_the_float_range_is_refused(family, name, tmp_path, capsys):
    # math.sqrt and float quotients of these used to raise OverflowError
    private = {**FIXTURE, "l": 2, "lam": 3.0, "sigma": 1.0}
    with pytest.raises(BoundError, match=rf"too large for a float .*\['{name}'\]"):
        BoundInputs(**{**private, name: 10**400})
    largest = BoundInputs(**{**private, name: 10**308})  # still a float
    assert not math.isnan(private_excess_risk_bound(largest).total)
    doc = {**FIXTURE, "nu": 1.0} if family == "lipschitz" else private
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**doc, name: 10**400, "family": family}))
    out = tmp_path / "bound.json"
    assert_refused(capsys, ["bound", "--params", str(params), "--out", str(out)],
                   rf"bound inputs too large for a float \(above 1\.798e\+308\): \['{name}'\]")
    assert not out.exists()
