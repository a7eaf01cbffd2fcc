import math

import pytest

from margsyn.bounds import (BoundError, BoundInputs, hard_instance_schedule,
                            lipschitz_excess_risk_bound, logistic_excess_risk_bound,
                            private_excess_risk_bound)
from margsyn.privacy import PrivacyParams, calibrate

LN2 = math.log(2.0)

# shared fixture: n=1e4, m=4, d=3, tau=1/2, K=1, phi(0)=ln 2
FIXTURE = dict(n=10_000, m=4, d=3, tau=0.5, K=1.0, phi0=LN2)


class TestLipschitzBound:
    def test_zero_nu_leaves_approx_only(self):
        rep = lipschitz_excess_risk_bound(BoundInputs(nu=0.0, **FIXTURE))
        assert rep.marginal_term == 0.0
        assert rep.total == rep.approx_term > 0.0

    def test_approx_term_vanishes_with_order(self):
        vals = [lipschitz_excess_risk_bound(
            BoundInputs(n=10_000, m=4, d=d, tau=0.5, nu=0.0)).total for d in (2, 5, 20, 100)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.6 * vals[0]

    def test_frozen_fixture(self):
        # reference computed by extended-precision evaluation of
        # 4*(5/4)*K*tau*sqrt(m)/sqrt(d-1) + 2/n*(K tau sqrt(m)+ln 2)*((1+2/w) m max(1,tau))^(d-1)*nu
        rep = lipschitz_excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE))
        assert rep.approx_term == pytest.approx(3.535533905932738, rel=1e-12)
        assert rep.marginal_term == pytest.approx(0.216722839111673, rel=1e-12)
        assert rep.total == pytest.approx(3.752256745044411, rel=1e-12)

    def test_requires_nu_and_order(self):
        with pytest.raises(BoundError):
            lipschitz_excess_risk_bound(BoundInputs(**FIXTURE))
        with pytest.raises(BoundError):
            BoundInputs(n=100, m=4, d=1, tau=0.5)

    def test_report_totals_and_terms(self):
        rep = lipschitz_excess_risk_bound(BoundInputs(nu=3.0, **FIXTURE))
        assert rep.total == rep.approx_term + rep.marginal_term
        assert rep.terms["poly_hops"] == 4.0
        assert rep.terms["marginal_hops"] == 2.0

    def test_shape_mode(self):
        rep = lipschitz_excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE), mode="shape")
        assert rep.approx_term == pytest.approx(0.5 * math.sqrt(4.0 / 2.0))
        assert rep.terms["coeff_base"] == pytest.approx(12.0)  # 3 m max(1, tau)


class TestLogisticBound:
    def test_tighter_than_generic_at_fixture(self):
        generic = lipschitz_excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE))
        logistic = logistic_excess_risk_bound(BoundInputs(nu=10.0, **FIXTURE))
        assert logistic.total < generic.total
        assert logistic.total == pytest.approx(1.716722839111673, rel=1e-12)

    def test_inverse_linear_scaling_in_order(self):
        vals = {d: logistic_excess_risk_bound(
            BoundInputs(n=10_000, m=4, d=d, tau=0.5, nu=0.0)).approx_term for d in (2, 5)}
        assert vals[2] / vals[5] == pytest.approx(4.0, rel=1e-12)

    def test_zero_budget(self):
        rep = logistic_excess_risk_bound(BoundInputs(n=100, m=4, d=3, tau=0.0, nu=5.0))
        assert rep.total == rep.approx_term == rep.marginal_term == 0.0

    def test_base_discrepancy_note_recorded(self):
        rep = logistic_excess_risk_bound(BoundInputs(nu=1.0, **FIXTURE))
        assert any("2m vs 3m" in note for note in rep.notes)


class TestPrivateBound:
    def test_zero_sigma_reduces_to_zero_nu(self):
        rep = private_excess_risk_bound(
            BoundInputs(l=4, sigma=0.0, lam=3.0, **FIXTURE), loss="lipschitz")
        base = lipschitz_excess_risk_bound(BoundInputs(nu=0.0, **FIXTURE))
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
        rep = private_excess_risk_bound(
            BoundInputs(n=1000, m=m, d=d, tau=0.5, l=2, lam=3.0, epsilon=eps, delta=delta))
        calib = calibrate(m, d, PrivacyParams(eps, delta, allow_large_epsilon=True))
        assert rep.terms["sigma"] == calib.sigma

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


def test_reports_are_pure():
    a = lipschitz_excess_risk_bound(BoundInputs(nu=2.5, **FIXTURE))
    b = lipschitz_excess_risk_bound(BoundInputs(nu=2.5, **FIXTURE))
    assert a == b


@pytest.mark.parametrize("bound", [lipschitz_excess_risk_bound, logistic_excess_risk_bound])
@pytest.mark.parametrize("mode", ["asymptotic-shape", "exact"])
def test_unknown_mode_raises(bound, mode):
    with pytest.raises(BoundError):
        bound(BoundInputs(nu=1.0, **FIXTURE), mode)
