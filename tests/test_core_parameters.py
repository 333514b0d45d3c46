"""Unit tests for the paper's parameter formulas (Equations (3)-(7), Lemma 6.1)."""

from __future__ import annotations

import math

import pytest

from repro.core import parameters


class TestSection45Parameters:
    def test_nu_from_epsilon(self):
        assert parameters.nu_from_epsilon(8.0) == parameters.NU_UPPER_BOUND
        assert parameters.nu_from_epsilon(0.4) == pytest.approx(0.05)
        with pytest.raises(ValueError):
            parameters.nu_from_epsilon(0.0)

    def test_k_phase_decreases_geometrically(self):
        nu, bar_delta = 0.1, 1000
        values = [parameters.k_phase(nu, bar_delta, phase) for phase in range(1, 20)]
        assert values[0] == math.ceil(nu * bar_delta)
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert all(v >= 1 for v in values)
        with pytest.raises(ValueError):
            parameters.k_phase(nu, bar_delta, 0)

    def test_delta_phase_at_least_one(self):
        for phase in range(1, 10):
            assert parameters.delta_phase(0.1, 50, phase) >= 1
        # For very large degrees the floor formula dominates.
        assert parameters.delta_phase(0.125, 10 ** 12, 1) > 1
        with pytest.raises(ValueError):
            parameters.delta_phase(0.1, 50, 0)

    def test_alpha_node_monotone_in_d_minus(self):
        values = [parameters.alpha_node(0.1, 10 ** 6, d) for d in (10, 100, 10 ** 4, 10 ** 6)]
        assert values == sorted(values)
        assert values[0] >= 1

    def test_beta_theoretical_shrinks_with_epsilon(self):
        small = parameters.beta_theoretical(1.0, 1000)
        large = parameters.beta_theoretical(0.1, 1000)
        assert large > small
        assert small == pytest.approx(parameters.BETA_CONSTANT * math.log(1000) ** 3)
        with pytest.raises(ValueError):
            parameters.beta_theoretical(0.0, 10)

    def test_orientation_phase_count(self):
        assert parameters.orientation_phase_count(0.1, 1) == 1
        count = parameters.orientation_phase_count(0.1, 1000)
        # ≈ ln(1000)/(-ln 0.9) ≈ 66.
        assert 50 <= count <= 80

    def test_token_dropping_slack_bound_formula(self):
        bound = parameters.token_dropping_slack_bound(
            alpha_u=2, alpha_v=3, deg_u=10, deg_v=20, delta=1
        )
        expected = 2 * (2 + 3) + (10 * 20 / 6 + 10 / 2 + 20 / 3) * 1
        assert bound == pytest.approx(expected)


class TestSection6Parameters:
    def test_round_bounds_monotone_in_delta(self):
        assert parameters.lemma61_round_bound(0.5, 256) > parameters.lemma61_round_bound(0.5, 16)
        assert parameters.theorem63_round_bound(0.5, 256, 1000) > parameters.theorem63_round_bound(
            0.5, 16, 1000
        )
        assert parameters.theorem_d4_round_bound(64, 256, 1000) > parameters.theorem_d4_round_bound(
            64, 16, 1000
        )


class TestPracticalParameters:
    def test_defaults(self):
        params = parameters.PracticalParameters()
        assert params.resolved_nu() == pytest.approx(parameters.NU_UPPER_BOUND)
        assert params.beta(1000) == 0.0

    def test_nu_derived_from_epsilon_when_unset(self):
        params = parameters.PracticalParameters(nu=None, epsilon=0.4)
        assert params.resolved_nu() == pytest.approx(0.05)

    def test_analytic_beta_when_override_is_none(self):
        params = parameters.PracticalParameters(beta_override=None, epsilon=0.5)
        assert params.beta(100) == pytest.approx(parameters.beta_theoretical(0.5, 100))

    def test_nu_override(self):
        params = parameters.PracticalParameters(nu=0.05)
        assert params.resolved_nu() == 0.05
