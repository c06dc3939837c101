"""Shared fixtures: the calibrated S&P-500 parameter set used throughout."""

import pytest

from three_halves.model import JumpParams, ModelParams, ThetaCurve


@pytest.fixture(scope="session")
def snp_params() -> ModelParams:
    """Default calibrated parameter set (kappa=22.84, theta=4.979, ...)."""
    return ModelParams.with_constant_theta(
        kappa=22.84,
        theta=4.979,
        epsilon=8.56,
        v0=0.060025,
        rho=-0.99,
        s0=100.0,
        r=0.015,
        q=0.0,
    )


@pytest.fixture(scope="session")
def timer_params() -> ModelParams:
    """Timer-option study variant: rho=-0.5, V0=0.087, otherwise default."""
    return ModelParams.with_constant_theta(
        kappa=22.84,
        theta=4.979,
        epsilon=8.56,
        v0=0.087,
        rho=-0.5,
        s0=100.0,
        r=0.015,
        q=0.0,
    )


@pytest.fixture(scope="session")
def jump_params() -> ModelParams:
    return ModelParams.with_constant_theta(
        kappa=22.84,
        theta=4.979,
        epsilon=8.56,
        v0=0.060025,
        rho=-0.99,
        s0=100.0,
        r=0.015,
        q=0.0,
        jumps=JumpParams(lam=0.5, mu=-0.1, sigma=0.2),
    )


@pytest.fixture(scope="session")
def theta_curve_params() -> ModelParams:
    """``timer_params`` with a piecewise-constant theta(t): 3.0 / 6.0 / 4.5
    on [0, 0.3) / [0.3, 0.7) / [0.7, inf), breaks inside the second and
    third monitoring intervals of an N = 4, T = 1 timer."""
    return ModelParams(
        kappa=22.84,
        theta=ThetaCurve((0.3, 0.7, float("inf")), (3.0, 6.0, 4.5)),
        epsilon=8.56,
        v0=0.087,
        rho=-0.5,
        s0=100.0,
        r=0.015,
        q=0.0,
    )
