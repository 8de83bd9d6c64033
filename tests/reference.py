"""Reference formulas on densities, shared by the test modules.

A weight-nu density phi(x)(dx)^nu is the order-0 operator D^0_{0,nu} with
coefficient phi; these helpers build one and act on it by the textbook
formula, independently of densym's operator action.
"""
from densym.densities import DensityOperator


def density(nu, f):
    """phi(x)(dx)^nu as the order-0 operator in D^0_{0,nu}."""
    return DensityOperator(0, nu, [f])


def lie_derivative_density(X, phi):
    """L_X(phi) = (X phi' + nu X' phi)(dx)^nu, for phi of weight nu."""
    assert phi.lam == 0 and phi.order == 0, phi
    f = phi.coeffs[0]
    return density(phi.mu, X.value * f.diff() + phi.mu * (X.value.diff() * f))
