"""Fully nested reference for the beta-chain identity at p = 2.

`bounds.beta_chain_identity` reduces the nested simplex integral to a chain
of one-dimensional Beta integrals; this module integrates the p = 2 case in
its nested form instead, so the tests can compare the two routes.
"""


def nested_simplex_integral_p2(gamma: float) -> float:
    """Fully nested 2-D route for p = 2 (crosscheck for the chain reduction):
    the inner theta_1 integral desingularized by theta_1 = theta_2 * x leaves
    the outer weight theta_2^{2 gamma - 1} with no upper-endpoint factor."""
    from scipy.integrate import quad
    inner, _ = quad(lambda x: 1.0, 0.0, 1.0, weight="alg",
                    wvar=(gamma - 1.0, gamma - 1.0))
    outer, _ = quad(lambda t: 1.0, 0.0, 1.0, weight="alg",
                    wvar=(2.0 * gamma - 1.0, 0.0))
    return inner * outer
