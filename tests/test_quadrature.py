"""The one quadrature kernel, ``numerics.gauss_kronrod``.

Oracle: ``scipy.integrate.quad`` (QUADPACK), kept here as a test-only
reference; the package itself no longer imports ``scipy.integrate``.  The
kernel is checked at each former quad caller's tolerances:
1e-12/1e-10 (``recover_F_from_G``), 1e-11/1e-11 (``vega_integral``) and
1e-12/1e-12 (``boundary_from_quantile_integral``).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from zonoid_lab.errors import DomainError, ZonoidLabError
from zonoid_lab.numerics import (_G_WEIGHTS, _GK_NODES, _GK_PANELS, _GK_WEIGHTS,
                                 gauss_kronrod)

TOLERANCES = [(1e-12, 1e-10), (1e-11, 1e-11), (1e-12, 1e-12)]


class Counted:
    """An integrand that records the nodes of every call."""

    def __init__(self, fn):
        self.fn, self.calls = fn, []

    def __call__(self, x):
        self.calls.append(np.array(x, copy=True))
        return self.fn(x)


def test_rule_is_exact_to_its_degree():
    # K15 integrates degree <= 22 exactly on [-1, 1], its G7 part degree <= 13
    for d in range(23):
        exact = 0.0 if d % 2 else 2.0 / (d + 1)
        assert abs(_GK_WEIGHTS @ _GK_NODES ** d - exact) <= 4e-16
        if d <= 13:
            assert abs(_G_WEIGHTS @ _GK_NODES ** d - exact) <= 4e-16
    nodes, weights = np.polynomial.legendre.leggauss(7)
    used = _G_WEIGHTS > 0.0
    assert np.allclose(_GK_NODES[used], nodes, rtol=0.0, atol=2e-16)
    assert np.allclose(_G_WEIGHTS[used], weights, rtol=0.0, atol=3e-16)


def smooth(a0, a1, w, phase, a2, c, m):
    return lambda x: a0 + a1 * np.sin(w * x + phase) + a2 * np.exp(-c * (x - m) ** 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2),
       st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(0.1, 12.0),
                 st.floats(0.0, 6.3), st.floats(-3.0, 3.0), st.floats(0.1, 40.0),
                 st.floats(-2.0, 2.0)),
       st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(0.0, 4.0), st.integers(0, 3)),
                min_size=1, max_size=12))
def test_kernel_agrees_with_quad(which, params, panels):
    epsabs, epsrel = TOLERANCES[which]
    fn = smooth(*params)
    lo = np.array([a for a, _, _ in panels])
    hi = lo + np.array([w for _, w, _ in panels])
    owner = np.array([o for _, _, o in panels])
    got = gauss_kronrod(fn, lo, hi, owner, epsabs=epsabs, epsrel=epsrel)
    assert got.shape == (owner.max() + 1,)
    for o in range(owner.max() + 1):
        pieces = [integrate.quad(fn, a, b, epsabs=epsabs, epsrel=epsrel, limit=300)[0]
                  for a, b in zip(lo[owner == o], hi[owner == o])]
        want = sum(pieces)
        # each side within its own budget: the kernel one per owner, quad one per panel
        bound = (max(epsabs, epsrel * abs(want))
                 + sum(max(epsabs, epsrel * abs(q)) for q in pieces))
        assert abs(got[o] - want) <= bound


def test_owners_panels_and_broadcast():
    f = lambda x: np.cos(x)
    got = gauss_kronrod(f, [0.0, 1.0, 2.0, 0.5], [1.0, 2.0, 3.0, 0.5], [0, 0, 1, 2],
                        epsabs=1e-13, epsrel=1e-13)
    assert got == pytest.approx([np.sin(2.0), np.sin(3.0) - np.sin(2.0), 0.0], abs=1e-13)
    assert got[2] == 0.0  # a zero-width panel
    # a reversed panel integrates with the sign flipped, as quad does
    assert gauss_kronrod(f, [1.0], [0.0], epsabs=1e-13, epsrel=1e-13)[0] == \
        pytest.approx(-np.sin(1.0), abs=1e-13)
    # a scalar return broadcasts over the nodes
    assert gauss_kronrod(lambda x: 2.0, [0.0, 1.0], [1.0, 4.0], epsabs=1e-13,
                         epsrel=1e-13) == pytest.approx([2.0, 6.0], abs=1e-14)
    assert gauss_kronrod(f, [], [], epsabs=1e-13, epsrel=1e-13).shape == (0,)


def test_only_owners_over_budget_are_refined():
    # owner 0 is a polynomial (done in round 1); owner 1 has a kink at 0.3
    fn = Counted(lambda x: np.where(x < 5.0, x ** 2, np.abs(x - 5.3)))
    got = gauss_kronrod(fn, [0.0, 5.0], [1.0, 6.0], epsabs=1e-12, epsrel=1e-12)
    assert got == pytest.approx([1.0 / 3.0, 0.5 * (0.3 ** 2 + 0.7 ** 2)], abs=1e-12)
    assert len(fn.calls) > 2
    assert fn.calls[0].size == 30 and all(np.all(c > 5.0) for c in fn.calls[1:])
    # within an owner, only panels over their share are bisected: after
    # round 2 the panels far from the kink are not evaluated again
    assert all(np.all(np.abs(c - 5.3) < 0.5) for c in fn.calls[2:])


def test_non_integrable_integrand_raises_after_bounded_work():
    fn = Counted(lambda x: 1.0 / np.abs(x - 0.3))
    with pytest.raises(ZonoidLabError, match="did not converge"):
        gauss_kronrod(fn, [0.0], [1.0], epsabs=1e-12, epsrel=1e-12)
    # each round adds at least one panel to the owner, and no more than the
    # panels it has: rounds and nodes per call stay under the cap
    assert len(fn.calls) <= _GK_PANELS
    assert max(c.size for c in fn.calls) <= 2 * 15 * _GK_PANELS


def test_non_finite_integrand_is_a_domain_error():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(DomainError, match="not finite"):
            gauss_kronrod(lambda x: 1.0 / (x - 0.5), [0.0], [1.0], epsabs=1e-12, epsrel=1e-12)
        with pytest.raises(DomainError):
            gauss_kronrod(lambda x: np.log(x - 0.5), [0.0], [1.0], epsabs=1e-12, epsrel=1e-12)


def test_logistic_generator_edge_converges_in_few_rounds():
    # 1/G for the logistic generator G = q(1 - q) near q = 1e-7 and near the
    # 1 - 1e-6 clip of recover_F_from_G: a budget per integral stops after a
    # handful of bisections toward each end.  (Nearer 1 the nodes themselves
    # round: at 1 - 1e-8 both this kernel and quad miss by about 3.7e-9.)
    fn = Counted(lambda q: 1.0 / (q * (1.0 - q)))
    lo, hi = np.array([1e-7, 0.5]), np.array([0.01, 1.0 - 1e-6])
    got = gauss_kronrod(fn, lo, hi, epsabs=1e-12, epsrel=1e-10)
    logit = lambda p: np.log(p) - np.log1p(-p)
    assert np.max(np.abs(got - (logit(hi) - logit(lo)))) <= 1e-10 * np.abs(got).max()
    assert len(fn.calls) <= 30
