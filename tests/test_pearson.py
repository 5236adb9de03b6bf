import collections
import json
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad
from scipy.special import ndtr

from steinchaos import pearson
from steinchaos._quadpack import (
    DQK15I,
    DQK21,
    _gauss_kronrod_floats,
    finite_step,
    gauss_kronrod,
    qag,
    tail_step,
)
from steinchaos.cli import EXIT_PRECONDITION, main
from steinchaos.pearson import (
    _QUAD_OPTS,
    CenteringError,
    DensityModel,
    ExplosionError,
    PearsonError,
    PearsonSpec,
    SteinSolution,
    SupportError,
    _relative_accuracy,
    char_residual,
    density_from_tau,
    gamma_spec,
    gaussian_spec,
    pearson_classify,
    stein_bound_check,
    stein_solve,
    tau_from_density,
    uniform_spec,
)

SQ2PI = math.sqrt(2.0 * math.pi)
# dqk21's nodes, in half-lengths from the panel centre
_NODES = DQK21.nodes


def _kronrod21(values, hlgth):
    """QUADPACK dqk21 on each row of integrand values at centre + hlgth * _NODES:
    (result, abserr, resasc)."""
    result, abserr, _, resasc = gauss_kronrod(values, hlgth, DQK21)
    return result, abserr, resasc


def _quad_rel(integrand, lo, hi):
    """pearson's _relative_accuracy on scipy's quad with a scalar integrand:
    the oracle of DensityModel._panels, which runs the same rule on the
    vector port of QUADPACK.  Roundoff IntegrationWarnings are expected at
    these tolerances; the retry and the comparisons control accuracy."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        return _relative_accuracy(
            lambda epsabs: quad(integrand, lo, hi, **dict(_QUAD_OPTS, epsabs=epsabs))
        )


def normal_pdf(x):
    return math.exp(-0.5 * x * x) / SQ2PI


# ----------------------------------------------------------------------
# specs and densities
# ----------------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(PearsonError):
        PearsonSpec(0.0, 0.0, 1.0, 1.0, 2.0)  # support must straddle 0
    with pytest.raises(SupportError):
        PearsonSpec(0.0, 1.0, 0.0, -1.0, 1.0)  # tau <= 0 inside


def test_spec_json_round_trip():
    spec = gamma_spec(2.0)
    obj = spec.to_json_obj()
    assert obj["b"] == "inf"
    restored = PearsonSpec.from_json_obj(obj)
    assert restored == spec


def test_gaussian_density_matches_closed_form():
    d = density_from_tau(gaussian_spec())
    assert d.normalization == pytest.approx(SQ2PI, rel=1e-10)
    xs = np.linspace(-6.0, 6.0, 41)
    errs = [abs(d.pdf(float(x)) - normal_pdf(float(x))) for x in xs]
    assert max(errs) < 1e-8


def test_gamma_density_moments():
    for nu in (1.0, 2.0, 3.0):
        d = density_from_tau(gamma_spec(nu))
        assert d.moment(1) == pytest.approx(0.0, abs=1e-6)
        assert d.moment(2) == pytest.approx(2 * nu, abs=1e-6)
        assert d.moment(3) == pytest.approx(8 * nu, abs=1e-6)
        assert d.moment(4) == pytest.approx(48 * nu + 12 * nu**2, abs=1e-6)


def test_uniform_density_flat():
    d = density_from_tau(uniform_spec())
    xs = np.linspace(-0.99, 0.99, 21)
    assert max(abs(d.pdf(float(x)) - 0.5) for x in xs) < 1e-8


# alpha > 0: complex roots (disc < 0) and a double root (disc = 0)
STUDENT_T3 = PearsonSpec(0.5, 0.0, 1.5, -math.inf, math.inf)
PEARSON_IV = PearsonSpec(0.25, 0.3, 1.0, -math.inf, math.inf)
DOUBLE_ROOT = PearsonSpec(1.0, 2.0, 1.0, -1.0, math.inf)  # tau = (x + 1)^2
WIDE = (-30.0, -2.0, -0.3, 0.7, 5.0, 400.0)


@pytest.mark.parametrize("spec, xs", [(STUDENT_T3, WIDE), (PEARSON_IV, WIDE),
                                      (DOUBLE_ROOT, (-0.99, -0.5, -0.1, 0.5, 3.0, 50.0))],
                         ids=["student-t3", "pearson-iv", "double-root"])
def test_exponent_integral_closed_forms_match_quadrature(spec, xs):
    disc = spec.beta**2 - 4.0 * spec.alpha * spec.gamma
    assert disc <= 0.0 and (disc == 0.0) == (spec is DOUBLE_ROOT)
    for x in xs:
        expect = quad(lambda y: y / float(spec.quadratic(y)), 0.0, x,
                      epsabs=0.0, epsrel=1e-13, limit=200)[0]
        assert spec.exponent_integral(x) == pytest.approx(expect, rel=1e-13, abs=0.0)
    d = density_from_tau(spec)
    assert math.isfinite(d.normalization)
    assert abs(d.moment(1)) < 1e-8


def test_pearson_iv_moments_follow_the_stein_recurrence():
    # E[tau(X) f'(X)] = E[X f(X)] at f = x^k: m_{k+1}(1 - k alpha) = k(beta m_k + gamma m_{k-1})
    d = density_from_tau(PEARSON_IV)
    m = [d.moment(k) for k in range(5)]
    al, be, ga = PEARSON_IV.alpha, PEARSON_IV.beta, PEARSON_IV.gamma
    for k in range(1, 4):
        assert m[k + 1] * (1.0 - k * al) == pytest.approx(k * (be * m[k] + ga * m[k - 1]),
                                                         rel=1e-12)


def test_moment_exists_iff_the_tail_decays_fast_enough():
    def exists(spec):
        return [pearson._moment_exists(spec, k) for k in range(6)]

    for spec in (gaussian_spec(), gamma_spec(1.0), uniform_spec()):
        assert exists(spec) == [True] * 6
    assert exists(STUDENT_T3) == [True] * 3 + [False] * 3
    assert exists(PearsonSpec(1.0, 0.0, 1.0, -math.inf, math.inf)) == [True] * 2 + [False] * 4
    assert exists(DOUBLE_ROOT) == [True] * 2 + [False] * 4
    assert exists(PEARSON_IV) == [True] * 5 + [False]


def test_explosion_check_rejects_nonvanishing_tau():
    with pytest.raises(ExplosionError):
        density_from_tau(PearsonSpec(0.0, 0.0, 1.0, -1.0, 1.0))
    with pytest.raises(ExplosionError):
        density_from_tau(lambda x: 1.0, -1.0, 1.0)


def test_callable_tau_matches_spec_path():
    d_spec = density_from_tau(uniform_spec())
    d_call = density_from_tau(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0)
    xs = np.linspace(-0.9, 0.9, 9)
    for x in xs:
        assert d_call.pdf(float(x)) == pytest.approx(d_spec.pdf(float(x)), abs=1e-8)


def test_from_pdf_validations():
    with pytest.raises(CenteringError):
        DensityModel.from_pdf(lambda x: math.exp(-(x - 0.5) ** 2 / 2) / SQ2PI,
                              -math.inf, math.inf)
    with pytest.raises(PearsonError):
        DensityModel.from_pdf(lambda x: 2 * normal_pdf(x), -math.inf, math.inf)


def test_from_pdf_finite_support():
    # both endpoints are finite, so every panel touching them is substituted
    d = DensityModel.from_pdf(lambda x: 0.5, -1.0, 1.0)
    assert d.normalization == pytest.approx(1.0, abs=1e-8)
    tau = tau_from_density(d)
    for x in (-0.99, -0.6, 0.0, 0.3, 0.95):
        assert tau(x) == pytest.approx((1 - x * x) / 2, abs=1e-8)


# ----------------------------------------------------------------------
# tau from a density and back
# ----------------------------------------------------------------------


def test_tau_from_normal_density():
    d = DensityModel.from_pdf(normal_pdf, -math.inf, math.inf)
    tau = tau_from_density(d)
    xs = np.linspace(-5, 5, 21)
    assert max(abs(tau(float(x)) - 1.0) for x in xs) < 1e-8
    assert tau(1e9) == 0.0  # clamped outside any finite evaluation window


def test_from_pdf_carries_its_tau():
    d = DensityModel.from_pdf(normal_pdf, -math.inf, math.inf)
    assert char_residual(d, math.sin, math.cos) == pytest.approx(0.0, abs=1e-9)
    from_pdf = stein_solve(d, math.tanh)
    from_spec = stein_solve(gaussian_spec(), math.tanh)
    for x in (-1.5, 0.3, 2.0):
        assert from_pdf.u(x) == pytest.approx(from_spec.u(x), abs=1e-9)
        assert from_pdf.u_prime(x) == pytest.approx(from_spec.u_prime(x), abs=1e-9)


def test_tau_from_gamma_density():
    for nu in (1.0, 2.0):
        d = density_from_tau(gamma_spec(nu))
        tau = tau_from_density(d)
        for x in (-nu * 0.7, -0.2, 0.5, 3.0, 8.0):
            assert tau(float(x)) == pytest.approx(2 * (x + nu), rel=1e-7, abs=1e-7)


def test_tau_from_uniform_density():
    d = density_from_tau(uniform_spec())
    tau = tau_from_density(d)
    for x in (-0.8, -0.3, 0.0, 0.4, 0.9):
        assert tau(x) == pytest.approx((1 - x * x) / 2, abs=1e-8)


def test_round_trip_gamma_spec():
    for nu in (1.0, 2.0):
        spec = gamma_spec(nu)
        d = density_from_tau(spec)
        tau = tau_from_density(d)
        lo, hi = d.effective_range()
        xs = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 15)
        assert max(abs(tau(float(x)) - spec.tau(float(x))) for x in xs) < 1e-6


# ----------------------------------------------------------------------
# Stein solutions
# ----------------------------------------------------------------------


def test_gaussian_indicator_solution_bounds():
    d = density_from_tau(gaussian_spec())
    for z in (-1.0, 0.0, 1.0):
        sol = stein_solve(d, lambda x, z=z: 1.0 if x <= z else 0.0,
                          discontinuities=[z])
        lo, hi = d.effective_range()
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 1501)
        u, du = sol.on_grid(xs)
        assert np.abs(u).max() <= SQ2PI / 4.0 + 1e-6
        assert np.abs(du).max() <= 1.0 + 1e-6


def test_gaussian_indicator_closed_form():
    # U(x) = Phi(x)(1 - Phi(z))/phi(x) for x <= z
    d = density_from_tau(gaussian_spec())
    z = 0.7
    sol = stein_solve(d, lambda x: 1.0 if x <= z else 0.0, discontinuities=[z])
    for x in (-2.0, -0.5, 0.3):
        expect = ndtr(x) * (1 - ndtr(z)) / normal_pdf(x)
        assert sol.u(x) == pytest.approx(float(expect), rel=1e-8)


def test_direct_solution_matches_cumulative_grid():
    # u(x) integrates from the support endpoint in one go; on_grid sums
    # panels between neighbouring grid points
    cases = [
        (gaussian_spec(), (-6.0, 6.0)),
        (gamma_spec(1.0), (-0.99, 10.0)),
        (uniform_spec(), (-0.99, 0.99)),
    ]
    for spec, (lo, hi) in cases:
        d = density_from_tau(spec)
        for h, disc in ((math.tanh, ()), (lambda x: 1.0 if x <= 0.3 else 0.0, (0.3,))):
            sol = stein_solve(d, h, discontinuities=disc)
            xs = np.linspace(lo, hi, 17)
            u, _ = sol.on_grid(xs)
            direct = [sol.u(float(x)) for x in xs]
            assert direct == pytest.approx(u.tolist(), rel=1e-9, abs=0.0)


def test_constant_h_gives_zero_solution():
    d = density_from_tau(gaussian_spec())
    sol = stein_solve(d, lambda x: 0.7)
    xs = np.linspace(-5, 5, 11)
    u, du = sol.on_grid(xs)
    assert np.abs(u).max() < 1e-10
    assert np.abs(du).max() < 1e-10


def test_solution_tail_formula_outside_support():
    d = density_from_tau(gamma_spec(1.0))
    sol = stein_solve(d, math.cos)
    x = -1.5  # outside (-1, inf)
    assert sol.u(x) == pytest.approx((math.cos(x) - sol.expected_h) / x, rel=1e-12)


def test_residual_with_numerical_derivative():
    # tau u' - x u - (h - E h) = 0, with u' from centered differences of u
    cases = [
        (density_from_tau(gaussian_spec()), (-4.0, 4.0)),
        (density_from_tau(gamma_spec(1.0)), (-0.9, 6.0)),
        (density_from_tau(uniform_spec()), (-0.95, 0.95)),
    ]
    for d, (lo, hi) in cases:
        sol = stein_solve(d, math.tanh)
        xs = np.linspace(lo, hi, 9)
        step = 1e-4
        for x in xs:
            du = (sol.u(float(x) + step) - sol.u(float(x) - step)) / (2 * step)
            resid = d.tau(float(x)) * du - x * sol.u(float(x)) - (
                math.tanh(x) - sol.expected_h
            )
            assert abs(resid) < 1e-6


def test_stein_bound_check_flags():
    d = density_from_tau(gaussian_spec())
    step = stein_solve(d, lambda x: 0.5 if x <= 0 else -0.5, discontinuities=[0.0])
    chk = stein_bound_check(step)
    assert chk.pass6 and chk.passK
    zero = stein_solve(d, lambda x: 0.0)
    chk0 = stein_bound_check(zero)
    assert chk0.sup_xu == pytest.approx(0.0, abs=1e-12)
    assert chk0.sup_tau_du == pytest.approx(0.0, abs=1e-12)
    assert chk0.pass6 and chk0.passK
    dg = density_from_tau(gamma_spec(1.0))
    cosine = stein_solve(dg, math.cos)
    assert stein_bound_check(cosine).pass6


# ----------------------------------------------------------------------
# classification and characterization
# ----------------------------------------------------------------------


def test_classify_gaussian():
    ode = pearson_classify(gaussian_spec())
    assert ode.derived == (0.0, -1.0, 1.0, 0.0, 0.0)
    assert ode.printed == (0.0, 1.0, 1.0, 0.0, 0.0)


def test_classify_gamma_matches_density():
    nu = 1.5
    ode = pearson_classify(gamma_spec(nu))
    assert ode.derived == (-2.0, -1.0, 2 * nu, 2.0, 0.0)
    d = density_from_tau(gamma_spec(nu))
    step = 1e-5
    for x in (-0.8, 0.5, 2.0):
        logderiv = (math.log(d.pdf(x + step)) - math.log(d.pdf(x - step))) / (2 * step)
        a0, a1, b0, b1, b2 = ode.derived
        assert logderiv == pytest.approx(
            (a0 + a1 * x) / (b0 + b1 * x + b2 * x**2), abs=1e-6
        )


def test_classify_beta_type_matches_density():
    spec = PearsonSpec(-1.0, 0.0, 1.0, -1.0, 1.0)
    ode = pearson_classify(spec)
    d = density_from_tau(spec)
    step = 1e-6
    for x in (-0.6, 0.2, 0.7):
        logderiv = (math.log(d.pdf(x + step)) - math.log(d.pdf(x - step))) / (2 * step)
        a0, a1, b0, b1, b2 = ode.derived
        assert logderiv == pytest.approx(
            (a0 + a1 * x) / (b0 + b1 * x + b2 * x**2), abs=1e-5
        )


def test_generic_inequality_monte_carlo():
    # |E h(F) - E h(Z)| <= E[(U')^2]^{1/2} E[(tau(F) - <DF,-DL^{-1}F>)^2]^{1/2}
    # for a second-chaos F, Gaussian and Gamma targets, h in {tanh, step}
    import math as _math

    from steinchaos.chaos import ChaosVector, malliavin_inner
    from steinchaos.tensors import GramSpace, tensor_power

    space = GramSpace.standard(2)
    e1 = np.array([1.0, 0.0])
    e2 = np.array([0.0, 1.0])
    rng = np.random.Generator(np.random.Philox(key=np.array([55, 0], dtype=np.uint64)))
    xi = rng.standard_normal((100_000, 2))

    cases = []
    f_gauss = 0.5 * (tensor_power(space, e1, 2) + tensor_power(space, e2, 2))
    cases.append(("gauss", density_from_tau(gaussian_spec()), f_gauss, 0.0))
    f_gamma = 0.9 * tensor_power(space, e1, 2) + 0.1 * tensor_power(space, e2, 2)
    cases.append(("gamma", density_from_tau(gamma_spec(1.0)), f_gamma, 1.0))

    hs = [
        ("tanh", math.tanh, ()),
        ("step", lambda x: 1.0 if x <= 0.3 else 0.0, (0.3,)),
    ]
    for name, density, kernel, nu in cases:
        F = ChaosVector.single(kernel)
        w = malliavin_inner(F)
        fv = F.eval(xi)
        # exact L2 distance between tau(F) and the Malliavin weight:
        # tau(F) = 1 for the Gaussian target, 2F + 2 nu for the Gamma target
        # (the kernel is PSD, so F never leaves the support and the clamp in
        # 2(x + nu)_+ is inactive)
        if name == "gauss":
            mismatch = ChaosVector.build(space, 1.0) - w
        else:
            mismatch = ChaosVector.build(space, 2.0 * nu) + 2.0 * F - w
        l2_mismatch = _math.sqrt(mismatch.second_moment())
        lo, hi = density.effective_range()
        span = hi - lo
        for hname, h, disc in hs:
            sol = stein_solve(density, h, discontinuities=disc)
            xs = np.linspace(lo + 1e-6 * span, hi - 1e-6 * span, 3001)
            _, du = sol.on_grid(xs)
            du_f = np.interp(np.clip(fv, xs[0], xs[-1]), xs, du)
            e_du2 = float(np.mean(du_f**2))
            se_du2 = float(np.std(du_f**2) / math.sqrt(len(du_f)))
            h_f = np.array([h(float(v)) for v in fv])
            lhs = abs(float(h_f.mean()) - sol.expected_h)
            se_lhs = float(h_f.std() / math.sqrt(len(h_f)))
            rhs = math.sqrt(e_du2 + 3 * se_du2) * l2_mismatch
            assert lhs <= rhs + 3 * se_lhs, (name, hname, lhs, rhs)


def test_char_residual_identities():
    dg = density_from_tau(gaussian_spec())
    assert char_residual(dg, lambda x: x, lambda x: 1.0) == pytest.approx(0.0, abs=1e-10)
    assert abs(char_residual(dg, math.sin, math.cos)) < 1e-7
    assert abs(char_residual(dg, math.sin)) < 1e-7  # numerical derivative path
    d1 = density_from_tau(gamma_spec(1.0))
    assert char_residual(d1, lambda x: x, lambda x: 1.0) == pytest.approx(0.0, abs=1e-8)


# ----------------------------------------------------------------------
# batched Gauss-Kronrod panels against the scalar per-panel path
# ----------------------------------------------------------------------


def _oracle_panel(density, fn, lo, hi):
    """Deliberate oracle: one scalar QUADPACK call per panel, as the
    quadrature ran before the batched 21-point pass (the weight evaluated
    one point at a time)."""
    if lo >= hi:
        return 0.0

    def weight(x):
        return density._weight(np.array([x]))[0]

    if math.isfinite(density.a) and lo == density.a:
        endpoint, sign = density.a, 1.0
    elif math.isfinite(density.b) and hi == density.b:
        endpoint, sign = density.b, -1.0
    else:
        return _quad_rel(lambda x: fn(x) * weight(x), lo, hi)

    def sub(u):
        x = endpoint + sign * u * u
        if x == endpoint:
            return 0.0
        return 2.0 * u * fn(x) * weight(x)

    return _quad_rel(sub, 0.0, math.sqrt(hi - lo))


def _split_points(lo, hi, points):
    cuts = sorted({float(p) for p in points if lo < p < hi} | {lo, hi})
    if lo < 0.0 < hi:
        cuts = sorted(set(cuts) | {0.0})
    return cuts


def _oracle_integrate_weight(density, fn, lo=None, hi=None, points=()):
    """Deliberate oracle: the per-panel sum of the scalar path."""
    lo = density.a if lo is None else max(lo, density.a)
    hi = density.b if hi is None else min(hi, density.b)
    if lo >= hi:
        return 0.0
    cuts = _split_points(lo, hi, points)
    return sum(_oracle_panel(density, fn, u, v) for u, v in zip(cuts[:-1], cuts[1:]))


def _oracle_integrate(density, fn, lo=None, hi=None, points=()):
    return _oracle_integrate_weight(density, fn, lo, hi, points) / density.normalization


def _oracle_on_grid(sol, xs):
    """Deliberate oracle: SteinSolution.on_grid with one scalar panel
    integral per grid interval and scalar u, u' per point."""
    xs = np.asarray(xs, dtype=float)
    d = sol.density

    def panel(lo=None, hi=None):
        return _oracle_integrate(d, sol._centered, lo, hi, sol.discontinuities)

    nneg = int(np.sum(xs <= 0.0))
    numerators = np.empty_like(xs)
    if nneg:
        acc = panel(hi=xs[0])
        numerators[0] = acc
        for i in range(1, nneg):
            acc += panel(lo=xs[i - 1], hi=xs[i])
            numerators[i] = acc
    if nneg < xs.size:
        acc = -panel(lo=xs[-1])
        numerators[-1] = acc
        for i in range(xs.size - 2, nneg - 1, -1):
            acc -= panel(lo=xs[i], hi=xs[i + 1])
            numerators[i] = acc
    u = np.array([num / (d.tau(x) * d.pdf(x)) for x, num in zip(xs, numerators)])
    du = np.array([(sol._centered(x) + x * v) / d.tau(x) for x, v in zip(xs, u)])
    return u, du


def _assert_close(actual, expected, rtol=1e-13):
    # relative to each value, with a floor at rtol times the largest value
    # for the points where the solution crosses zero
    expected = np.asarray(expected, dtype=float)
    floor = rtol * float(np.max(np.abs(expected)))
    np.testing.assert_allclose(actual, expected, rtol=rtol, atol=floor)


def _assert_check_matches_oracle(sol, grid_size, monkeypatch):
    expected_h = _oracle_integrate(sol.density, sol.h, points=sol.discontinuities)
    _assert_close(sol.expected_h, expected_h)
    chk = stein_bound_check(sol, grid_size=grid_size)
    with monkeypatch.context() as patch:
        patch.setattr(SteinSolution, "_grid", lambda self, xs: (
            _oracle_on_grid(self, xs)[0], np.array([self.h(x) for x in xs.tolist()])))
        patch.setattr(sol, "expected_h", expected_h)
        oracle = stein_bound_check(sol, grid_size=grid_size)
    for field in ("pass6", "passK"):
        assert getattr(chk, field) is getattr(oracle, field)
    for field in ("sup_xu", "sup_tau_du", "sup_h"):
        _assert_close(getattr(chk, field), getattr(oracle, field))
    lo, hi = sol.density.effective_range()
    xs = np.linspace(lo + 1e-6 * (hi - lo), hi - 1e-6 * (hi - lo), 201)
    xs = np.unique(np.concatenate([xs, [p for p in sol.discontinuities if lo < p < hi]]))
    u, du = sol.on_grid(xs)
    u0, du0 = _oracle_on_grid(sol, xs)
    _assert_close(u, u0)
    _assert_close(du, du0)


STEIN_FUNCTIONS = [
    (math.cos, ()),
    (math.tanh, ()),
    (lambda x: 1.0 if x <= 0.5 else 0.0, (0.5,)),
    (lambda x: math.exp(-x * x), ()),
    (lambda x: 0.5 if math.sin(2.0 * x) >= 0 else -0.5,
     tuple(k * math.pi / 2.0 for k in range(-40, 41))),
]


@pytest.mark.parametrize("spec", [gaussian_spec(), gamma_spec(1.0), uniform_spec()],
                         ids=["normal", "gamma1", "uniform"])
def test_batched_stein_checks_match_scalar_oracle(spec, monkeypatch):
    d = density_from_tau(spec)
    assert d.normalization == pytest.approx(
        _oracle_integrate_weight(d, lambda x: 1.0), rel=1e-13)
    for k in range(5):
        oracle = _oracle_integrate(d, lambda x, k=k: x**k)
        assert abs(d.moment(k) - oracle) <= 1e-13 * max(abs(oracle), 1.0)
    for h, disc in STEIN_FUNCTIONS:
        _assert_check_matches_oracle(stein_solve(d, h, disc), 1201, monkeypatch)


def test_batched_from_pdf_and_callable_tau_match_scalar_oracle(monkeypatch):
    d = DensityModel.from_pdf(normal_pdf, -math.inf, math.inf)
    xs = np.linspace(-7.0, 7.0, 29)
    oracle_tau = [
        (-_oracle_integrate(d, lambda y: y, hi=x) if x <= 0.0
         else _oracle_integrate(d, lambda y: y, lo=x)) / d.pdf(x)
        for x in xs.tolist()
    ]
    _assert_close(d.tau(xs), oracle_tau)
    _assert_check_matches_oracle(stein_solve(d, math.tanh), 101, monkeypatch)

    d = density_from_tau(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0)
    step = lambda x: 1.0 if x <= 0.25 else 0.0  # noqa: E731
    _assert_check_matches_oracle(stein_solve(d, step, (0.25,)), 101, monkeypatch)


def test_kronrod21_port_matches_quadpack():
    # dqk21 as QUADPACK runs it: on panels where quad stops after its first
    # 21-point step, the batch rule gives its value and error estimate
    rng = np.random.default_rng(2024)
    lo = rng.uniform(-4.0, 4.0, 300)
    hi = lo + 10.0 ** rng.uniform(-3.0, 0.7, 300)
    freq = rng.uniform(0.1, 3.0, 300)

    def f(x, c):
        return math.exp(-0.5 * x * x) * math.cos(c * x) + 0.1 * x

    centr, hlgth = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centr[:, None] + hlgth[:, None] * _NODES
    values = np.array([[f(x, c) for x in row] for row, c in zip(nodes.tolist(), freq)])
    result, abserr, _ = _kronrod21(values, hlgth)
    first_step = 0
    for i in range(lo.size):
        value, err, info = quad(f, lo[i], hi[i], args=(freq[i],), full_output=1,
                                epsabs=1e-12, epsrel=1e-12, limit=400)
        if info["neval"] == 21:
            first_step += 1
            assert abs(result[i] - value) <= 4 * np.spacing(abs(value))
            assert abserr[i] == pytest.approx(err, rel=1e-12)
    assert 0 < first_step < lo.size


def test_batch_acceptance_never_takes_a_panel_quadpack_refines():
    # an accepted panel is one where quad stops after 21 points and the
    # relative-accuracy retry does not run (wide tail panels need it)
    d = density_from_tau(gaussian_spec())
    rng = np.random.default_rng(7)
    accepted = refined = 0
    for _ in range(300):
        lo = float(rng.uniform(-9.0, 9.0))
        hi = lo + float(10.0 ** rng.uniform(-3.0, 0.8))
        c = float(rng.uniform(0.1, 4.0))

        def integrand(x, c=c):
            return (math.cos(c * x) + 0.3) * d._weight(np.array([x]))[0]

        before = d.quad_fallbacks
        (value,) = d._panels(lambda x, c=c: math.cos(c * x) + 0.3, [lo], [hi])
        _, _, info = quad(integrand, lo, hi, full_output=1,
                          epsabs=1e-12, epsrel=1e-12, limit=400)
        if d.quad_fallbacks == before:
            accepted += 1
            assert info["neval"] == 21
            reference = _quad_rel(integrand, lo, hi)
            assert abs(value - reference) <= 4 * np.spacing(abs(reference))
        else:
            refined += 1
    assert accepted > 0 and refined > 0


# ----------------------------------------------------------------------
# the QUADPACK port against scipy's quad
# ----------------------------------------------------------------------


def _pointwise(f):
    # one scalar call per node, so the port and quad see the same values
    return lambda xs: np.array([f(v) for v in xs.ravel().tolist()]).reshape(xs.shape)


def _integrand_families(c, k):
    return [
        lambda x: math.exp(-0.5 * x * x) * math.cos(k * x) + 0.1 * x,
        lambda x: abs(x - c) ** -0.5 if x != c else 0.0,
        lambda x: abs(x - c) ** -0.9 if x != c else 0.0,
        lambda x: math.log(abs(x - c)) if x != c else 0.0,
        lambda x: 1.0 if x <= c else -0.3,
        lambda x: math.sin(20.0 * k * x) * math.exp(-0.1 * abs(x)),
    ]


def _assert_port_matches_quad(f, lo, hi, epsabs, seen, limit=400):
    if math.isinf(hi):
        npts, a, b = 15, 0.0, 1.0
        step = lambda u, v: tail_step(_pointwise(f), lo, 1.0, u, v)  # noqa: E731
    elif math.isinf(lo):
        npts, a, b = 15, 0.0, 1.0
        step = lambda u, v: tail_step(_pointwise(f), hi, -1.0, u, v)  # noqa: E731
    else:
        npts, a, b = 21, lo, hi
        step = lambda u, v: finite_step(_pointwise(f), u, v)  # noqa: E731
    result, abserr, last, ier = qag(step, a, b, epsabs, 1e-12, limit)
    out = quad(f, lo, hi, full_output=1, epsabs=epsabs, epsrel=1e-12, limit=limit)
    value, err, info = out[:3]
    assert abs(result - value) <= 4 * np.spacing(abs(value))
    assert abs(abserr - err) <= 4 * np.spacing(err)
    assert npts * (2 * last - 1) == info["neval"]
    assert (ier != 0) == (len(out) == 4)  # quad adds a message when ier != 0
    seen["first step"] += last == 1
    seen["refined"] += last > 1
    seen["ier != 0"] += ier != 0
    return value


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_quadpack_port_matches_scipy_quad():
    # dqagse on 300 finite panels and dqagie on 200 tails, half of them
    # also at the rescaled tolerance of the relative-accuracy retry, and a
    # third at limit 30, where dqpsrt's partial sort (last > limit/2 + 2)
    # and the limit exit come within a few bisections
    rng = np.random.default_rng(13)
    seen = dict.fromkeys(("first step", "refined", "ier != 0"), 0)
    for case in range(500):
        lo = float(rng.uniform(-3.0, 3.0))
        hi = lo + float(10.0 ** rng.uniform(-2.0, 1.0))
        c = float(rng.uniform(lo - 0.2, hi + 0.2))
        k = float(rng.uniform(0.2, 3.0))
        tail = case >= 300
        f = _integrand_families(c, 0.1 * k if tail else k)[case % 6]
        if tail:  # decaying, and oscillating ten times slower
            f = lambda x, g=f: g(x) * math.exp(-0.3 * abs(x))  # noqa: E731
            lo, hi = (lo, math.inf) if case % 2 else (-math.inf, hi)
        value = _assert_port_matches_quad(f, lo, hi, 1e-12, seen)
        if case % 2 and value != 0.0:
            _assert_port_matches_quad(f, lo, hi, 1e-12 * abs(value), seen)
        if case % 3 == 0:
            _assert_port_matches_quad(f, lo, hi, 1e-12, seen, limit=30)
    assert all(seen.values()), seen


def test_kronrod15i_port_matches_quadpack():
    # dqk15i as dqagie runs it first: on tails where quad stops after 15
    # points, the rule on x = bound +- (1 - t)/t gives its value and error
    rng = np.random.default_rng(2025)
    bound = rng.uniform(-4.0, 4.0, 200)
    sign = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    scale = rng.uniform(0.5, 4.0, 200)

    def f(x, s):
        return math.exp(-s * x * x)

    t = 0.5 + 0.5 * DQK15I.nodes
    nodes = bound[:, None] + sign[:, None] * (1.0 - t) / t
    values = np.array([[f(x, s) for x in row] for row, s in zip(nodes.tolist(), scale)])
    result, abserr, _, _ = gauss_kronrod(values / t / t, np.full(200, 0.5), DQK15I)
    first_step = 0
    for i in range(bound.size):
        lo, hi = (bound[i], math.inf) if sign[i] > 0 else (-math.inf, bound[i])
        value, err, info = quad(f, lo, hi, args=(scale[i],), full_output=1,
                                epsabs=1e-12, epsrel=1e-12, limit=400)[:3]
        if info["neval"] == 15:
            first_step += 1
            assert abs(result[i] - value) <= 4 * np.spacing(abs(value))
            assert abserr[i] == pytest.approx(err, rel=1e-12)
    assert 0 < first_step < bound.size


def test_float_rule_matches_numpy_rule_bitwise():
    # the few-row path of gauss_kronrod (a bisection) against the numpy
    # path that batches run, dqk21 through _kronrod21, on the same rows
    rng = np.random.default_rng(31)
    for rows in (9, 40, 128):
        scale = 10.0 ** rng.uniform(-8.0, 8.0, (rows, 1))
        hlgth = 10.0 ** rng.uniform(-9.0, 1.0, rows)
        values = rng.standard_normal((rows, 21)) * scale
        values[::5, ::3] = 0.0  # exact zeros, as on panels at an endpoint
        values[::7] = 1.0  # constant rows: zero error, the resasc paths
        result, abserr, resabs, resasc = _gauss_kronrod_floats(values, hlgth, DQK21)
        expected = _kronrod21(values, hlgth)
        for got, want in zip((result, abserr, resasc), expected):
            np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(resabs, gauss_kronrod(values, hlgth, DQK21)[2])
        values = values[:, :15]
        for got, want in zip(_gauss_kronrod_floats(values, hlgth, DQK15I),
                             gauss_kronrod(values, hlgth, DQK15I)):
            np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("spec", [gaussian_spec(), gamma_spec(1.0), uniform_spec()],
                         ids=["normal", "gamma1", "uniform"])
def test_spec_targets_make_no_scipy_quad_call(spec, tmp_path, monkeypatch):
    # the benchmark's Stein checks, the square wave and the pearson command
    def refuse(*args, **kwargs):
        raise AssertionError("scipy quad called")

    monkeypatch.setattr(pearson, "quad", refuse)
    d = density_from_tau(spec)
    for h, disc in STEIN_FUNCTIONS:
        chk = stein_bound_check(stein_solve(d, h, disc))
        assert chk.pass6 and chk.passK
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "pearson",
                                  "parameters": dict(spec.to_json_obj(), grid=51)}))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("make_density", [
    lambda: density_from_tau(gamma_spec(1.0)),
    lambda: DensityModel.from_pdf(normal_pdf, -math.inf, math.inf),
], ids=["gamma1", "from_pdf"])
def test_u_prime_on_array_matches_scalar(make_density):
    sol = stein_solve(make_density(), math.tanh)
    xs = np.array([[-0.5, 0.1], [0.7, 2.0]])
    du = sol.u_prime(xs)
    assert du.shape == xs.shape
    np.testing.assert_array_equal(du, [[sol.u_prime(x) for x in row] for row in xs.tolist()])


def test_callable_tau_stein_check_emits_no_integration_warning():
    # the exponent integral of a callable tau runs on the QUADPACK port, from
    # the anchors, the divergence probes and every evaluation of the weight;
    # none of it may warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = density_from_tau(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0)
        step = lambda x: 1.0 if x <= 0.25 else 0.0  # noqa: E731
        chk = stein_bound_check(stein_solve(d, step, (0.25,)), 101)
    assert chk.pass6 and chk.passK


@pytest.mark.parametrize("tau, a, b, xs", [
    (lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0,
     np.concatenate([np.linspace(-0.999, 0.999, 201), [0.0, 0.5, -0.75, 1.0 - 1e-12]])),
    (lambda x: 1.0, -math.inf, math.inf,
     np.array([-2e6, -1e6, -3.0, -1.0, 0.0, 0.3, 2.0, 40.0, 1e6, 2e6])),
], ids=["uniform", "normal"])
def test_callable_tau_weight_of_a_batch_is_the_weight_of_each_point(tau, a, b, xs):
    # the exponent integral starts at a fixed anchor for each x, so the
    # weight is a function of x alone, whatever the rest of its call holds
    d = density_from_tau(tau, a, b)
    np.testing.assert_array_equal(d._weight(xs), [d._weight(np.array([x]))[0] for x in xs])


def _libm_exp_density(spec):
    """The spec-target density with its weight's exp from libm, one point at
    a time, instead of numpy's vector exp."""

    def weight(x):
        decay = [math.exp(-v) for v in spec.exponent_integral(x).tolist()]
        return np.array(decay) / spec.quadratic(x)

    return DensityModel(spec.a, spec.b, weight, tau=spec.tau)


@pytest.mark.parametrize("spec", [gaussian_spec(), gamma_spec(1.0), uniform_spec()],
                         ids=["normal", "gamma1", "uniform"])
def test_stein_check_suprema_do_not_depend_on_last_bit_of_exp(spec):
    # the benchmark's 12 checks: u' cancels as tau -> 0 near a finite endpoint,
    # but the grid suprema it feeds stay put when exp moves by a last bit
    numpy_exp, libm_exp = density_from_tau(spec), _libm_exp_density(spec)
    for h, disc in STEIN_FUNCTIONS[:4]:  # cos, tanh, step and bump
        new = stein_bound_check(stein_solve(numpy_exp, h, disc), 1201)
        old = stein_bound_check(stein_solve(libm_exp, h, disc), 1201)
        assert (new.pass6, new.passK) == (old.pass6, old.passK)
        for field in ("sup_xu", "sup_tau_du", "sup_h"):
            assert getattr(new, field) == pytest.approx(getattr(old, field), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("make_density", [
    lambda: density_from_tau(gamma_spec(1.0)),
    lambda: density_from_tau(uniform_spec()),
    lambda: DensityModel.from_pdf(normal_pdf, -math.inf, math.inf),
], ids=["gamma1", "uniform", "from_pdf"])
def test_u_on_array_matches_scalar(make_density):
    # points below and above the origin share one batched integral; the
    # points outside a finite support take the tail form
    d = make_density()
    sol = stein_solve(d, math.tanh)
    xs = np.array([[-0.9, -0.3, 0.0], [0.2, 0.8, 3.0]])
    if math.isfinite(d.b):
        xs[1, 2] = d.b + 0.5
    if math.isfinite(d.a):
        xs[0, 2] = d.a - 0.25
    u = sol.u(xs)
    assert u.shape == xs.shape
    np.testing.assert_array_equal(u, [[sol.u(x) for x in row] for row in xs.tolist()])
    assert isinstance(sol.u(0.5), float)


@pytest.mark.parametrize("make_evaluator", [
    lambda: density_from_tau(gamma_spec(1.0)).pdf,
    lambda: uniform_spec().tau,
    lambda: density_from_tau(lambda x: (1.0 - x * x) / 2.0, -1.0, 1.0).tau,
    lambda: tau_from_density(density_from_tau(gamma_spec(1.0))),
], ids=["pdf", "spec-tau", "callable-tau", "tau-from-density"])
def test_pointwise_evaluators_keep_shape_and_match_scalar_calls(make_evaluator):
    # every support here starts at a = -1: -inf, -1.5 and -1 lie outside it,
    # and 1.5 lies outside the uniform one
    f = make_evaluator()
    xs = np.array([[-math.inf, -1.5, -1.0, -0.3], [0.0, 0.2, 0.8, 1.5]])
    values = f(xs)
    assert values.shape == xs.shape
    np.testing.assert_array_equal(values, [[f(x) for x in row] for row in xs.tolist()])
    assert type(f(0.2)) is float and f(0.2) > 0.0
    assert f(-1.5) == 0.0
    np.testing.assert_array_equal(values[0, :3], 0.0)


def test_u_prime_on_array_makes_one_integral_call(monkeypatch):
    sol = stein_solve(density_from_tau(gamma_spec(1.0)), math.tanh)
    calls = []
    integrate_weight = DensityModel._integrate_weight

    def counting(self, *args, **kwargs):
        calls.append(args)
        return integrate_weight(self, *args, **kwargs)

    monkeypatch.setattr(DensityModel, "_integrate_weight", counting)
    du = sol.u_prime(np.linspace(-0.9, 5.0, 50))
    assert du.shape == (50,)
    assert len(calls) == 1


def test_density_without_tau_carries_tau_from_density():
    d = DensityModel(-1.0, 1.0, lambda x: np.full(x.shape, 0.5))
    xs = np.linspace(-0.99, 0.99, 41)
    np.testing.assert_allclose(d.tau(xs), uniform_spec().tau(xs), rtol=0.0, atol=1e-8)
    chk = stein_bound_check(stein_solve(d, math.tanh), 201)
    assert chk.pass6 and chk.passK


@pytest.mark.parametrize("spec", [gaussian_spec(), gamma_spec(1.0)], ids=["normal", "gamma1"])
def test_u_is_zero_at_infinity_without_calling_h(spec):
    # u -> 0 at +-inf for bounded h; math.cos raises there, so h must not be
    # called at +-inf. -2 lies outside the Gamma(1) support (tail form), NaN
    # stays NaN
    sol = stein_solve(spec, math.cos)
    assert sol.u(math.inf) == 0.0 and sol.u(-math.inf) == 0.0
    assert type(sol.u(math.inf)) is float
    assert math.isnan(sol.u(math.nan))
    xs = np.array([[-math.inf, -2.0, -0.5], [0.5, math.inf, math.nan]])
    u = sol.u(xs)
    assert u.shape == xs.shape
    np.testing.assert_array_equal(u, [[sol.u(x) for x in row] for row in xs.tolist()])
    np.testing.assert_array_equal(u[[0, 1], [0, 1]], 0.0)
    assert np.isfinite(u[0, 1:]).all() and np.isfinite(u[1, 0]) and np.isnan(u[1, 2])
    if math.isfinite(sol.a):
        assert sol.u(-2.0) == (math.cos(-2.0) - sol.expected_h) / -2.0


def test_u_prime_and_on_grid_refuse_nan():
    sol = stein_solve(gamma_spec(1.0), math.tanh)
    for x in (math.nan, np.array([-0.5, math.nan])):
        with pytest.raises(PearsonError):
            sol.u_prime(x)
    for xs in ([-0.5, math.nan], [math.nan, 0.5], [math.nan]):
        with pytest.raises(PearsonError):
            sol.on_grid(np.array(xs))


@pytest.mark.parametrize("spec", [gaussian_spec(), gamma_spec(1.0), uniform_spec()],
                         ids=["normal", "gamma1", "uniform"])
def test_stein_bound_check_calls_h_once_per_grid_point(spec):
    # u and h come from one pass over the grid; h is not called there again
    # to form u'
    calls = []

    def h(x):
        calls.append(x)
        return math.cos(x)

    sol = stein_solve(spec, h)
    lo, hi = sol.density.effective_range()
    grid = np.linspace(lo + 1e-5 * (hi - lo), hi - 1e-5 * (hi - lo), 101).tolist()
    calls.clear()
    stein_bound_check(sol, grid_size=101)
    counts = collections.Counter(calls)
    assert [counts[x] for x in grid] == [1] * len(grid)


@pytest.mark.parametrize("discontinuities", [(0.5, 0.5), (0.0, -0.0)], ids=["twice", "signed-zero"])
def test_stein_bound_check_takes_a_discontinuity_listed_twice(discontinuities):
    # the check's grid holds each distinct point once, as the integrals do
    step = lambda x: 1.0 if x <= 0.5 else 0.0  # noqa: E731
    once = stein_bound_check(stein_solve(gaussian_spec(), step, discontinuities[:1]))
    twice = stein_bound_check(stein_solve(gaussian_spec(), step, discontinuities))
    assert twice == once


def _panel_mix(rng, a, b):
    """Plain panels inside (a, b) and every panel kind the support has, in
    one shuffled list: (los, his)."""
    lo = rng.uniform(-0.9, 0.6, 150)
    panels = list(zip(lo.tolist(), (lo + 10.0 ** rng.uniform(-3.0, -0.5, lo.size)).tolist()))
    near = 10.0 ** rng.uniform(-6.0, -0.5, 20)
    if math.isfinite(a):
        panels += [(a, a + d) for d in near.tolist()]  # x = a + t^2
        panels += [(b - d, b) for d in near.tolist()]  # x = b - t^2
    else:
        panels += [(-math.inf, -d) for d in near.tolist()]
        panels += [(d, math.inf) for d in near.tolist()]
    order = rng.permutation(len(panels))
    los, his = np.array(panels)[order].T
    return los, his


@pytest.mark.parametrize("spec", [uniform_spec(), gaussian_spec()], ids=["uniform", "normal"])
def test_panels_of_a_mix_of_kinds_match_one_panel_per_call(spec):
    # each value depends on its own panel only: batching by kind, 128 at a
    # time, gives the bits of the same panel integrated alone
    d = density_from_tau(spec)
    los, his = _panel_mix(np.random.default_rng(30), d.a, d.b)
    fn = lambda x: math.cos(40.0 * x) + 0.3  # noqa: E731
    before = d.quad_fallbacks
    batched = d._panels(fn, los, his, shift=0.1)
    assert d.quad_fallbacks > before  # some panels go on to bisection
    alone = [d._panels(fn, [lo], [hi], shift=0.1)[0] for lo, hi in zip(los, his)]
    np.testing.assert_array_equal(batched, alone)


def test_substituted_panels_never_call_the_weight_at_the_end():
    # next to a = -1 the nodes of [a, a + 1e-30] all round to x == a, where
    # the Gamma(1) weight is infinite: they add 0, and the weight (called
    # with 1-d arrays) never sees a
    d = density_from_tau(gamma_spec(1.0))
    a, weight, seen = d.a, d._weight, []

    def recording(x):
        seen.append(x.copy())
        return weight(x)

    d._weight = recording
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        values = d._panels(math.cos, [a, a], [a + 1e-30, a + 1e-3])
    assert seen and all(x.ndim == 1 and (x != a).all() for x in seen)
    assert values[0] == 0.0
    substituted = lambda t: 2.0 * t * math.cos(a + t * t) * weight(np.array([a + t * t]))[0]  # noqa: E731
    assert values[1] == pytest.approx(_quad_rel(substituted, 0.0, math.sqrt(1e-3)), rel=1e-12)


# each built when tau > 0 was checked on 257 points of (a, b), an infinite
# end cut at -12 or 12: a linear tau negative below x = -100, a concave tau
# negative beyond |x| = 31.6, and a convex tau with a dip of -1e-6 at x = 5
TAU_NEGATIVE_INSIDE = [(0.0, 0.01, 1.0, -math.inf, math.inf),
                       (-0.001, 0.0, 1.0, -1.0, math.inf),
                       (1.0, -10.0, 24.999999, -1.0, 10.0)]


@pytest.mark.parametrize("coeffs", TAU_NEGATIVE_INSIDE, ids=["linear", "concave", "convex-dip"])
def test_spec_refuses_tau_negative_between_the_old_samples(coeffs, tmp_path, capsys):
    with pytest.raises(SupportError, match="strictly positive inside"):
        PearsonSpec(*coeffs)
    parameters = {key: value if math.isfinite(value) else str(value)
                  for key, value in zip(("alpha", "beta", "gamma", "a", "b"), coeffs)}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"command": "pearson", "parameters": parameters}))
    assert main(["--config", str(config), "--out", str(tmp_path / "out")]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "tau must be strictly positive inside (a, b)" in err and "Traceback" not in err
