"""Sparse Fourier-Taylor series: arithmetic, gradings, brackets, rotation data."""

import math
import random

import pytest

from orbitbnf.classical import h0_series
from orbitbnf.errors import ResonanceError
from orbitbnf.graded import max_coeff_difference
from orbitbnf.series import (
    FTSeries,
    RotationData,
    key_weight,
    moyal_bracket,
    moyal_product,
    nonresonance_margin,
    poisson_bracket,
)
from test_kernels import _ref_pointwise_product

SQRT2M1 = math.sqrt(2.0) - 1.0


def random_series(rng, dim, terms=5, max_exp=2):
    out = FTSeries.zero(dim)
    for _ in range(terms):
        mu = tuple(rng.randint(0, max_exp) for _ in range(dim))
        nu = tuple(rng.randint(0, max_exp) for _ in range(dim))
        m = rng.randint(-2, 2)
        j = rng.randint(0, 1)
        k = rng.randint(0, 1)
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + FTSeries.monomial(dim, mu, nu, m, j, k, c)
    return out


def test_key_weight_counts_hbar_and_tau_twice():
    assert key_weight(((2,), (1,), 3, 0, 0)) == 3
    assert key_weight(((0, 1), (1, 0), -1, 1, 0)) == 4
    assert key_weight(((0,), (0,), 0, 0, 2)) == 4


def test_monomial_roundtrip_and_coeff():
    s = FTSeries.monomial(2, (1, 0), (0, 2), m=-1, j=1, k=0, coeff=2.5 - 1j)
    assert s.coeff(((1, 0), (0, 2), -1, 1, 0)) == 2.5 - 1j
    assert s.coeff(((0, 0), (0, 0), 0, 0, 0)) == 0


def test_addition_and_scaling_are_termwise():
    rng = random.Random(1)
    a = random_series(rng, 2)
    b = random_series(rng, 2)
    s = a + b
    for key in set(a.keys()) | set(b.keys()):
        assert s.coeff(key) == a.coeff(key) + b.coeff(key)
    half = a.scaled(0.5)
    for key in a.keys():
        assert half.coeff(key) == 0.5 * a.coeff(key)
    assert a * 0.5 == 0.5 * a == half
    with pytest.raises(TypeError, match="unsupported operand"):
        a * b  # symbols multiply through moyal_product; * takes only scalars


def test_explicit_max_weight_overrides_operand_caps():
    """An explicit truncation wins over whatever the operands carry."""
    a = FTSeries.monomial(1, (2,), (0,), coeff=1.0, max_weight=4)
    b = FTSeries.monomial(1, (0,), (2,), coeff=1.0, max_weight=4)
    wide = moyal_product(a, b, 0, max_weight=8)
    assert wide.coeff(((2,), (2,), 0, 0, 0)) == 1.0 and wide.max_weight == 8
    narrow = moyal_product(a, b, 0, max_weight=3)
    assert narrow.max_abs_coeff() == 0.0


def test_truncation_drops_heavy_keys():
    rng = random.Random(2)
    a = random_series(rng, 1, terms=8, max_exp=3)
    t = a.truncated(4)
    assert all(key_weight(k) <= 4 for k in t.keys())
    assert all(t.coeff(k) == a.coeff(k) for k in t.keys())


def test_conjugate_symbol_is_an_involution_and_detects_reality():
    rng = random.Random(3)
    a = random_series(rng, 2)
    assert (a.conjugate_symbol().conjugate_symbol() - a).max_abs_coeff() == 0
    real = a + a.conjugate_symbol()
    assert max_coeff_difference(real, real.mirror()) <= 1e-15
    # real int/float coefficients (h0_series stores theta_i / 2 as a float)
    # conjugate to complex numbers with a negative zero imaginary part
    h0 = h0_series(RotationData((SQRT2M1, 0.25), resonance_order=4, margin=0.0))
    assert h0.conjugate_symbol() == h0 and max_coeff_difference(h0, h0.mirror()) == 0.0
    s = FTSeries(1, {((2,), (0,), 1, 0, 0): 3, ((0,), (1,), 0, 1, 0): 0.5})
    for series in (h0, s):
        conj = series.conjugate_symbol()
        assert all(type(c) is complex and math.copysign(1.0, c.imag) < 0 for _, c in conj.items())
    assert [(key, repr(c)) for key, c in s.conjugate_symbol().items()] == [
        (((0,), (2,), -1, 0, 0), "(3-0j)"),
        (((1,), (0,), 0, 1, 0), "(0.5-0j)"),
    ]


def test_evaluate_matches_hand_sum():
    s = FTSeries.monomial(1, (2,), (1,), m=1, j=1, k=1, coeff=1.5)
    z = (0.3 + 0.4j,)
    t, tau, hbar = 0.7, 0.2, 0.1
    expected = 1.5 * z[0] ** 2 * z[0].conjugate() * complex(math.cos(t), math.sin(t)) * tau * hbar
    assert abs(s.evaluate(z, t, tau, hbar) - expected) < 1e-15


def test_poisson_bracket_of_actions_vanishes():
    p1 = FTSeries.monomial(2, (1, 0), (1, 0), coeff=0.5)
    p2 = FTSeries.monomial(2, (0, 1), (0, 1), coeff=0.5)
    assert poisson_bracket(p1, p2).max_abs_coeff() == 0.0


def test_poisson_bracket_action_angle_pair():
    """{p, z} = i z / 2 ... direct check on one mode: {p, z^mu} keys."""
    p = FTSeries.monomial(1, (1,), (1,), coeff=0.5)
    z = FTSeries.monomial(1, (1,), (0,), coeff=1.0)
    out = poisson_bracket(p, z)
    # single key z with some purely imaginary coefficient
    keys = list(out.keys())
    assert keys == [((1,), (0,), 0, 0, 0)]
    c = out.coeff(keys[0])
    assert abs(c.real) < 1e-15 and abs(abs(c.imag) - 1.0) < 1e-15


def test_poisson_bracket_antisymmetry_and_jacobi():
    rng = random.Random(4)
    a = random_series(rng, 1, terms=4)
    b = random_series(rng, 1, terms=4)
    c = random_series(rng, 1, terms=4)
    anti = poisson_bracket(a, b) + poisson_bracket(b, a)
    assert anti.max_abs_coeff() < 1e-13
    jac = (
        poisson_bracket(poisson_bracket(a, b), c)
        + poisson_bracket(poisson_bracket(b, c), a)
        + poisson_bracket(poisson_bracket(c, a), b)
    )
    assert jac.max_abs_coeff() < 1e-12


def test_poisson_leibniz_rule():
    rng = random.Random(5)
    a = random_series(rng, 2, terms=3)
    b = random_series(rng, 2, terms=3)
    c = random_series(rng, 2, terms=3)
    a, b, c = a.hbar_truncated(0), b.hbar_truncated(0), c.hbar_truncated(0)
    lhs = poisson_bracket(a, moyal_product(b, c, 0))
    rhs = moyal_product(poisson_bracket(a, b), c, 0) + moyal_product(b, poisson_bracket(a, c), 0)
    assert (lhs - rhs).max_abs_coeff() < 1e-12


def test_moyal_product_reduces_to_pointwise_at_order_zero():
    """hbar_order caps the total hbar power, so hbar-free inputs at order 0
    multiply pointwise."""
    rng = random.Random(6)
    a = random_series(rng, 1, terms=4).hbar_truncated(0)
    b = random_series(rng, 1, terms=4).hbar_truncated(0)
    assert moyal_product(a, b, 0)._terms == _ref_pointwise_product(a, b, math.inf)


def test_moyal_bracket_leading_term_is_poisson():
    """[a, b]_star / (i hbar) = {a, b} + O(hbar^2)."""
    rng = random.Random(7)
    a = random_series(rng, 1, terms=4)
    b = random_series(rng, 1, terms=4)
    mb = moyal_bracket(a, b, 4)
    pb = poisson_bracket(a, b)
    diff = mb - pb
    for key in diff.keys():
        if abs(diff.coeff(key)) > 1e-13:
            assert key[4] >= 2  # only hbar^2 and higher may differ


def test_moyal_associativity():
    rng = random.Random(8)
    a = random_series(rng, 1, terms=3, max_exp=2)
    b = random_series(rng, 1, terms=3, max_exp=2)
    c = random_series(rng, 1, terms=3, max_exp=2)
    order = 6
    lhs = moyal_product(moyal_product(a, b, order), c, order)
    rhs = moyal_product(a, moyal_product(b, c, order), order)
    assert (lhs - rhs).max_abs_coeff() < 1e-11


def test_moyal_product_respects_real_symbols_under_symmetrization():
    """a real, b real: a*b + b*a has a real symbol, a*b - b*a an imaginary one."""
    rng = random.Random(9)
    a = random_series(rng, 1, terms=3)
    a = a + a.conjugate_symbol()
    b = random_series(rng, 1, terms=3)
    b = b + b.conjugate_symbol()
    sym = moyal_product(a, b, 4) + moyal_product(b, a, 4)
    assert max_coeff_difference(sym, sym.mirror()) < 1e-12


def test_serialization_roundtrip_preserves_terms():
    rng = random.Random(10)
    a = random_series(rng, 2, terms=6)
    c = FTSeries.from_records(2, a.to_records())
    assert (a - c).max_abs_coeff() == 0.0


def test_nonresonance_margin_certifies_golden_ratio_like_angle():
    rot = nonresonance_margin((SQRT2M1,), 8)
    assert rot.dim == 1
    assert rot.margin > 0
    # the worst small divisor to order 8 for sqrt(2)-1 is known to be
    # |2 theta - 1| = |2 sqrt(2) - 3| = 0.1715...
    assert rot.margin <= abs(2 * SQRT2M1 - 1) + 1e-15


def test_nonresonance_margin_rejects_rational_angle():
    with pytest.raises(ResonanceError):
        nonresonance_margin((0.5,), 4)


def test_rotation_data_order_guard():
    rot = nonresonance_margin((SQRT2M1,), 4)
    with pytest.raises(ValueError):
        rot.require_order(6)
