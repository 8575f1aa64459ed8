"""Normal-form tables: construction, accessors, evaluation, serialization."""

import math

import pytest

from orbitbnf.normalform import NormalForm
from orbitbnf.series import FTSeries
from orbitbnf.words import WordPoly, diagonal_to_normal_form

SQRT2M1 = math.sqrt(2.0) - 1.0


def sample_nf():
    return NormalForm(
        1,
        {
            ((0,), 0, 0): 1.0,
            ((1,), 0, 0): SQRT2M1,
            ((0,), 1, 0): 1.0,
            ((2,), 0, 0): -0.25,
            ((0,), 0, 2): 0.125,
            ((1,), 1, 0): 0.5,
        },
    )


def test_linear_accessors():
    nf = sample_nf()
    assert nf.energy() == 1.0
    assert nf.theta() == (SQRT2M1,)
    assert nf.tau_coefficient() == 1.0


def test_linear_and_nonlinear_split():
    nf = sample_nf()
    linear = nf.linear_entries()
    assert set(linear) == {((0,), 0, 0), ((1,), 0, 0), ((0,), 1, 0)}
    nonlinear = dict(nf.nonlinear_items())
    assert set(nonlinear) == {((2,), 0, 0), ((0,), 0, 2), ((1,), 1, 0)}


def test_evaluate_is_a_polynomial_in_actions():
    nf = sample_nf()
    p, tau, hbar = 0.3, 0.2, 0.1
    expected = (
        1.0
        + SQRT2M1 * p
        + tau
        - 0.25 * p**2
        + 0.125 * hbar**2
        + 0.5 * p * tau
    )
    assert abs(nf.evaluate((p,), tau, hbar) - expected) < 1e-15


def test_coeff_returns_zero_for_absent_entries():
    nf = sample_nf()
    assert nf.coeff((3,), 0, 0) == 0.0


def test_small_imaginary_parts_are_chopped_at_construction():
    nf = NormalForm(1, {((1,), 0, 0): 1.0 + 1e-12j})
    assert nf.coeff((1,), 0, 0) == 1.0


def test_large_imaginary_parts_are_rejected():
    with pytest.raises(ValueError):
        NormalForm(1, {((1,), 0, 0): 1.0 + 1e-3j})


def test_realness_check_holds_imaginary_parts_to_1e_9_on_every_route():
    """The same 1e-9 bound (relative to max(1, |real|)) for a hand-built
    table, a resonant series and a diagonal word."""
    builders = (
        lambda c: NormalForm(1, {((1,), 0, 0): c}),
        lambda c: NormalForm.from_resonant_series(FTSeries.monomial(1, (1,), (1,), coeff=c / 2)),
        lambda c: diagonal_to_normal_form(WordPoly.word(1, k=1, coeff=c)),
    )
    for build in builders:
        with pytest.raises(ValueError, match="not real"):
            build(1 + 2e-9j)
        ((_entry, value),) = build(1 + 5e-10j).items()
        assert value == 1.0 and type(value) is float


def test_csv_roundtrip():
    nf = sample_nf()
    back = NormalForm.from_csv(nf.to_csv())
    assert not _tables_differ(nf, back)


def test_records_roundtrip():
    nf = sample_nf()
    back = NormalForm.from_records(1, nf.to_records())
    assert not _tables_differ(nf, back)


@pytest.mark.parametrize(
    "r,s,k", [([1.5], 0, 0), ([1.0], 0, 0), ([1], 1.5, 0), ([1], 0, 2.0), (["1"], 0, 0)]
)
def test_exponents_that_are_not_integers_raise(r, s, k):
    """A float or string exponent raises instead of being truncated: r = 1.5
    would otherwise merge into the p entry."""
    record = {"r": r, "s": s, "k": k, "c": 0.3}
    with pytest.raises(ValueError, match="must be integers"):
        NormalForm.from_records(1, [{"r": [1], "s": 0, "k": 0, "c": SQRT2M1}, record])
    with pytest.raises(ValueError, match="must be integers"):
        NormalForm(1, {(tuple(r), s, k): 0.3})


def test_numpy_integer_exponents_are_accepted():
    np = pytest.importorskip("numpy")
    rec = {"r": [np.int64(2)], "s": np.int32(1), "k": np.int64(0), "c": 0.5}
    nf = NormalForm.from_records(1, [rec])
    assert list(nf.items()) == [(((2,), 1, 0), 0.5)]
    assert type(next(iter(nf.items()))[0][0][0]) is int
    nf = NormalForm(np.int64(1), {((1,), 0, 0): 0.5})
    assert nf.dim == 1 and type(nf.dim) is int


@pytest.mark.parametrize("dim", [2.7, 1.0, "1", -1])
def test_dim_that_is_not_an_integer_raises(dim):
    """A float dim raises instead of being truncated (2.7 would read as 2)."""
    with pytest.raises(ValueError, match="dim must be"):
        NormalForm(dim, {})


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1.0, math.nan)])
def test_non_finite_coefficients_raise(c):
    """A coefficient that is not finite raises; 1 + nan j is not read as 1.0
    (its realness test is false for nan)."""
    with pytest.raises(ValueError, match="must be finite"):
        NormalForm(1, {((0,), 0, 0): 1.0, ((1,), 0, 0): c})
    if not isinstance(c, complex):
        with pytest.raises(ValueError, match="must be finite"):
            NormalForm.from_records(1, [{"r": [1], "s": 0, "k": 0, "c": c}])


def test_a_coefficient_given_as_a_string_is_refused():
    """The constructor tests the coefficient itself, so "0.3" is not parsed
    into 0.3."""
    with pytest.raises(ValueError, match=r"coefficient of \(\(1,\), 0, 0\) must be a number"):
        NormalForm(1, {((1,), 0, 0): "0.3"})


def test_as_series_maps_actions_to_monomials():
    """p^2 becomes z^2 zbar^2 / 4 and tau becomes the j-grading."""
    nf = NormalForm(1, {((2,), 0, 0): 1.0, ((0,), 1, 0): 2.0})
    s = nf.as_series()
    assert abs(s.coeff(((2,), (2,), 0, 0, 0)) - 0.25) < 1e-15
    assert abs(s.coeff(((0,), (0,), 0, 1, 0)) - 2.0) < 1e-15
    p = 0.37
    direct = nf.evaluate((p,), 0.55, 0.0)
    z = (math.sqrt(2 * p),)
    assert abs(s.evaluate(z, 0.0, 0.55, 0.0) - direct) < 1e-14


def test_from_resonant_series_collapses_action_monomials():
    s = FTSeries.monomial(1, (2,), (2,), coeff=0.25) + FTSeries.monomial(
        1, (0,), (0,), j=1, coeff=3.0
    )
    nf = NormalForm.from_resonant_series(s)
    assert abs(nf.coeff((2,), 0, 0) - 1.0) < 1e-15
    assert abs(nf.coeff((0,), 1, 0) - 3.0) < 1e-15
    off = FTSeries.monomial(1, (1,), (0,), coeff=1e-300)
    with pytest.raises(ValueError, match="not resonant"):
        NormalForm.from_resonant_series(s + off)


def test_from_resonant_series_rejects_a_word():
    """a^+ a is p - hbar/2, not the symbol z zbar = 2p: words go through
    diagonal_to_normal_form."""
    with pytest.raises(TypeError, match="expected FTSeries"):
        NormalForm.from_resonant_series(WordPoly.word(1, mu=(1,), nu=(1,)))


def _tables_differ(a, b, tol=0.0):
    keys = {tuple(r["r"]) + (r["s"], r["k"]) for r in a.to_records()}
    keys |= {tuple(r["r"]) + (r["s"], r["k"]) for r in b.to_records()}
    for key in keys:
        r, s, k = key[:-2], key[-2], key[-1]
        if abs(a.coeff(r, s, k) - b.coeff(r, s, k)) > tol:
            return True
    return False
