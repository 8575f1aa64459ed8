"""The Lie series forms half of every bracket and fills the rest by the mirror.

Every bracket of the package adds the charges ``|mu| - |nu|`` of a term
pair, so with ``half=True`` a kernel forms exactly the charge ``<= 0`` part
of its full output.  On symmetric words (real symbols) the bracket is
symmetric, and ``graded._filled`` rebuilds it from that part as
``X- + mirror(X-) + (X0 + mirror(X0)) / 2``.  Operands here have Gaussian
integer coefficients, ``D_t``/``tau`` powers and Fourier modes.
"""

import collections
import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitbnf import classical, graded, quantum, series, words
from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import birkhoff_classical, birkhoff_semiclassical, lie_conjugate
from orbitbnf.graded import GradedPoly, _filled, max_coeff_difference, symmetrized
from orbitbnf.quantum import birkhoff_quantum, exp_conjugate, h0_word
from orbitbnf.series import (
    FTSeries,
    moyal_bracket,
    moyal_product,
    nonresonance_margin,
    poisson_bracket,
)
from orbitbnf.words import WordPoly, adjoint, commutator_over_ihbar, normal_order_product

LAWS = settings(deadline=None, max_examples=40)
SQRT2M1 = math.sqrt(2.0) - 1.0
SQRT3M1 = math.sqrt(3.0) - 1.0
SQRT5M2 = math.sqrt(5.0) - 2.0


def charge(key):
    return sum(key[0]) - sum(key[1])


def nonpositive_part(poly):
    return poly.filtered(lambda key: charge(key) <= 0)


def defect(x):
    """Largest coefficient gap between x and its mirror (adjoint or conjugate symbol)."""
    return max_coeff_difference(x, x.mirror())


def gap(a, b):
    """Largest coefficient gap over the scale of ``b``."""
    return (a - b).max_abs_coeff() / max(1.0, b.max_abs_coeff())


@st.composite
def terms(draw, dim):
    out = {}
    for _ in range(draw(st.integers(1, 4))):
        key = (
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            draw(st.integers(-2, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 1)),
        )
        out[key] = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return out


@st.composite
def symmetric_word_pairs(draw):
    dim = draw(st.integers(1, 2))
    pair = []
    for _ in range(2):
        w = WordPoly(dim, draw(terms(dim)))
        pair.append(w + adjoint(w))
    return (*pair, draw(st.sampled_from((math.inf, 6, 9))))


@st.composite
def real_symbol_pairs(draw):
    dim = draw(st.integers(1, 2))
    pair = []
    for _ in range(2):
        s = FTSeries(dim, draw(terms(dim)))
        pair.append(s + s.conjugate_symbol())
    return (*pair, draw(st.sampled_from((math.inf, 6, 9))), draw(st.integers(0, 4)))


@LAWS
@given(symmetric_word_pairs())
def test_half_word_product_is_the_nonpositive_charge_part(case):
    a, b, cap = case
    for x, y in ((a, b), (b, a)):
        assert normal_order_product(x, y, cap, half=True) == nonpositive_part(
            normal_order_product(x, y, cap)
        )


@LAWS
@given(symmetric_word_pairs())
def test_filled_half_commutator_is_the_commutator(case):
    a, b, cap = case
    full = commutator_over_ihbar(a, b, cap)
    assert defect(full) == 0.0
    assert gap(_filled(commutator_over_ihbar(a, b, cap, half=True), 1.0), full) <= 1e-14


@LAWS
@given(real_symbol_pairs())
def test_half_series_kernels_are_the_nonpositive_charge_part(case):
    a, b, cap, hbar_order = case
    half = moyal_bracket(a, b, hbar_order, cap, half=True)
    assert gap(half, nonpositive_part(moyal_bracket(a, b, hbar_order, cap))) <= 1e-14
    assert poisson_bracket(a, b, cap, half=True) == nonpositive_part(poisson_bracket(a, b, cap))


@LAWS
@given(real_symbol_pairs())
def test_filled_half_series_brackets_are_the_brackets(case):
    a, b, cap, hbar_order = case
    for full, half in (
        (moyal_bracket(a, b, hbar_order, cap), moyal_bracket(a, b, hbar_order, cap, half=True)),
        (poisson_bracket(a, b, cap), poisson_bracket(a, b, cap, half=True)),
    ):
        assert gap(_filled(half, 1.0), full) <= 1e-14
        assert defect(_filled(half, 1.0)) == 0.0


def test_kernels_called_without_half_keep_the_full_output():
    """Outside the Lie series a product of symmetric operands has both charges."""
    z = FTSeries.monomial(1, (1,), (0,), coeff=1.0)
    x = z + z.conjugate_symbol()
    assert {charge(key) for key in moyal_product(x, x, 2).keys()} == {-2, 0, 2}
    w = WordPoly.creation(1, 0) + WordPoly.annihilation(1, 0)
    assert {charge(key) for key in normal_order_product(w, w).keys()} == {-2, 0, 2}


def _cubic_word(dim, cap, eps, coeffs=(1.0, 0.7, 0.9)):
    x = WordPoly.zero(dim, cap)
    for i in range(dim):
        x = x + (WordPoly.creation(dim, i, cap) + WordPoly.annihilation(dim, i, cap)) * coeffs[i]
    return normal_order_product(normal_order_product(x, x, cap), x, cap) * eps


def _hamiltonian(dim, order, with_cos=False):
    rot = nonresonance_margin((SQRT2M1, SQRT3M1, SQRT5M2)[:dim], order)
    cube = _cubic_word(dim, order, 0.05)
    H = h0_word(rot, 1.0, order) + cube
    if with_cos:
        cos_t = WordPoly(dim, {((0,) * dim, (0,) * dim, m, 0, 0): 0.01 for m in (1, -1)}, order)
        H = H + normal_order_product(cos_t, cube, order)
    return H, rot


@pytest.mark.parametrize("dim", [1, 2])
def test_quantum_remainder_is_exactly_symmetric_on_t_independent_input(dim):
    H, rot = _hamiltonian(dim, 8)
    # an asymmetry far below the 1e-12 guard is averaged away at the boundary
    H = H + WordPoly.word(dim, mu=(3,) + (0,) * (dim - 1), coeff=1e-15, max_grade=8)
    assert 0.0 < defect(H) < 1e-12
    _h, generators, remainder = birkhoff_quantum(H, rot, 6, 8)
    assert remainder
    assert defect(remainder) == 0.0
    assert all(defect(F) == 0.0 for F in generators)


@pytest.mark.parametrize("with_cos", [False, True], ids=["static", "cos_t"])
def test_series_remainders_are_exactly_real(with_cos):
    H, rot = _hamiltonian(1, 8, with_cos)
    symbol = weyl_symbol_of_word(H, 2, 8)
    symbol = symbol + FTSeries.monomial(1, (3,), (0,), coeff=1e-15, max_weight=8)
    assert 0.0 < defect(symbol) < 1e-12
    for nf, generators, remainder in (
        birkhoff_classical(symbol, rot, 6, 8),
        birkhoff_semiclassical(symbol, rot, 6, 2, 8),
    ):
        assert remainder
        assert defect(remainder) == 0.0
        assert all(defect(F) == 0.0 for F in generators)


def test_conjugations_and_sweeps_reject_input_that_is_not_symmetric():
    H, rot = _hamiltonian(1, 8)
    F = WordPoly.word(1, mu=(3,), coeff=0.01, max_grade=8)
    F_sym = F + adjoint(F)
    with pytest.raises(ValueError, match="generator is not symmetric"):
        exp_conjugate(H, F, 8)
    with pytest.raises(ValueError, match="not symmetric"):
        exp_conjugate(H + F, F_sym, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not symmetric"):
        birkhoff_quantum(H + F, rot, 6, 8)

    symbol = weyl_symbol_of_word(H, 0, 8)
    G = FTSeries.monomial(1, (3,), (0,), coeff=0.01, max_weight=8)
    G_real = G + G.conjugate_symbol()
    for hbar_order in (None, 2):
        with pytest.raises(ValueError, match="generator is not a real symbol"):
            lie_conjugate(symbol, G, hbar_order, 8)
        with pytest.raises(ValueError, match="not a real symbol"):
            lie_conjugate(symbol + G, G_real, hbar_order, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not a real symbol"):
        birkhoff_classical(symbol + G, rot, 6, 8)
    with pytest.raises(ValueError, match="Hamiltonian is not a real symbol"):
        birkhoff_semiclassical(symbol + G, rot, 6, 2, 8)
    # an imaginary multiple of a real symbol is rejected, not realified
    with pytest.raises(ValueError, match="not a real symbol"):
        lie_conjugate(symbol, G_real * 1j, None, 8)


# The shapes of the benchmark's nf-routes cases: (dim, order, with cos t coupling).
NF_CASES = ((2, 8, False), (3, 6, False), (1, 8, True))


def _sweep_all_routes(dim, order, with_cos):
    """The quantum, semiclassical (hbar order 2) and classical sweeps of one
    case; the generator count of each."""
    H, rot = _hamiltonian(dim, order, with_cos)
    counts = [len(birkhoff_quantum(H, rot, order, order)[1])]
    symbol = weyl_symbol_of_word(H, 2, order)
    counts.append(len(birkhoff_semiclassical(symbol, rot, order, 2, order)[1]))
    counts.append(len(birkhoff_classical(weyl_symbol_of_word(H, 0, order), rot, order, order)[1]))
    return counts


@pytest.mark.parametrize("dim,order,with_cos", NF_CASES)
def test_every_polynomial_flagged_exactly_symmetric_in_a_sweep_equals_its_mirror(
    monkeypatch, dim, order, with_cos
):
    """symmetrized, _filled and the sums and grade slices of their outputs
    flag a polynomial exactly symmetric, and symmetrized then skips its
    check.  Each flagged polynomial is checked as it is made, on a copy so
    that the sweep's own operands stay packed: its mirror defect is exactly
    0, and a flagged word has no D_t^j e^{imt} key."""
    checked = collections.Counter()

    def check(make):
        def wrapper(*args, **kwargs):
            out = make(*args, **kwargs)
            if isinstance(out, GradedPoly) and out._exact:
                copy = out._wrap(out.dim, out._packed, out._cap)
                assert defect(copy) == 0.0
                assert not any(key[2] and key[3] for key in copy.keys())
                checked[type(out).__name__] += 1
            return out

        return wrapper

    for name in ("symmetrized", "_filled"):
        monkeypatch.setattr(graded, name, check(getattr(graded, name)))
    for name in ("_merged", "truncated"):
        monkeypatch.setattr(GradedPoly, name, check(getattr(GradedPoly, name)))
    _sweep_all_routes(dim, order, with_cos)
    assert checked["FTSeries"] > 0 and checked["WordPoly"] > 0


@pytest.mark.parametrize("dim,order,with_cos", NF_CASES)
def test_sweeps_build_tuple_key_views_only_where_resonant_parts_are_read(
    monkeypatch, dim, order, with_cos
):
    """The quantum and semiclassical sweeps build a polynomial's tuple-key
    view only inside the map of a resonant part to a NormalForm and inside
    the check of the input's quadratic part: the slices, solves, Lie-series
    terms and running totals stay on packed keys."""
    H, rot = _hamiltonian(dim, order, with_cos)
    symbol = weyl_symbol_of_word(H, 2, order)
    reading = [0]
    builds = collections.Counter()

    def allowed(read):
        def wrapper(*args, **kwargs):
            reading[0] += 1
            try:
                return read(*args, **kwargs)
            finally:
                reading[0] -= 1

        return wrapper

    view = GradedPoly._terms

    def counted(self):
        if self._view is None:
            builds["allowed" if reading[0] else "sweep"] += 1
        return view.fget(self)

    monkeypatch.setattr(GradedPoly, "_terms", property(counted))
    monkeypatch.setattr(graded, "check_quadratic_part", allowed(graded.check_quadratic_part))
    monkeypatch.setattr(quantum, "diagonal_to_normal_form", allowed(words.diagonal_to_normal_form))
    monkeypatch.setattr(
        classical.NormalForm,
        "from_resonant_series",
        staticmethod(allowed(classical.NormalForm.from_resonant_series)),
    )
    birkhoff_quantum(H, rot, order, order)
    birkhoff_semiclassical(symbol, rot, order, 2, order)
    assert builds["sweep"] == 0 and builds["allowed"] > 0


def test_symmetrized_returns_a_flagged_polynomial_without_the_check(monkeypatch):
    w = WordPoly(2, {((1, 0), (0, 2), 0, 1, 0): 0.5 + 1j, ((2, 1), (0, 0), 0, 0, 1): -1.5})
    x = w + adjoint(w)
    assert not x._exact
    assert symmetrized(x, "x") is x and x._exact
    assert (x + x)._exact and x.truncated(4)._exact and not x.scaled(2.0)._exact
    assert not (x + adjoint(x))._exact and not (x - WordPoly.zero(2))._exact

    def refuse(self):
        raise AssertionError("the mirror of a flagged polynomial was formed")

    monkeypatch.setattr(WordPoly, "_mirrored", refuse)
    assert symmetrized(x, "x") is x
    assert symmetrized(x.truncated(4), "x")._exact
    monkeypatch.undo()
    # D_t e^{it}: the adjoint spreads it over D_t and hbar, so nothing is flagged
    t = WordPoly(1, {((1,), (0,), 1, 1, 0): 0.25, ((0,), (2,), 0, 0, 0): 1.0})
    y = symmetrized(t + adjoint(t), "y")
    assert not y._exact and not (y + y)._exact
    # a filled bracket with D_t^j e^{imt} keys is not flagged either
    filled = _filled(commutator_over_ihbar(WordPoly.word(1, j=2), y, half=True), 1.0)
    assert any(key[2] and key[3] for key in filled.keys()) and not filled._exact
    mirrors = []
    monkeypatch.setattr(
        WordPoly, "_mirrored", lambda self: mirrors.append(self) or words._adjoint(self)
    )
    symmetrized(y, "y")
    assert mirrors == [y]


def test_sweeps_conjugate_and_commute_through_the_module_namespaces(monkeypatch):
    """One quantum.exp_conjugate or classical.lie_conjugate call per
    generator, looked up in the module at call time, and two
    words.normal_order_product calls per commutator: the benchmark's tracer
    (perfbench/tracing.py) and its smoke check count these spans.  The
    contraction rows stay within their bound: the one row cache builds each
    row once and then reuses it, and each of its three tables gets one row
    per exponent tuple, so no more rows than the contraction tables hold
    entries."""
    calls = collections.Counter()

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    count(quantum, "exp_conjugate")
    count(classical, "lie_conjugate")
    count(quantum, "commutator_over_ihbar")
    count(words, "normal_order_product")
    built = collections.Counter()

    def row(fill, original=graded._Table):
        # a row's fill reads its contraction table; index tables read none
        table = inspect.getclosurevars(fill).nonlocals.get("table")
        if table is not None:
            built[table] += 1
        return original(fill)

    monkeypatch.setattr(graded, "_Table", row)
    for cache in (graded._contractions, graded._row):
        cache.cache_clear()
    for case in NF_CASES:
        calls.clear()
        quantum_gens, semiclassical_gens, classical_gens = _sweep_all_routes(*case)
        assert calls["exp_conjugate"] == quantum_gens > 0
        assert calls["lie_conjugate"] == semiclassical_gens + classical_gens
        assert calls["normal_order_product"] == 2 * calls["commutator_over_ihbar"] > 0
    tables = graded._contractions.cache_info().currsize
    info = graded._row.cache_info()
    assert info.misses == info.currsize == sum(built.values()) and info.hits > info.misses
    assert set(built) == {graded._contractions, graded._contracted, series._contraction_parities}
    assert all(0 < rows <= tables for rows in built.values())
