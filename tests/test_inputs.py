"""One input rule for every public numeric parameter, checked by one table.

Integers (dims, caps, hbar orders, orders, cuts, indices) are read by
``graded._read_index`` and real numbers (thresholds, tolerances, hbar,
widths, margins, floors, energies and angles) by ``graded._read_real``.  Each
row names an entry point and a parameter, a call that passes the value to
it, a value that runs and values that must raise ValueError naming the
parameter.  A new public parameter with a numeric default needs a row
(``test_every_numeric_default_has_a_row``).
"""

import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import orbitbnf
from orbitbnf import (
    BasisWindow,
    FTSeries,
    GaussianBump,
    NormalForm,
    RotationData,
    TestFunctionJet,
    WordPoly,
    apply_to_basis,
    birkhoff_classical,
    birkhoff_quantum,
    birkhoff_semiclassical,
    commutator_over_ihbar,
    exp_conjugate,
    forward_trace_expansion,
    g_function,
    h0_series,
    h0_word,
    homological_residual,
    invert_trace_expansion,
    lie_conjugate,
    moyal_bracket,
    moyal_product,
    nonresonance_margin,
    normal_form_to_word,
    normal_order_product,
    numeric_trace,
    poisson_bracket,
    psi_kernel,
    quasi_eigenvalues,
    relate_normal_forms,
    smooth_plateau,
    solve_homological_classical,
    solve_homological_quantum,
    weyl_from_wick,
    weyl_of_functional_calculus,
    weyl_symbol_of_word,
    wick_from_weyl,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
NAN, INF = math.nan, math.inf

# bad values by rule; each set holds a NaN, a value on the wrong side and a string
POSITIVE = (NAN, INF, -INF, 0.0, -3, "1e-9", 1j)
NONNEGATIVE = (NAN, INF, -1e-9, "0")
FINITE = (NAN, INF, -INF, "0.5")
INDEX = (NAN, -3, 6.5, "6", INF)  # an integer >= 0
CAP = (NAN, -1, 1.5, "4", 4.0)  # an integer >= 0 or math.inf


class Row(NamedTuple):
    entry: str
    param: str
    call: Callable
    good: object
    bad: tuple
    name: str = ""  # the name the message gives, when not the parameter's

    @property
    def id(self):
        return f"{self.entry}.{self.param}"


ROT = nonresonance_margin((SQRT2M1,), 8)
S = FTSeries(1, {((2,), (1,), 0, 0, 0): 1.0, ((1,), (2,), 0, 0, 0): 1.0}, 6)
W = WordPoly(1, {((2,), (1,), 0, 0, 0): 1.0, ((1,), (2,), 0, 0, 0): 1.0}, 6)
H_SERIES = h0_series(ROT, 0.7, 6) + S * 0.01
H_WORD = h0_word(ROT, 0.7, 6) + W * 0.01
G_SERIES = FTSeries(1, {((3,), (0,), 0, 0, 0): 1.0, ((0,), (3,), 0, 0, 0): 1.0}, 6)
G_WORD = WordPoly(1, {((3,), (0,), 0, 0, 0): 1.0, ((0,), (3,), 0, 0, 0): 1.0}, 6)
F_SERIES, G1_SERIES = solve_homological_classical(G_SERIES, ROT)
NF = NormalForm(1, {((0,), 0, 0): 0.7, ((1,), 0, 0): SQRT2M1, ((0,), 1, 0): 1.0,
                    ((2,), 0, 0): -0.21})
P2 = NormalForm(1, {((2,), 0, 0): 1.0})
BUMP = GaussianBump(1, 0.7)
JET = BUMP.jet(8)
TRACE = forward_trace_expansion(NF, [GaussianBump(l, 0.7).jet(8) for l in (1, 2, 3)], 2)
LADDER = h0_word(ROT, 0.7, 6)
WINDOW = (0.7, 0.7 + 0.1 * SQRT2M1 * 3.0)


def _rows():
    rows = [
        # the sweeps: orders, working caps and the small-divisor guard
        Row("birkhoff_quantum", "order", lambda v: birkhoff_quantum(H_WORD, ROT, v), 4,
            (*INDEX, 1)),
        Row("birkhoff_quantum", "work_grade", lambda v: birkhoff_quantum(H_WORD, ROT, 4, v), 6,
            INDEX),
        Row("birkhoff_quantum", "margin_threshold",
            lambda v: birkhoff_quantum(H_WORD, ROT, 4, 6, v), 1e-9, POSITIVE),
        Row("birkhoff_classical", "order", lambda v: birkhoff_classical(H_SERIES, ROT, v), 4,
            (*INDEX, 1)),
        Row("birkhoff_classical", "work_weight",
            lambda v: birkhoff_classical(H_SERIES, ROT, 4, v), 6, INDEX),
        Row("birkhoff_classical", "margin_threshold",
            lambda v: birkhoff_classical(H_SERIES, ROT, 4, 6, v), 1e-9, POSITIVE),
        Row("birkhoff_semiclassical", "order",
            lambda v: birkhoff_semiclassical(H_SERIES, ROT, v, 2), 4, (*INDEX, 1)),
        Row("birkhoff_semiclassical", "hbar_order",
            lambda v: birkhoff_semiclassical(H_SERIES, ROT, 4, v), 2, INDEX),
        Row("birkhoff_semiclassical", "work_weight",
            lambda v: birkhoff_semiclassical(H_SERIES, ROT, 4, 2, v), 6, INDEX),
        Row("birkhoff_semiclassical", "margin_threshold",
            lambda v: birkhoff_semiclassical(H_SERIES, ROT, 4, 2, 6, v), 1e-9, POSITIVE),
        Row("solve_homological_quantum", "margin_threshold",
            lambda v: solve_homological_quantum(G_WORD, ROT, v), 1e-9, POSITIVE),
        Row("solve_homological_classical", "margin_threshold",
            lambda v: solve_homological_classical(G_SERIES, ROT, v), 1e-9, POSITIVE),
        # rotation data and its certificate
        Row("nonresonance_margin", "theta", lambda v: nonresonance_margin((SQRT2M1, v), 4),
            0.41, FINITE),
        Row("nonresonance_margin", "order", lambda v: nonresonance_margin((SQRT2M1,), v), 4,
            (*INDEX, 0)),
        Row("nonresonance_margin", "threshold",
            lambda v: nonresonance_margin((SQRT2M1,), 4, v), 1e-9, POSITIVE),
        Row("RotationData", "theta", lambda v: RotationData((v,), 8, 0.0), 0.41, FINITE),
        Row("RotationData", "resonance_order", lambda v: RotationData((SQRT2M1,), v, 0.0), 8,
            INDEX),
        Row("RotationData", "margin", lambda v: RotationData((SQRT2M1,), 8, v), 0.0,
            NONNEGATIVE),
        # quadratic parts
        Row("h0_series", "E", lambda v: h0_series(ROT, v), 0.7, FINITE),
        Row("h0_series", "max_weight", lambda v: h0_series(ROT, 0.7, v), 6, CAP),
        Row("h0_word", "E", lambda v: h0_word(ROT, v), 0.7, FINITE),
        Row("h0_word", "max_grade", lambda v: h0_word(ROT, 0.7, v), 6, CAP),
        # test functions and trace coefficients
        Row("GaussianBump", "l", lambda v: GaussianBump(v, 0.7), 2, (*INDEX, 0, 2.0),
            "period index l"),
        Row("GaussianBump", "width", lambda v: GaussianBump(1, v), 0.7, POSITIVE),
        Row("GaussianBump.jet", "depth", lambda v: BUMP.jet(v), 4, INDEX),
        Row("GaussianBump.quadrature_window", "points_per_width",
            lambda v: BUMP.quadrature_window(v), 1, (*INDEX, 0, 0.01)),
        Row("TestFunctionJet", "l", lambda v: TestFunctionJet(v, (1.0,)), 2,
            (*INDEX, 0, 2.0), "period index l"),
        Row("psi_kernel", "K", lambda v: psi_kernel(v, (1,), 1, JET, ROT), 1, INDEX),
        Row("psi_kernel", "R", lambda v: psi_kernel(1, (v,), 1, JET, ROT), 1, INDEX),
        Row("psi_kernel", "S", lambda v: psi_kernel(1, (1,), v, JET, ROT), 1, INDEX),
        Row("psi_kernel", "threshold", lambda v: psi_kernel(1, (1,), 1, JET, ROT, v), 1e-9,
            POSITIVE),
        Row("g_function", "r", lambda v: g_function((v,), 1, JET, ROT), 1, INDEX),
        Row("g_function", "s", lambda v: g_function((1,), v, JET, ROT), 1, INDEX),
        Row("g_function", "threshold", lambda v: g_function((1,), 1, JET, ROT, v), 1e-9,
            POSITIVE),
        Row("forward_trace_expansion", "M", lambda v: forward_trace_expansion(NF, [JET], v), 2,
            (*INDEX, 0)),
        Row("forward_trace_expansion", "threshold",
            lambda v: forward_trace_expansion(NF, [JET], 2, v), 1e-9, POSITIVE),
        Row("invert_trace_expansion", "M", lambda v: invert_trace_expansion(TRACE, ROT, v), 2,
            (*INDEX, 0)),
        Row("invert_trace_expansion", "k_max",
            lambda v: invert_trace_expansion(TRACE, ROT, 2, k_max=v), 0, INDEX),
        Row("invert_trace_expansion", "cond_threshold",
            lambda v: invert_trace_expansion(TRACE, ROT, 2, cond_threshold=v), 1e10, POSITIVE),
        Row("invert_trace_expansion", "residual_tol",
            lambda v: invert_trace_expansion(TRACE, ROT, 2, residual_tol=v), 1e-6, POSITIVE),
        Row("invert_trace_expansion", "threshold",
            lambda v: invert_trace_expansion(TRACE, ROT, 2, threshold=v), 1e-9, POSITIVE),
        # the oracle
        Row("BasisWindow", "hermite_cut", lambda v: BasisWindow(v, 0, 0.1), 3, INDEX),
        Row("BasisWindow", "fourier_cut", lambda v: BasisWindow(3, v, 0.1), 1, INDEX),
        Row("BasisWindow", "hbar", lambda v: BasisWindow(3, 0, v), 0.1, POSITIVE),
        Row("apply_to_basis", "hbar", lambda v: apply_to_basis(W, ((1,), 0), v), 0.25,
            POSITIVE),
        Row("quasi_eigenvalues", "window",
            lambda v: quasi_eigenvalues(LADDER, BasisWindow(8, 0, 0.1), (v, WINDOW[1])),
            WINDOW[0], FINITE),
        Row("quasi_eigenvalues", "drift_tol",
            lambda v: quasi_eigenvalues(LADDER, BasisWindow(8, 0, 0.1), WINDOW, v), 1e-10,
            POSITIVE),
        Row("numeric_trace", "E", lambda v: numeric_trace([0.7], v, 0.1, BUMP), 0.7, FINITE),
        Row("numeric_trace", "hbar", lambda v: numeric_trace([0.7], 0.7, v, BUMP), 0.1,
            POSITIVE),
        Row("numeric_trace", "floor",
            lambda v: numeric_trace([0.7], 0.7, 0.1, BUMP, floor=v), 1.0, NONNEGATIVE),
        Row("numeric_trace", "points_per_width",
            lambda v: numeric_trace([0.7], 0.7, 0.1, BUMP, points_per_width=v), 1,
            (*INDEX, 0, 0.01, 64.0)),
        Row("smooth_plateau", "p", lambda v: smooth_plateau(v, 0.3, 0.8), 0.5, FINITE),
        Row("smooth_plateau", "p1", lambda v: smooth_plateau(0.5, v, 0.8), 0.3, FINITE),
        Row("smooth_plateau", "p2", lambda v: smooth_plateau(0.5, 0.3, v), 0.8, FINITE),
        # dims
        Row("FTSeries", "dim", lambda v: FTSeries(v, {}), 1, (*INDEX, 2.0)),
        Row("WordPoly", "dim", lambda v: WordPoly(v, {}), 1, (*INDEX, 2.0)),
        Row("NormalForm", "dim", lambda v: NormalForm(v, {}), 1, (*INDEX, 2.0)),
        # coefficients of records
        Row("NormalForm.from_records", "c",
            lambda v: NormalForm.from_records(1, [{"r": [1], "s": 0, "k": 0, "c": v}]), 0.3,
            FINITE, "coefficient 'c'"),
        Row("WordPoly.from_records", "re",
            lambda v: WordPoly.from_records(1, [{"mu": [1], "nu": [0], "re": v}]), 0.3, FINITE,
            "coefficient 're'"),
        Row("FTSeries.from_records", "im",
            lambda v: FTSeries.from_records(1, [{"mu": [1], "nu": [0], "re": 0.3, "im": v}]),
            0.3, FINITE, "coefficient 'im'"),
    ]
    # caps: constructors, slices, kernels and Lie series
    for entry, param, call in (
        ("FTSeries", "max_weight", lambda v: FTSeries(1, S._terms, v)),
        ("WordPoly", "max_grade", lambda v: WordPoly(1, W._terms, v)),
        ("FTSeries.truncated", "cap", lambda v: S.truncated(v)),
        ("WordPoly.truncated", "cap", lambda v: W.truncated(v)),
        ("NormalForm.as_series", "max_weight", lambda v: NF.as_series(v)),
        ("poisson_bracket", "max_weight", lambda v: poisson_bracket(S, S, v)),
        ("moyal_product", "max_weight", lambda v: moyal_product(S, S, 2, v)),
        ("moyal_bracket", "max_weight", lambda v: moyal_bracket(S, S, 2, v)),
        ("normal_order_product", "max_grade", lambda v: normal_order_product(W, W, v)),
        ("commutator_over_ihbar", "max_grade", lambda v: commutator_over_ihbar(W, W, v)),
        ("lie_conjugate", "max_weight", lambda v: lie_conjugate(S, S, None, v)),
        ("exp_conjugate", "max_grade", lambda v: exp_conjugate(W, W, v)),
        ("normal_form_to_word", "max_grade", lambda v: normal_form_to_word(NF, v)),
        ("weyl_symbol_of_word", "max_weight", lambda v: weyl_symbol_of_word(W, 2, v)),
    ):
        rows.append(Row(entry, param, call, 6, CAP))
    # hbar orders: every entry point that truncates in hbar
    for entry, call in (
        ("moyal_product", lambda v: moyal_product(S, S, v)),
        ("moyal_bracket", lambda v: moyal_bracket(S, S, v)),
        ("lie_conjugate", lambda v: lie_conjugate(H_SERIES, F_SERIES, v)),
        ("homological_residual",
         lambda v: homological_residual(F_SERIES, G_SERIES, G1_SERIES, ROT, v)),
        ("weyl_of_functional_calculus", lambda v: weyl_of_functional_calculus(P2, v)),
        ("relate_normal_forms", lambda v: relate_normal_forms(P2, v)),
        ("weyl_symbol_of_word", lambda v: weyl_symbol_of_word(W, v)),
        ("wick_from_weyl", lambda v: wick_from_weyl(S, v)),
        ("weyl_from_wick", lambda v: weyl_from_wick(P2, v)),
    ):
        rows.append(Row(entry, "hbar_order", call, 2, INDEX))
    rows.append(Row("FTSeries.hbar_truncated", "kmax", lambda v: S.hbar_truncated(v), 2, INDEX))
    rows.append(Row("NormalForm.hbar_truncated", "kmax", lambda v: NF.hbar_truncated(v), 2,
                    INDEX))
    return rows


ROWS = _rows()


@pytest.mark.parametrize("row", ROWS, ids=[row.id for row in ROWS])
def test_bad_values_raise_value_error_naming_the_parameter(row):
    """Each bad value raises ValueError whose message names the parameter;
    the row's good value runs, so the call itself is sound."""
    row.call(row.good)
    pattern = rf"(^|\W){re.escape(row.name or row.param)} must be"
    for value in row.bad:
        with pytest.raises(ValueError, match=pattern):
            row.call(value)


def _numeric_defaults():
    """(entry, parameter) of every parameter with an int or float default of a
    callable in ``orbitbnf.__all__`` (a class by its constructor)."""
    out = set()
    for name in orbitbnf.__all__:
        obj = getattr(orbitbnf, name)
        if not callable(obj) or (inspect.isclass(obj) and issubclass(obj, BaseException)):
            continue
        for param in inspect.signature(obj).parameters.values():
            if type(param.default) in (int, float):
                out.add((name, param.name))
    return out


def test_every_numeric_default_has_a_row():
    """A new numeric knob cannot skip the rule: it needs a row above."""
    have = {(row.entry, row.param) for row in ROWS}
    assert _numeric_defaults() - have == set()
    assert ("birkhoff_quantum", "margin_threshold") in _numeric_defaults()


def test_read_values_are_stored_as_plain_numbers():
    """numpy ints are stored as int, infinite caps as math.inf and reals as float."""
    for got in (FTSeries(np.int64(1), {}).dim, WordPoly(np.int64(1), {}).dim,
                BasisWindow(np.int64(3), 0, 0.1).hermite_cut, GaussianBump(np.int64(2)).l,
                TestFunctionJet(np.int64(2), (1.0,)).l, FTSeries(1, {}, np.int64(4))._cap,
                W.truncated(np.int64(4))._cap,
                RotationData((SQRT2M1,), np.int64(8), 0.0).resonance_order):
        assert type(got) is int
    for cap in (np.inf, float("inf")):
        for got in (FTSeries(1, {}, cap)._cap, W.truncated(cap)._cap):
            assert got == math.inf and type(got) is float
    for got in (BasisWindow(3, 0, np.float64(0.1)).hbar, GaussianBump(1, np.float32(0.5)).width,
                RotationData((np.float64(SQRT2M1),), 8, 0).theta[0],
                RotationData((SQRT2M1,), 8, 0).margin, BasisWindow(3, 0, 1).hbar):
        assert type(got) is float
    assert BasisWindow(3, 0, 1).hbar == 1.0
