"""Classical and semiclassical Birkhoff normal forms via Lie series.

The homological equation {H0, F} = G + G1 with H0 = E + tau + theta.p is
solved monomial-wise: ad_{H0} = {H0, .} scales z^mu zbar^nu e^{imt} tau^j
hbar^k by the closed form i(theta.(mu - nu) - m) (:func:`ad_eigenvalue`).
H0 is quadratic, so the Moyal bracket acts on monomials exactly like the
Poisson bracket; a test applies both brackets to a representative monomial
of every Fourier-shift class and checks that the image is that multiple of
the monomial.  The graded solves and Lie conjugations are driven by
:func:`~orbitbnf.graded.birkhoff_sweep`; with the Moyal bracket at a given
hbar order the same sweep produces the semiclassical normal form, whose
hbar^0 slice is the classical one.
"""

from __future__ import annotations

import math

from .graded import (
    _read_index,
    _read_real,
    birkhoff_sweep,
    lie_series,
    solve_homological,
    theta_shift,
)
from .normalform import NormalForm
from .series import FTSeries, RotationData, moyal_bracket, poisson_bracket


def _bracket(hbar_order):
    """The Poisson bracket (hbar_order None) or the Moyal bracket through hbar^hbar_order."""
    if hbar_order is None:
        return lambda a, b, cap=None, half=False: poisson_bracket(a, b, cap, half)
    return lambda a, b, cap=None, half=False: moyal_bracket(a, b, hbar_order, cap, half)


def h0_series(rot: RotationData, E=0.0, max_weight=math.inf) -> FTSeries:
    """The normalized quadratic part E + tau + theta.p as a series.

    ValueError unless E is a finite real number (:func:`~orbitbnf.graded._read_real`).
    """
    E = _read_real(E, "E")
    n = rot.dim
    zero = (0,) * n
    terms = {(zero, zero, 0, 1, 0): 1.0 + 0j}
    if E:
        terms[(zero, zero, 0, 0, 0)] = complex(E)
    for i, th in enumerate(rot.theta):
        e = tuple(1 if a == i else 0 for a in range(n))
        terms[(e, e, 0, 0, 0)] = th / 2.0  # p_i = z_i zbar_i / 2
    return FTSeries(n, terms, max_weight)


def ad_eigenvalue(theta, key) -> complex:
    """Eigenvalue i(theta.(mu - nu) - m) of {H0, .} on the monomial of ``key``."""
    return 1j * (theta_shift(theta, key) - key[2])


def solve_homological_classical(G: FTSeries, rot: RotationData, margin_threshold=1e-9):
    """Solve {H0, F} = G + G1 with G1 = -(resonant part of G).

    Returns (F, G1) with F supported on the non-resonant keys of G (each
    coefficient divided by its ad-eigenvalue) and G1 a NormalForm.
    H0 is quadratic, so the Moyal bracket acts on monomials exactly like the
    Poisson bracket: the same F solves the semiclassical equation at every
    hbar order.

    Raises
    ------
    ResonanceError
        If |eigenvalue| < margin_threshold at a non-resonant key, reporting
        the offending Fourier shift (mu - nu, m).
    """
    return solve_homological(
        G, rot, ad_eigenvalue, NormalForm.from_resonant_series, margin_threshold
    )


def homological_residual(
    F: FTSeries, G: FTSeries, G1: NormalForm, rot: RotationData, hbar_order=None
) -> float:
    """max |coefficient| of {H0, F} - G - G1 (the solve contract).

    The bracket is Poisson when ``hbar_order`` is None and Moyal through
    hbar^hbar_order otherwise.
    """
    res = _bracket(hbar_order)(h0_series(rot), F) - G - G1.as_series()
    return res.max_abs_coeff()


def lie_conjugate(H: FTSeries, F: FTSeries, hbar_order=None, max_weight=None) -> FTSeries:
    """sum_k (1/k!) ad_F^k H with ad_F = {F, .}, truncated at max_weight.

    The bracket is Poisson when ``hbar_order`` is None and Moyal through
    hbar^hbar_order otherwise.  Requires min stored weight of F >= 3 so that
    each application of ad_F gains at least one weight unit and the series
    terminates exactly on the truncation.  H and F must be real symbols
    (ValueError otherwise): each bracket is formed by halves and completed
    by the conjugate symbol (:func:`~orbitbnf.graded.lie_series`).
    """
    return lie_series(H, F, _bracket(hbar_order), max_weight)


def _birkhoff_sweep(H, rot, order, hbar_order, work_weight, margin_threshold, route):
    """The shared sweep with the classical solver, conjugation and table map."""
    return birkhoff_sweep(
        H,
        rot,
        order,
        work_weight,
        margin_threshold,
        h0_series(rot),
        solve=lambda G, margin: solve_homological_classical(G, rot, margin),
        conjugate=lambda cur, F, cap: lie_conjugate(cur, F, hbar_order, cap),
        to_normal_form=lambda resonant: NormalForm.from_resonant_series(resonant, route=route),
    )


def birkhoff_classical(
    H: FTSeries,
    rot: RotationData,
    order: int,
    work_weight=None,
    margin_threshold=1e-9,
):
    """Classical Birkhoff normal form through the given weight.

    Returns (NormalForm, generators, remainder).  The generators are the
    series F in sweep order; F.min_grade() is the weight it normalized, and
    ``lie_conjugate(., F, None, cap)`` over the list replays the sweep.
    Resonant content (including any higher tau-powers of the input) passes
    through to the normal form; the remainder carries everything of weight >
    order kept by the working truncation (max(order, work_weight)) plus
    sub-tolerance conjugation residue.
    """
    return _birkhoff_sweep(H, rot, order, None, work_weight, margin_threshold, "classical")


def birkhoff_semiclassical(
    H: FTSeries,
    rot: RotationData,
    order: int,
    hbar_order: int,
    work_weight=None,
    margin_threshold=1e-9,
):
    """Semiclassical normal form: same sweep with the Moyal bracket.

    Returns (NormalForm, generators, remainder) as :func:`birkhoff_classical`
    does; the sweep conjugates H.hbar_truncated(hbar_order) with
    ``lie_conjugate(., F, hbar_order, cap)``.  The output table carries
    explicit hbar powers k <= hbar_order; its hbar^0 slice coincides with
    birkhoff_classical's output.
    """
    hbar_order = _read_index(hbar_order, "hbar_order")
    nf, generators, remainder = _birkhoff_sweep(
        H.hbar_truncated(hbar_order),
        rot,
        order,
        hbar_order,
        work_weight,
        margin_threshold,
        "semiclassical",
    )
    return nf.hbar_truncated(hbar_order), generators, remainder
