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

import json
import math
from dataclasses import dataclass, field

from .graded import (
    birkhoff_sweep,
    check_quadratic_part,
    is_resonant_key,  # noqa: F401 -- re-exported
    lie_series,
    solve_homological,
    theta_shift,
)
from .normalform import NormalForm
from .series import FTSeries, RotationData, moyal_bracket, poisson_bracket


def bracket_operation(bracket):
    """Resolve a bracket spec: "poisson" or ("moyal", hbar_order)."""
    if bracket == "poisson":
        return lambda a, b, cap=None: poisson_bracket(a, b, max_weight=cap)
    if (
        isinstance(bracket, (tuple, list))
        and len(bracket) == 2
        and bracket[0] == "moyal"
    ):
        order = int(bracket[1])
        return lambda a, b, cap=None: moyal_bracket(a, b, order, max_weight=cap)
    raise ValueError(f"unknown bracket spec {bracket!r}; use 'poisson' or ('moyal', order)")


def h0_series(rot: RotationData, E=0.0, max_weight=math.inf) -> FTSeries:
    """The normalized quadratic part E + tau + theta.p as a series."""
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


def validate_quadratic_part(H: FTSeries, rot: RotationData, tol=1e-12) -> float:
    """Check that the weight <= 2 slice of H is exactly E + tau + theta.p.

    Returns E.  Raises ValueError describing every offending key otherwise.
    """
    return check_quadratic_part(H, h0_series(rot), tol)


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
    F: FTSeries, G: FTSeries, G1: NormalForm, rot: RotationData, bracket="poisson"
) -> float:
    """max |coefficient| of bracket(H0, F) - G - G1 (the solve contract)."""
    apply = bracket_operation(bracket)
    res = apply(h0_series(rot), F) - G - G1.as_series()
    return res.max_abs_coeff()


def lie_conjugate(H: FTSeries, F: FTSeries, bracket="poisson", max_weight=None) -> FTSeries:
    """sum_k (1/k!) ad_F^k H with ad_F = bracket(F, .), truncated at max_weight.

    Requires min stored weight of F >= 3 so that each application of ad_F
    gains at least one weight unit and the series terminates exactly on the
    truncation.
    """
    return lie_series(H, F, bracket_operation(bracket), max_weight)


@dataclass(frozen=True)
class GeneratorStep:
    """One normal-form sweep: the generating series for its weight grading."""

    grading: int
    F: FTSeries


@dataclass
class GeneratorLog:
    """Ordered record of the conjugations performed by a BNF run."""

    bracket: object = "poisson"
    steps: list = field(default_factory=list)

    def replay(self, H: FTSeries, max_weight=None) -> FTSeries:
        """Re-apply every logged conjugation to H."""
        cur = H
        for step in self.steps:
            cur = lie_conjugate(cur, step.F, self.bracket, max_weight)
        return cur

    def to_json(self) -> str:
        bracket = self.bracket if isinstance(self.bracket, str) else list(self.bracket)
        return json.dumps(
            {
                "bracket": bracket,
                "steps": [
                    {"grading": s.grading, "dim": s.F.dim, "series": s.F.to_records()}
                    for s in self.steps
                ],
            },
            separators=(",", ":"),
        )

    @staticmethod
    def from_json(text) -> "GeneratorLog":
        blob = json.loads(text)
        bracket = blob["bracket"]
        if isinstance(bracket, list):
            bracket = (bracket[0], bracket[1])
        log = GeneratorLog(bracket=bracket)
        for s in blob["steps"]:
            log.steps.append(
                GeneratorStep(s["grading"], FTSeries.from_records(s["dim"], s["series"]))
            )
        return log


def _birkhoff_sweep(H, rot, order, bracket, work_weight, margin_threshold, route):
    """The shared sweep with the classical solver, conjugation and table map."""
    nf, steps, remainder = birkhoff_sweep(
        H,
        rot,
        order,
        work_weight,
        h0_series(rot),
        solve=lambda G: solve_homological_classical(G, rot, margin_threshold),
        conjugate=lambda cur, F, cap: lie_conjugate(cur, F, bracket, cap),
        to_normal_form=lambda resonant: NormalForm.from_resonant_series(
            resonant, route=route, imag_tol=1e-9
        ),
    )
    log = GeneratorLog(bracket, [GeneratorStep(w, F) for w, F in steps])
    return nf, log, remainder


def birkhoff_classical(
    H: FTSeries,
    rot: RotationData,
    order: int,
    work_weight=None,
    margin_threshold=1e-9,
):
    """Classical Birkhoff normal form through the given weight.

    Returns (NormalForm, GeneratorLog, remainder).  Resonant content
    (including any higher tau-powers of the input) passes through to the
    normal form; the remainder carries everything of weight > order kept by
    the working truncation (max(order, work_weight)) plus sub-tolerance
    conjugation residue.
    """
    return _birkhoff_sweep(
        H, rot, order, "poisson", work_weight, margin_threshold, "classical"
    )


def birkhoff_semiclassical(
    H: FTSeries,
    rot: RotationData,
    order: int,
    hbar_order: int,
    work_weight=None,
    margin_threshold=1e-9,
):
    """Semiclassical normal form: same sweep with the Moyal bracket.

    The output table carries explicit hbar powers k <= hbar_order; its
    hbar^0 slice coincides with birkhoff_classical's output.
    """
    if hbar_order < 0:
        raise ValueError("hbar_order must be >= 0")
    nf, log, remainder = _birkhoff_sweep(
        H.hbar_truncated(hbar_order),
        rot,
        order,
        ("moyal", hbar_order),
        work_weight,
        margin_threshold,
        "semiclassical",
    )
    return nf.hbar_truncated(hbar_order), log, remainder
