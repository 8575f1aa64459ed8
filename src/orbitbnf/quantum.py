"""Quantum Birkhoff normal form in the normal-ordered word algebra.

A symmetric word Hamiltonian whose grade <= 2 slice equals

    H0 = E + sum_i theta_i (a_i^+ a_i) + (sum_i theta_i / 2) hbar + D_t

is conjugated by exp(i F / hbar) grade by grade until every off-diagonal
word of grade <= L is removed.  The surviving diagonal words are converted
exactly to a polynomial h(p, tau, hbar) via (a^+)^kappa a^kappa =
prod_i prod_{l < kappa_i} (p_i - (l + 1/2) hbar).  Homological denominators
are the closed form -i(theta.(mu - nu) + m) of [H0, .]/(i hbar) on the word
e^{imt} (a^+)^mu a^nu D_t^j (:func:`ad_eigenvalue`; the word mu counts a^+,
whose symbol is zbar); a test applies the commutator to a representative
word of every Fourier-shift class and checks that the image is that
multiple of the word.  The sweep itself is
:func:`~orbitbnf.graded.birkhoff_sweep`, shared with the series routes.
"""

from __future__ import annotations

import math

from .graded import _read_real, birkhoff_sweep, lie_series, solve_homological, theta_shift
from .normalform import NormalForm
from .series import RotationData
from .words import (
    WordPoly,
    commutator_over_ihbar,
    diagonal_to_normal_form,
    normal_form_to_word,
)


def h0_word(rot: RotationData, E=0.0, max_grade=math.inf) -> WordPoly:
    """E + sum theta_i a_i^+ a_i + (sum theta_i / 2) hbar + D_t as a word.

    ValueError unless E is a finite real number (:func:`~orbitbnf.graded._read_real`).
    """
    E = _read_real(E, "E")
    n = rot.dim
    zero = (0,) * n
    terms = {
        (zero, zero, 0, 1, 0): 1.0 + 0j,
        (zero, zero, 0, 0, 1): sum(rot.theta) / 2.0 + 0j,
    }
    if E:
        terms[(zero, zero, 0, 0, 0)] = complex(E)
    for i, th in enumerate(rot.theta):
        e = tuple(1 if a == i else 0 for a in range(n))
        terms[(e, e, 0, 0, 0)] = complex(th)
    return WordPoly(n, terms, max_grade)


def ad_eigenvalue(theta, key) -> complex:
    """Eigenvalue -i(theta.(mu - nu) + m) of [H0, .]/(i hbar) on the word of ``key``."""
    return -1j * (theta_shift(theta, key) + key[2])


def solve_homological_quantum(G: WordPoly, rot: RotationData, margin_threshold=1e-9):
    """Solve [H0, F]/(i hbar) = G + G1 with G1 = -(diagonal part of G).

    Returns (F, G1) where F carries the off-diagonal words of G divided by
    their eigenvalues and G1 is the NormalForm of minus the diagonal part.
    Symmetric G yields symmetric F.

    Raises
    ------
    ResonanceError
        If an off-diagonal eigenvalue falls below margin_threshold.
    """
    return solve_homological(G, rot, ad_eigenvalue, diagonal_to_normal_form, margin_threshold)


def quantum_homological_residual(
    F: WordPoly, G: WordPoly, G1: NormalForm, rot: RotationData
) -> float:
    """max |coefficient| of [H0, F]/(i hbar) - G - G1 (the solve contract)."""
    lhs = commutator_over_ihbar(h0_word(rot), F, max_grade=G.max_grade)
    return (lhs - G - normal_form_to_word(G1, G.max_grade)).max_abs_coeff()


def exp_conjugate(H: WordPoly, F: WordPoly, max_grade=None) -> WordPoly:
    """Conjugation sum_k (1/k!) ([F, .]/(i hbar))^k H, truncated at max_grade.

    This is the word expansion of e^{-iF/hbar} H e^{iF/hbar}.  Requires the
    weighted grade of F (hbar counting 2) to be >= 3 so each commutator
    gains at least one grade unit and the series terminates.  H and F must
    be adjoint-symmetric (ValueError otherwise): each commutator is formed
    by halves and completed by the adjoint (:func:`~orbitbnf.graded.lie_series`).
    """
    return lie_series(H, F, commutator_over_ihbar, max_grade)


def birkhoff_quantum(
    H: WordPoly,
    rot: RotationData,
    order: int,
    work_grade=None,
    margin_threshold=1e-9,
):
    """Quantum Birkhoff normal form through the given grade.

    Returns (h, generators, remainder) with h the NormalForm polynomial of
    the surviving diagonal words of grade <= order, generators the list of
    word generators in sweep order (grades 3, 4, ...), and remainder the
    fully conjugated Hamiltonian minus those diagonal words -- supported on
    grades > order up to the working truncation, plus sub-tolerance
    conjugation noise.

    Raises ValueError unless H is symmetric and its grade <= 2 slice is
    exactly H0 (the hbar constant must be the half-quantum sum(theta)/2).
    The sweep starts from (H + H^+)/2, so on a t-independent H the
    remainder's adjoint defect is exactly 0.
    """
    return birkhoff_sweep(
        H,
        rot,
        order,
        work_grade,
        margin_threshold,
        h0_word(rot),
        solve=lambda G, margin: solve_homological_quantum(G, rot, margin),
        conjugate=exp_conjugate,
        to_normal_form=lambda diag: diagonal_to_normal_form(diag, route="quantum"),
    )
