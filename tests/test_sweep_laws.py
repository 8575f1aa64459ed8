"""Exact laws of the shared Birkhoff sweep, on all three routes.

Every route forms each term in its true grade, lets constants drop out of
its brackets and sums only within one grade, so two changes of the
Hamiltonian ``H = h0 + W`` act on its normal-form tables bit for bit:

- coupling doubling: with ``W`` (grade 3 and up) scaled by 2, every entry
  of grade ``g = 2(|r| + s + k)`` but the energy is multiplied by exactly
  ``2^(g - 2)``, with the same support, since a power of two scales exactly
  in binary floating point;
- energy shift: with ``E`` moved from 1.0 to 1.75, the constant entry moves
  by exactly 0.75 and every other entry is bit-identical.

The generators and the remainder obey the same laws term by term, in the
same order: each term of grade g is multiplied by exactly ``2^(g - 2)``
under the doubling, and none moves under the shift.

The cases have the shapes of the benchmark's nf-routes Hamiltonians.
"""

import math

import pytest

from orbitbnf.bridge import weyl_symbol_of_word
from orbitbnf.classical import birkhoff_classical, birkhoff_semiclassical
from orbitbnf.graded import key_grade
from orbitbnf.normalform import entry_weight
from orbitbnf.quantum import birkhoff_quantum, h0_word
from orbitbnf.series import nonresonance_margin
from orbitbnf.words import WordPoly, normal_order_product

THETAS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)
HBAR_ORDER = 2


def _perturbation(dim, order, with_cos):
    """``W = 0.05 (sum_i c_i (a_i + a_i^+))^3``, plus ``0.02 cos(t) W`` with ``with_cos``."""
    x = WordPoly.zero(dim, order)
    for i, c in zip(range(dim), (1.0, 0.7, 0.9)):
        x = x + (WordPoly.creation(dim, i, order) + WordPoly.annihilation(dim, i, order)).scaled(c)
    cube = normal_order_product(normal_order_product(x, x, order), x, order).scaled(0.05)
    if not with_cos:
        return cube
    zero = (0,) * dim
    cos_t = WordPoly(dim, {(zero, zero, m, 0, 0): 0.01 for m in (1, -1)}, order)
    return cube + normal_order_product(cos_t, cube, order)


def _sweeps(H, rot, order):
    """{route: (normal form, generators, remainder)} of the three sweeps of H."""
    symbol = weyl_symbol_of_word(H, HBAR_ORDER, order)
    return {
        "quantum": birkhoff_quantum(H, rot, order, order),
        "semiclassical": birkhoff_semiclassical(symbol, rot, order, HBAR_ORDER, order),
        "classical": birkhoff_classical(weyl_symbol_of_word(H, 0, order), rot, order, order),
    }


def _terms(polys, by_grade=False):
    """The terms of each polynomial in order, each times ``2^(grade - 2)`` with ``by_grade``."""
    return [
        [(key, c * 2.0 ** (key_grade(key) - 2) if by_grade else c) for key, c in poly.items()]
        for poly in polys
    ]


@pytest.mark.parametrize(
    "dim,order,with_cos",
    [(2, 8, False), (3, 6, False), (1, 8, True)],
    ids=["d2o8", "d3o6", "d1o8t"],
)
def test_coupling_doubling_and_energy_shift_act_exactly_on_every_route(dim, order, with_cos):
    rot = nonresonance_margin(THETAS[:dim], order)
    W = _perturbation(dim, order, with_cos)
    base = _sweeps(h0_word(rot, 1.0, order) + W, rot, order)
    doubled = _sweeps(h0_word(rot, 1.0, order) + W.scaled(2.0), rot, order)
    shifted = _sweeps(h0_word(rot, 1.75, order) + W, rot, order)
    energy = ((0,) * dim, 0, 0)
    for route, (nf, generators, remainder) in base.items():
        table = dict(nf.items())
        rest = {e: c for e, c in table.items() if e != energy}
        assert table[energy] == 1.0 and max(map(entry_weight, rest)) == order
        assert generators and remainder
        polys = [*generators, remainder]
        got = dict(doubled[route][0].items())
        assert got.pop(energy) == 1.0
        assert got == {e: c * 2.0 ** (entry_weight(e) - 2) for e, c in rest.items()}, route
        assert _terms([*doubled[route][1], doubled[route][2]]) == _terms(polys, True), route
        got = dict(shifted[route][0].items())
        assert got.pop(energy) == 1.75
        assert got == rest, route
        assert _terms([*shifted[route][1], shifted[route][2]]) == _terms(polys), route
