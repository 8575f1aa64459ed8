"""Class-wise oracle solves, the banded driver and the assembly behind them.

``quasi_eigenvalues`` splits the triplets of the doubled matrix into
classes of states that no nonzero entry connects and solves each class on
its own, from a block built from its entries, a large narrow doubled block
with LAPACK's banded driver; ``apply_to_basis`` builds each matrix column
in one pass per term, and ``assemble_matrix`` places it by a dict of
positions on the action simplex |mu| <= hermite_cut.  All are held against
the straight computations they replace: dense solves, the per-term loop,
the dict-lookup assembly, bands read from the dense matrix and the cube
basis kept in ``oracle_helpers``.
"""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitbnf import acceptance, oracle
from orbitbnf.errors import UnsafeWindowError
from orbitbnf.oracle import BasisWindow, assemble_matrix, quasi_eigenvalues
from orbitbnf.quantum import h0_word
from orbitbnf.series import nonresonance_margin
from orbitbnf.words import WordPoly, apply_to_basis, normal_order_product
from oracle_helpers import (
    apply_to_basis_reference,
    assemble_matrix_reference,
    cube_eigvalsh,
    lower_band_reference,
)

SQRT2M1 = math.sqrt(2.0) - 1.0
SRC = Path(__file__).resolve().parent.parent / "src"


def ladder_sum(dim):
    s = WordPoly.zero(dim)
    for i in range(dim):
        s = s + WordPoly.annihilation(dim, i) + WordPoly.creation(dim, i)
    return s


def one_mode_cubic(cap=10, eps=0.01):
    s = ladder_sum(1)
    rot = nonresonance_margin((SQRT2M1,), 8)
    return h0_word(rot, 0.7, cap) + normal_order_product(normal_order_product(s, s, cap), s, cap) * eps


def two_mode_quartic(cap=8):
    rot = nonresonance_margin((SQRT2M1, math.sqrt(3.0) - 1.0), cap)
    s2 = normal_order_product(ladder_sum(2), ladder_sum(2), cap)
    return h0_word(rot, 1.0, cap) + normal_order_product(s2, s2, cap) * 0.003


def complex_cubic():
    """The one-mode cubic plus 0.01 i (a+^2 - a^2): Hermitian, not real."""
    squeeze = WordPoly.word(1, mu=(2,), coeff=0.01j) + WordPoly.word(1, nu=(2,), coeff=-0.01j)
    return one_mode_cubic() + squeeze


def triplet_classes(t):
    """``_classes`` of the triplets t: labels, half-bandwidths and ranks."""
    return oracle._classes(t.rows, t.cols, t.shape[0])


def classes_of(a, w):
    return oracle._groups(triplet_classes(assemble_matrix(a, w))[0])


def test_two_mode_quartic_splits_into_its_total_parity_classes():
    w = BasisWindow(10, 0, 0.1)
    classes = classes_of(two_mode_quartic(), w)
    states = w.states(2)
    assert [len(c) for c in classes] == [36, 30]
    for parity, c in enumerate(classes):
        assert {sum(states[i][0]) % 2 for i in c} == {parity}


def test_one_mode_cubic_is_one_class():
    w = BasisWindow(24, 0, 0.1)
    (only,) = classes_of(one_mode_cubic(), w)
    assert np.array_equal(only, np.arange(w.dimension(1)))


def test_t_independent_word_splits_into_its_fourier_sectors():
    w = BasisWindow(12, 2, 0.1)
    classes = classes_of(one_mode_cubic(), w)
    states = w.states(1)
    assert [sorted({states[i][1] for i in c}) for c in classes] == [[nu] for nu in range(-2, 3)]
    assert all(len(c) == 13 for c in classes)


def test_classes_of_a_diagonal_matrix_are_single_states():
    mat = np.diag([3.0, 0.0, -1.0, 2.0])
    mat[0, 3] = 0.5  # an entry in the upper triangle alone joins the two states
    rows, cols = np.nonzero(mat)
    label, band, rank = oracle._classes(rows, cols, len(mat))
    assert [list(c) for c in oracle._groups(label)] == [[0, 3], [1], [2]]
    assert list(band) == [1, 0, 0]  # states 0 and 3 are neighbours in their block
    assert list(rank) == [0, 0, 0, 1]


@pytest.mark.parametrize("make, w", [
    (two_mode_quartic, BasisWindow(10, 0, 0.1)),
    (one_mode_cubic, BasisWindow(12, 2, 0.1)),
    (complex_cubic, BasisWindow(12, 0, 0.1)),
], ids=["two-mode-parity", "fourier-sectors", "complex"])
def test_class_bands_are_the_half_bandwidths_of_the_class_blocks(make, w):
    t = assemble_matrix(make(), w)
    mat = t.toarray()
    label, band, rank = triplet_classes(t)
    expected = []
    for g in oracle._groups(label):
        r, c = np.nonzero(mat[np.ix_(g, g)])
        expected.append(int(np.max(np.abs(r - c))))
        assert np.array_equal(rank[g], np.arange(len(g)))
    assert list(band) == expected


def spy_solves(monkeypatch):
    """Solves in call order: the size of each numpy solve, and
    ``("banded", n, eigenvalues)`` for each banded one."""
    calls = []

    def spy(solve, banded=False):
        def call(mat, **kwargs):
            out = solve(mat, **kwargs)
            calls.append(("banded", mat.shape[1], out) if banded else mat.shape[0])
            return out
        return call

    monkeypatch.setattr(oracle.np.linalg, "eigh", spy(np.linalg.eigh))
    monkeypatch.setattr(oracle.np.linalg, "eigvalsh", spy(np.linalg.eigvalsh))
    monkeypatch.setattr(scipy.linalg, "eigvals_banded", spy(scipy.linalg.eigvals_banded, True))
    return calls


def routes(calls):
    """``spy_solves`` records without the banded eigenvalues."""
    return [c if isinstance(c, int) else c[:2] for c in calls]


@pytest.mark.parametrize("make, w, window, blocks", [
    (two_mode_quartic, BasisWindow(19, 0, 0.1), (1.02, 1.225), [400, 380, 100, 110]),
    (one_mode_cubic, BasisWindow(40, 1, 0.05),
     (0.7 + 0.2 * SQRT2M1 * 0.05, 0.7 + 7.8 * SQRT2M1 * 0.05), [81] * 3 + [41] * 3),
    (one_mode_cubic, BasisWindow(40, 0, 0.05),
     (0.7 + 0.2 * SQRT2M1 * 0.05, 0.7 + 9.8 * SQRT2M1 * 0.05), [81, 41]),
], ids=["two-mode-parity", "fourier-sectors", "one-class"])
def test_class_solves_match_the_dense_solve(monkeypatch, make, w, window, blocks):
    """Doubled blocks first, then working blocks; the merged eigenvalues are
    the dense working solve's to 1e-14 of the spectrum's scale."""
    a = make()
    sizes = spy_solves(monkeypatch)
    evs = quasi_eigenvalues(a, w, window)
    assert sizes == blocks
    dense = np.linalg.eigvalsh(assemble_matrix(a, w).toarray())
    inside = dense[(dense >= window[0]) & (dense <= window[1])]
    assert len(evs) == len(inside) > 0
    scale = float(np.max(np.abs(dense)))
    assert np.max(np.abs(np.array(evs) - inside)) <= 1e-14 * scale


def spy_masses(monkeypatch):
    """Per working solve, ``(eigenvalue, boundary mass)`` of every window
    eigenvector, whichever path (dense or inverse iteration) measured it."""
    seen = []
    first = oracle._first_offender

    def spy(vals, mass, keep):
        seen.append([(vals[i], mass(i)) for i in keep])
        return first(vals, mass, keep)

    monkeypatch.setattr(oracle, "_first_offender", spy)
    return seen


def dense_window(mat, groups, out, window):
    """Per class block of mat, window eigenvalues and boundary masses of
    their eigenvectors on the ``out`` states, from dense ``eigh``."""
    found = []
    for g in groups:
        vals, vecs = np.linalg.eigh(mat[np.ix_(g, g)])
        keep = (vals >= window[0]) & (vals <= window[1])
        found.append((vals, vals[keep], np.sum(np.abs(vecs[out[g]][:, keep]) ** 2, axis=0)))
    return found


@pytest.mark.parametrize("make, fourier_cut", [
    (one_mode_cubic, 0), (one_mode_cubic, 1), (complex_cubic, 0),
], ids=["one-class", "fourier-sectors", "complex"])
def test_large_narrow_doubled_blocks_take_the_banded_driver(monkeypatch, make, fourier_cut):
    """1041 doubled and 521 working states per class, half-bandwidth 3: the
    working blocks take the banded path too, and no numpy solve runs.  Each
    banded doubled solve is the dense one's to 1e-14 of the spectrum's
    scale; each working solve's window eigenvalues are dense ``eigh``'s to
    1e-14 of the scale, and the inverse-iteration masses are ``eigh``'s to
    1e-10."""
    a = make()
    hbar = 0.01
    w = BasisWindow(520, fourier_cut, hbar)
    window = (0.7 + 0.2 * SQRT2M1 * hbar, 0.7 + 50.5 * SQRT2M1 * hbar)
    big = assemble_matrix(a, w.doubled(False))
    label, band, _rank = triplet_classes(big)
    dense = [np.linalg.eigvalsh(big.toarray()[np.ix_(g, g)]) for g in oracle._groups(label)]
    assert list(band) == [3] * len(dense)
    small = assemble_matrix(a, w)
    out = np.array([mu[0] > w.hermite_cut / 2 for mu, _nu in w.states(1)])
    working = dense_window(small.toarray(), oracle._groups(triplet_classes(small)[0]), out, window)
    calls = spy_solves(monkeypatch)
    masses = spy_masses(monkeypatch)
    kinds = {}
    for kind in "dz":
        factor = getattr(scipy.linalg.lapack, kind + "gbtrf")

        def counted(*args, kind=kind, factor=factor, **kwargs):
            kinds[kind] = kinds.get(kind, 0) + 1
            return factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, kind + "gbtrf", counted)
    evs = quasi_eigenvalues(a, w, window)
    sectors = 2 * fourier_cut + 1
    assert routes(calls) == [("banded", 1041)] * sectors + [("banded", 521)] * sectors
    for (_tag, _n, vals), ref in zip(calls, dense):
        scale = float(np.max(np.abs(ref)))
        assert len(vals) == len(ref)
        assert np.max(np.abs(vals - ref)) <= 1e-14 * scale
    held = 0
    for seen, (ref, inside, ref_mass) in zip(masses, working):
        scale = float(np.max(np.abs(ref)))
        assert len(seen) == len(inside) > 0
        assert np.max(np.abs(np.array([v for v, _m in seen]) - inside)) <= 1e-14 * scale
        assert np.max(np.abs(np.array([m for _v, m in seen]) - ref_mass)) <= 1e-10
        held += len(inside)
    assert len(evs) == held >= 50 * sectors
    # one factorization per window eigenvalue (and the spy's second pass),
    # by the real driver for a real block and the complex one otherwise
    assert kinds == {"z" if np.iscomplexobj(small.vals) else "d": 2 * held}


def test_two_mode_parity_classes_stay_dense(monkeypatch):
    """The benchmark's two-mode classes fail the size rule (576 and 552
    doubled states, under 1024), and their half-bandwidths 92 and 90 are
    too wide for it as well (32 * 92 > 576)."""
    a = two_mode_quartic()
    w = BasisWindow(23, 0, 0.1)
    label, band, _rank = triplet_classes(assemble_matrix(a, w.doubled(False)))
    assert [len(g) for g in oracle._groups(label)] == [576, 552]
    assert list(band) == [92, 90]
    calls = spy_solves(monkeypatch)
    assert len(quasi_eigenvalues(a, w, (1.02, 1.225))) == 8
    assert calls == [576, 552, 144, 156]


def unsafe_text(a, w, window, **kwargs):
    with pytest.raises(UnsafeWindowError) as caught:
        quasi_eigenvalues(a, w, window, **kwargs)
    return str(caught.value)


def test_forced_banded_path_reproduces_check_2s_boundary_mass_failures(monkeypatch):
    """Acceptance check 2's windows at coupling 0.1 (129 doubled states, b = 3)
    with the narrow rule forced: inverse iteration finds the same lowest
    offender as dense ``eigh``, byte for byte in the UnsafeWindowError text,
    and every window mass to 1e-10."""
    H, _rot = acceptance._benchmark_hamiltonian(cap=8, eps=0.1, E=1.0)
    found = []
    for hbar in (0.1, 0.05, 0.025):
        window = (1.0 + 0.05 * SQRT2M1 * hbar, 1.0 + 9.95 * SQRT2M1 * hbar)
        w = BasisWindow(64, 0, hbar)
        with monkeypatch.context() as m:
            dense_masses = spy_masses(m)
            dense_calls = spy_solves(m)
            dense = unsafe_text(H, w, window, drift_tol=1e-10)
        assert dense_calls == [129, 65]
        with monkeypatch.context() as m:
            m.setattr(oracle, "_BANDED_MIN", 1)
            banded_masses = spy_masses(m)
            banded_calls = spy_solves(m)
            banded = unsafe_text(H, w, window, drift_tol=1e-10)
        assert routes(banded_calls) == [("banded", 129), ("banded", 65)]
        assert banded == dense
        (seen,), (ref,) = banded_masses, dense_masses
        assert len(seen) == len(ref) > 0
        assert max(abs(m - r) for (_v, m), (_u, r) in zip(seen, ref)) <= 1e-10
        found.append(dense.split(" on states")[0])
    assert found == [
        "eigenvalue 1.01479 keeps mass 1.83e-02",
        "eigenvalue 1.00508 keeps mass 1.09e-01",
        "eigenvalue 1.00498 keeps mass 2.94e-05",
    ]


def wilkinson_word(c=12, delta=0.05):
    """(a+a - c)^2 + delta (a + a+) at hbar = 1: a diagonal symmetric about c,
    so the levels near (c -+ k) pair up, split exponentially in k."""
    shifted = WordPoly.word(1, mu=(1,), nu=(1,)) - WordPoly.word(1, coeff=float(c))
    return normal_order_product(shifted, shifted) + ladder_sum(1) * delta


def test_a_near_degenerate_pair_sends_its_narrow_class_to_dense_eigh(monkeypatch):
    """The pair at 9 (mu = 9 and 15) is split by about 4e-9, far below 1e-8
    of the scale (2.5e5): no inverse iteration, and ``eigh`` on the block
    rebuilt from the band gives exactly the dense path's eigenvalues."""
    a = wilkinson_word()
    w = BasisWindow(512, 0, 1.0)
    window = (8.0, 10.0)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_BANDED_MIN", 10**9)
        dense = quasi_eigenvalues(a, w, window)
    assert len(dense) == 2 and 0 < dense[1] - dense[0] < 1e-8
    calls = spy_solves(monkeypatch)
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", None)  # never reached
    assert quasi_eigenvalues(a, w, window) == dense
    assert routes(calls) == [("banded", 1025), ("banded", 513), 513]


@pytest.mark.parametrize("breakage", ["residual", "zero-pivot", "nan-vector"])
def test_an_uncertified_vector_sends_its_narrow_class_to_dense_eigh(monkeypatch, breakage):
    """A residual above the bound, a zero pivot in the shifted factor or a
    NaN vector (whose residual compares False) gives up inverse iteration
    for the class: ``eigh`` on the block rebuilt from the band, with exactly
    the dense path's eigenvalues."""
    a = one_mode_cubic()
    hbar = 0.01
    w = BasisWindow(520, 0, hbar)
    window = (0.7 + 0.2 * SQRT2M1 * hbar, 0.7 + 50.5 * SQRT2M1 * hbar)
    with monkeypatch.context() as m:
        m.setattr(oracle, "_BANDED_MIN", 10**9)
        dense = quasi_eigenvalues(a, w, window)
    lapack = scipy.linalg.lapack
    if breakage == "residual":
        monkeypatch.setattr(oracle, "_RESIDUAL_TOL", 0.0)
    elif breakage == "zero-pivot":
        factor = lapack.dgbtrf
        monkeypatch.setattr(lapack, "dgbtrf", lambda *args, **kw: factor(*args, **kw)[:2] + (1,))
    else:
        solve = lapack.dgbtrs
        monkeypatch.setattr(
            lapack, "dgbtrs", lambda *args, **kw: (math.nan * solve(*args, **kw)[0], 0)
        )
    calls = spy_solves(monkeypatch)
    assert quasi_eigenvalues(a, w, window) == dense
    assert routes(calls) == [("banded", 1041), ("banded", 521), 521]


def force_banded(monkeypatch):
    """Make every class narrow, however small or wide."""
    monkeypatch.setattr(oracle, "_BANDED_MIN", 1)
    monkeypatch.setattr(oracle, "_BANDED_RATIO", 0)


def offender_case(edge, sector):
    """A one-mode cubic window over three Fourier sectors, each holding
    shallow vectors; the window's lower edge (in units of theta hbar above
    0.7) puts the lowest offender into ``sector``.  Returns the word, the
    basis window, the energy window and that eigenvalue."""
    a = one_mode_cubic()
    hbar = 0.1
    w = BasisWindow(16, 1, hbar)
    window = (0.7 + SQRT2M1 * hbar * edge, 0.7 + SQRT2M1 * hbar * 12.0)
    vals, vecs = np.linalg.eigh(assemble_matrix(a, w).toarray())
    states = w.states(1)
    shallow = np.array([mu[0] > w.hermite_cut / 2 for mu, _nu in states])
    offending = {}  # sector -> lowest offending eigenvalue
    for v, vec in zip(vals, vecs.T):
        if window[0] <= v <= window[1] and np.sum(np.abs(vec[shallow]) ** 2) > 1e-8:
            offending.setdefault(states[int(np.argmax(np.abs(vec)))][1], v)
    assert sorted(offending) == [-1, 0, 1]
    lowest = min(offending.values())
    assert lowest == offending[sector]
    assert len({f"{v:.6g}" for v in offending.values()}) == 3
    return a, w, window, lowest


def test_boundary_mass_names_the_lowest_offending_eigenvalue_over_all_classes():
    """Every Fourier sector holds shallow vectors in this window; the lowest
    of them lies in the last sector, not in the first class solved."""
    a, w, window, lowest = offender_case(8.7, 1)
    with pytest.raises(UnsafeWindowError, match=rf"^eigenvalue {lowest:.6g} keeps mass "):
        quasi_eigenvalues(a, w, window)


@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
@pytest.mark.parametrize("edge, sector", [(8.7, 1), (7.87, -1)], ids=["last-class", "first-class"])
def test_lowest_offender_holds_on_both_paths_and_in_either_class_order(
    monkeypatch, banded, edge, sector
):
    """The lowest offender in the first class solved must not be replaced
    by a later class's higher one, and inverse iteration names the same
    offender as dense ``eigh``."""
    a, w, window, lowest = offender_case(edge, sector)
    if banded:
        force_banded(monkeypatch)
    calls = spy_solves(monkeypatch)
    with pytest.raises(UnsafeWindowError, match=rf"^eigenvalue {lowest:.6g} keeps mass "):
        quasi_eigenvalues(a, w, window)
    working = [("banded", 17)] * 3 if banded else [17] * 3
    assert routes(calls)[3:] == working


@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
def test_boundary_mass_just_above_the_threshold_is_unsafe(monkeypatch, banded):
    """The oracle-window case at hbar = 2^-4 with its window raised to 2.2:
    the lowest offender keeps 3.35e-8, between the 1e-8 threshold and
    1e-6, and inverse iteration measures it as ``eigh`` does."""
    H, _rot = acceptance._benchmark_hamiltonian(cap=8, eps=0.01, E=1.0)
    hbar = 2.0**-4
    if banded:
        force_banded(monkeypatch)
    calls = spy_solves(monkeypatch)
    window = (1.0 - 0.5 * SQRT2M1 * hbar, 2.2)
    text = unsafe_text(H, BasisWindow(48, 0, hbar), window, drift_tol=1e-9)
    assert text.startswith("eigenvalue 1.31898 keeps mass 3.35e-08 on states")
    assert routes(calls) == ([("banded", 97), ("banded", 49)] if banded else [97, 49])


def test_band_from_entries_cuts_a_band_wider_than_the_block():
    mat = np.arange(16.0).reshape(4, 4)
    states = np.array([0, 2, 3])
    block = mat[np.ix_(states, states)]
    i, j = np.nonzero(block)
    lower = oracle._block(i, j, block[i, j], 3, 5, True)
    expected = [[0.0, 10.0, 15.0], [8.0, 14.0, 0.0], [12.0, 0.0, 0.0]]
    assert np.array_equal(lower, expected)
    assert np.array_equal(lower_band_reference(mat, states, 5), expected)


def spy_blocks(monkeypatch):
    """The blocks that quasi_eigenvalues hands its solvers, in call order:
    ``("doubled", block, narrow)`` and ``("working", block, narrow)``."""
    seen = []
    doubled, working = oracle._doubled_eigvals, oracle._working_window

    def spy_doubled(block, narrow):
        seen.append(("doubled", block.copy(), narrow))
        return doubled(block, narrow)

    def spy_working(block, narrow, lo, hi, out):
        seen.append(("working", block.copy(), narrow))
        return working(block, narrow, lo, hi, out)

    monkeypatch.setattr(oracle, "_doubled_eigvals", spy_doubled)
    monkeypatch.setattr(oracle, "_working_window", spy_working)
    return seen


@pytest.mark.parametrize("banded", [False, True], ids=["dense", "banded"])
@pytest.mark.parametrize("make, w, window", [
    (two_mode_quartic, BasisWindow(19, 0, 0.1), (1.02, 1.225)),
    (one_mode_cubic, BasisWindow(40, 1, 0.05), (0.7 + 0.01 * SQRT2M1, 0.7 + 0.39 * SQRT2M1)),
    (complex_cubic, BasisWindow(40, 0, 0.05), (0.7 + 0.01 * SQRT2M1, 0.7 + 0.39 * SQRT2M1)),
], ids=["two-mode-parity", "fourier-sectors", "complex"])
def test_blocks_from_the_triplets_are_slices_of_the_dense_matrix(
    monkeypatch, make, w, window, banded
):
    """Each class's doubled block, built from its entries, is the slice of
    the dense doubled matrix on the class's states (its lower band read
    diagonal by diagonal when narrow); its working block is the slice on
    the class's states inside the working cuts, with the same band.  Equal
    values and dtype, and the doubled solves come first."""
    a = make()
    wide = w.doubled(False)
    big = assemble_matrix(a, wide)
    mat = big.toarray()
    label, band, _rank = triplet_classes(big)
    inside = np.array([sum(mu) <= w.hermite_cut for mu, _nu in wide.states(a.dim)])
    expected = []
    for cut in ("doubled", "working"):
        for g, b in zip(oracle._groups(label), band):
            g = g if cut == "doubled" else g[inside[g]]
            expected.append((cut, lower_band_reference(mat, g, b) if banded else mat[np.ix_(g, g)]))
    if banded:
        force_banded(monkeypatch)
    seen = spy_blocks(monkeypatch)
    assert quasi_eigenvalues(a, w, window)
    assert [(cut, narrow) for cut, _block, narrow in seen] == [(c, banded) for c, _r in expected]
    for (cut, block, _narrow), (_cut, ref) in zip(seen, expected):
        assert block.dtype == ref.dtype == mat.dtype
        assert np.array_equal(block, ref), cut


def test_a_narrow_solve_holds_no_dense_doubled_matrix():
    """The one-mode cubic at hbar = 0.01: one class of n = 1041 doubled
    states, half-bandwidth 3, solved banded at both cuts.  The call's peak
    of traced memory (scipy already imported) stays below 2 n^2 bytes, a
    quarter of the dense float64 doubled matrix."""
    a = one_mode_cubic()
    hbar = 0.01
    w = BasisWindow(520, 0, hbar)
    n = w.doubled(False).dimension(1)
    assert n == 1041
    window = (0.7 + 0.2 * SQRT2M1 * hbar, 0.7 + 50.5 * SQRT2M1 * hbar)
    tracemalloc.start()
    try:
        evs = quasi_eigenvalues(a, w, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(evs) >= 50
    assert peak < 2 * n * n


def test_oracle_solve_imports_no_scipy():
    code = (
        "import sys\n"
        "from orbitbnf.oracle import BasisWindow, quasi_eigenvalues\n"
        "from orbitbnf.quantum import h0_word\n"
        "from orbitbnf.series import nonresonance_margin\n"
        "H = h0_word(nonresonance_margin((2 ** 0.5 - 1,), 8), 0.7, 8)\n"
        "assert len(quasi_eigenvalues(H, BasisWindow(8, 1, 0.1), (0.6, 0.8))) > 0\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_package_import_imports_no_scipy():
    code = (
        "import sys\n"
        "import orbitbnf\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# -- the column builder -------------------------------------------------------------


@st.composite
def words_and_states(draw):
    dim = draw(st.integers(1, 2))
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        key = (
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            tuple(draw(st.integers(0, 2)) for _ in range(dim)),
            draw(st.integers(-2, 2)),
            draw(st.integers(0, 2)),
            draw(st.integers(0, 2)),
        )
        terms[key] = complex(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    state = (tuple(draw(st.integers(0, 4)) for _ in range(dim)), draw(st.integers(-3, 3)))
    return WordPoly(dim, terms), state, draw(st.sampled_from((0.25, 0.5, 0.1, 1.0)))


def same_column(new, ref):
    """Equal keys, amplitudes and dict order; repr tells -0.0 from 0.0."""
    return list(new.items()) == list(ref.items()) and repr(new) == repr(ref)


@settings(deadline=None, max_examples=200)
@given(words_and_states())
def test_column_builder_matches_the_per_term_loop(case):
    a, s, hbar = case
    assert same_column(apply_to_basis(a, s, hbar), apply_to_basis_reference(a, s, hbar))


def test_column_builder_keeps_the_order_of_a_target_that_cancels_and_returns():
    """|2> at hbar 1/4 and nu 1: a+a gives 1/2, a+ moves to |3>, -2 hbar
    cancels |2> exactly, and D_t brings it back after |3>."""
    a = WordPoly(1, {
        ((1,), (1,), 0, 0, 0): 1.0,
        ((1,), (0,), 0, 0, 0): 1.0,
        ((0,), (0,), 0, 0, 1): -2.0,
        ((0,), (0,), 0, 1, 0): 1.0,
    })
    s = ((2,), 1)
    out = apply_to_basis(a, s, 0.25)
    assert list(out) == [((3,), 1), ((2,), 1)]
    assert out[((2,), 1)] == 0.25
    assert same_column(out, apply_to_basis_reference(a, s, 0.25))


def test_assembly_matches_the_per_term_loop_column_by_column():
    for a, w in ((two_mode_quartic(), BasisWindow(4, 0, 0.1)), (one_mode_cubic(), BasisWindow(6, 2, 0.1))):
        for s in w.states(a.dim):
            assert same_column(apply_to_basis(a, s, w.hbar), apply_to_basis_reference(a, s, w.hbar))


def driven(dim, coeff):
    """a_1+^2 a_d e^{it}, a_d+ a_1 D_t, a_d+^3 e^{-2it} and an hbar term
    (d = dim), each times ``coeff``: images leave a small window in mu and
    in nu."""
    def at(i, k):
        return tuple(k if j == i else 0 for j in range(dim))

    d = dim - 1
    terms = {
        (at(0, 2), at(d, 1), 1, 0, 0): coeff,
        (at(d, 1), at(0, 1), 0, 1, 0): 2 * coeff,
        (at(d, 3), (0,) * dim, -2, 0, 0): -coeff,
        ((1,) * dim, (1,) * dim, 0, 0, 1): 0.5 * coeff,
    }
    return WordPoly(dim, terms)


@pytest.mark.parametrize("coeff", [1.5, 1.5 - 0.5j], ids=["real", "complex"])
def test_assembly_by_position_matches_the_dict_lookup(coeff):
    """In one to three modes, at Fourier cuts 0 and 2, the assembled matrix
    equals the reference's dict lookup entry by entry: targets beyond
    |mu| = 3 and beyond the Fourier cut are dropped, every other target
    finds its row."""
    for dim in (1, 2, 3):
        for fourier_cut in (0, 2):
            a, w = driven(dim, coeff), BasisWindow(3, fourier_cut, 0.25)
            new, ref = assemble_matrix(a, w), assemble_matrix_reference(a, w)
            dtype = np.float64 if coeff.imag == 0 else np.complex128
            assert new.vals.dtype == new.toarray().dtype == ref.dtype == dtype
            assert new.shape == ref.shape == (w.dimension(dim),) * 2
            assert np.count_nonzero(ref) > 0 and np.array_equal(new.toarray(), ref)
            # no exact zero and no position twice: one entry per nonzero
            assert np.count_nonzero(new.vals) == len(new.vals) == np.count_nonzero(ref)
            states = w.states(dim)
            outside = {t for s in states for t in apply_to_basis(a, s, w.hbar)} - set(states)
            assert any(sum(mu) > 3 for mu, _nu in outside)
            assert any(abs(nu) > fourier_cut for _mu, nu in outside)


@pytest.mark.parametrize("fourier_cut", [0, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_grid_reads_the_state_order_and_positions_invert_it(dim, fourier_cut):
    """The position dict lists the states in ``states()`` order, each at
    its index there."""
    w = BasisWindow(3, fourier_cut, 0.1)
    index = oracle._index(w, dim)
    assert list(index) == w.states(dim)
    assert list(index.values()) == list(range(w.dimension(dim)))


@pytest.mark.parametrize("fourier_cut, couple", [(0, False), (2, False), (2, True)])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_doubled_states_inside_the_working_cuts_are_the_working_states(dim, fourier_cut, couple):
    """The doubled basis order restricted to the working cuts is the working
    order, so a class's working states are its doubled states inside the
    cuts, and its doubled half-bandwidth bounds its working block's."""
    w = BasisWindow(3, fourier_cut, 0.1)
    inside = [(mu, nu) for mu, nu in w.doubled(couple).states(dim)
              if sum(mu) <= w.hermite_cut and abs(nu) <= w.fourier_cut]
    assert inside == w.states(dim)


@pytest.mark.parametrize("make, w, window", [
    (two_mode_quartic, BasisWindow(19, 0, 0.1), (1.02, 1.225)),
    (one_mode_cubic, BasisWindow(40, 1, 0.05), (0.7 + 0.2 * SQRT2M1 * 0.05, 0.7 + 7.8 * SQRT2M1 * 0.05)),
], ids=["two-mode-parity", "fourier-sectors"])
def test_one_solve_assembles_once_through_the_module(monkeypatch, make, w, window):
    """quasi_eigenvalues looks up oracle.assemble_matrix at call time and
    calls it once, on the doubled window, which applies the word once per
    doubled state: the benchmark's tracer (perfbench/tracing.py) counts
    assemblies and their dimensions through these names."""
    a = make()
    wide = w.doubled(False)
    assemble, apply = oracle.assemble_matrix, oracle.apply_to_basis
    assembled, applied = [], []

    def counted_assemble(word, window_):
        assembled.append(window_)
        return assemble(word, window_)

    def counted_apply(word, state, hbar):
        applied.append(state)
        return apply(word, state, hbar)

    monkeypatch.setattr(oracle, "assemble_matrix", counted_assemble)
    monkeypatch.setattr(oracle, "apply_to_basis", counted_apply)
    assert quasi_eigenvalues(a, w, window)
    assert assembled == [wide]
    assert applied == wide.states(a.dim)


# -- the action simplex |mu| <= hermite_cut ------------------------------------------


@pytest.mark.parametrize("fourier_cut", [0, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_simplex_dimension_counts_its_states(dim, fourier_cut):
    w = BasisWindow(5, fourier_cut, 0.1)
    expected = math.comb(5 + dim, dim) * (2 * fourier_cut + 1)
    assert w.dimension(dim) == len(w.states(dim)) == expected


@pytest.mark.parametrize("fourier_cut", [0, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_positions_keep_the_simplex_and_rank_its_states(dim, fourier_cut):
    """Over the cube mu_i <= 2 N (and one Fourier index past the cut on
    either side), exactly the states with |mu| <= N and |nu| <= fourier_cut
    have a position, each at its index in ``states()``."""
    n = 4
    w = BasisWindow(n, fourier_cut, 0.1)
    index = oracle._index(w, dim)
    cube = [(mu, nu) for nu in range(-fourier_cut - 1, fourier_cut + 2)
            for mu in itertools.product(range(2 * n + 1), repeat=dim)]
    inside = [s for s in cube if s in index]
    assert inside == [(mu, nu) for mu, nu in cube if sum(mu) <= n and abs(nu) <= fourier_cut]
    assert inside == w.states(dim)
    assert [index[s] for s in inside] == list(range(len(inside)))


@pytest.mark.parametrize("cut, hbar, window, count", [
    (23, 0.1, (1.02, 1.225), 8),
    (11, 0.02, (1.004, 1.021), 2),
], ids=["benchmark-window", "small-hbar"])
def test_simplex_levels_are_the_cube_levels(cut, hbar, window, count):
    """The two-mode quartic's window levels on the simplex |mu| <= cut are
    those of a dense solve on the cube mu_i <= cut to 1e-12."""
    a = two_mode_quartic()
    evs = quasi_eigenvalues(a, BasisWindow(cut, 0, hbar), window)
    cube = cube_eigvalsh(a, cut, hbar)
    cube = cube[(cube >= window[0]) & (cube <= window[1])]
    assert len(evs) == len(cube) == count
    assert np.max(np.abs(np.array(evs) - cube)) <= 1e-12


def test_boundary_mass_is_taken_beyond_half_the_total_quantum_number():
    """At cut 8 the level (3, 3) lies beyond |mu| = 4 with all its mass,
    though each mu_i <= 4; the level (2, 2) lies on |mu| = 4 and passes."""
    rot = nonresonance_margin((SQRT2M1, math.sqrt(3.0) - 1.0), 8)
    a = h0_word(rot, 1.0, 8)
    w = BasisWindow(8, 0, 0.1)

    def level(mu):
        return 1.0 + w.hbar * sum(t * (m + 0.5) for t, m in zip(rot.theta, mu))

    with pytest.raises(UnsafeWindowError, match=r"eigenvalue 1\.40119 keeps mass 1\.00e\+00"):
        quasi_eigenvalues(a, w, (level((3, 3)) - 1e-3, level((3, 3)) + 1e-3))
    (ev,) = quasi_eigenvalues(a, w, (level((2, 2)) - 1e-3, level((2, 2)) + 1e-3))
    assert abs(ev - 1.28657) < 1e-5


@pytest.mark.parametrize("state", [((2.7,), 0), ((1,), 0.5), ((-1,), 0), ((1, 1), 0)],
                         ids=["float-mu", "float-nu", "negative-mu", "wrong-length"])
def test_apply_to_basis_rejects_a_state_that_is_not_integer_mu_nu(state):
    with pytest.raises(ValueError, match="basis state|Hermite"):
        apply_to_basis(WordPoly.creation(1, 0), state, 0.25)


def test_apply_to_basis_takes_numpy_ints_and_returns_plain_ones():
    a = WordPoly.word(1, mu=(1,), m=1, j=1)
    out = apply_to_basis(a, ((np.int64(2),), np.int64(-1)), 0.25)
    assert out == apply_to_basis(a, ((2,), -1), 0.25) == {((3,), 0): -0.25 * math.sqrt(0.75)}
    ((mu, nu),) = out
    assert type(mu[0]) is int and type(nu) is int
