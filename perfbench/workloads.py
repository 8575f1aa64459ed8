"""Seeded workloads of the orbitbnf benchmark.

Each entry of ``WORKLOADS`` is a pair of functions: the first turns
``(seed, size)`` into inputs (part of set-up), the second turns the inputs
into the ops of one pass.  An op calls public ``orbitbnf`` functions, checks
what they return and raises ``OpFailure`` when a gate is missed; it returns
the objects whose tables the reference check compares.

Every library call goes through an ``ob.<name>`` lookup at call time, so the
tracer's namespace patches see it.  Each workload draws its input *shapes*
(which words, which orders, which cuts) independently of the seed and lets
the seed pick the coefficients, so every seed does nearly the same work and
the run to run spread measures the machine, not the draw.
"""

import math
import random
from dataclasses import dataclass
from typing import Callable

import orbitbnf as ob

THETAS = (math.sqrt(2.0) - 1.0, math.sqrt(3.0) - 1.0, math.sqrt(5.0) - 2.0)


class OpFailure(AssertionError):
    """An op's output missed its correctness gate."""


def require(cond, msg):
    if not cond:
        raise OpFailure(msg)


@dataclass
class Op:
    name: str
    run: Callable[[], dict]


def _ladder_sum(dim, cap, weights):
    """sum_i w_i (a_i + a_i^+)."""
    x = ob.WordPoly.zero(dim, cap)
    for i, w in enumerate(weights):
        pair = ob.WordPoly.creation(dim, i, cap) + ob.WordPoly.annihilation(dim, i, cap)
        x = x + pair.scaled(w)
    return x


def _power(x, n, cap):
    out = x
    for _ in range(n - 1):
        out = ob.normal_order_product(out, x, cap)
    return out


def _jitter(rng, base, rel):
    return base * (1.0 + rel * rng.uniform(-1.0, 1.0))


def _nf_gap(a, b, keep=lambda entry: True):
    """Largest coefficient gap between two tables over the kept entries."""
    keys = {e for e, _ in a.items()} | {e for e, _ in b.items()}
    return max((abs(a.coeff(*e) - b.coeff(*e)) for e in keys if keep(e)), default=0.0)


def _require_linear_part(nf, rot, what):
    gap = max(abs(a - b) for a, b in zip(nf.theta(), rot.theta))
    require(gap <= 1e-12, f"{what}: linear part moved by {gap:.3e}")


# -- nf-routes ---------------------------------------------------------------------
#
# Three Hamiltonians E + theta.(a+a + hbar/2) + D_t + eps (sum_i c_i (a_i + a_i^+))^3
# go through the quantum, semiclassical and classical routes.  The last one
# adds eps_t cos(t) (a + a^+)^3, which sends D_t through e^{imt} (m != 0).
# Cases are (dim, order, with cos t coupling).

NF_CASES = {
    "full": ((2, 8, False), (3, 6, False), (1, 8, True)),
    "smoke": ((1, 4, False), (2, 4, False), (1, 5, True)),
}
NF_HBAR_ORDER = 2
NF_ROUTE_TOL = 1e-9


def _nf_hamiltonian(rng, dim, order, with_cos):
    rot = ob.nonresonance_margin(THETAS[:dim], order)
    x = _ladder_sum(dim, order, [_jitter(rng, 1.0, 0.1) for _ in range(dim)])
    cube = _power(x, 3, order)
    H = ob.h0_word(rot, 1.0, order) + cube.scaled(_jitter(rng, 0.05, 0.1))
    if with_cos:
        half = 0.5 * _jitter(rng, 0.05, 0.1)
        cos_t = ob.WordPoly.word(dim, m=1, coeff=half, max_grade=order) + ob.WordPoly.word(
            dim, m=-1, coeff=half, max_grade=order
        )
        H = H + ob.normal_order_product(cos_t, cube, order)
    return H, rot


def nf_routes_inputs(seed, size):
    rng = random.Random(seed)
    return [
        (dim, order, *_nf_hamiltonian(rng, dim, order, with_cos))
        for dim, order, with_cos in NF_CASES[size]
    ]


def nf_routes_ops(inputs):
    ops = []
    for dim, order, H, rot in inputs:
        state = {}
        tag = f"d{dim}o{order}{'t' if any(key[2] for key in H.keys()) else ''}"

        def quantum(H=H, rot=rot, order=order, state=state):
            h_q, _gens, _rem = ob.birkhoff_quantum(H, rot, order, order)
            _require_linear_part(h_q, rot, "quantum")
            state["h_q"] = h_q
            return {"h_q": h_q}

        def semiclassical(H=H, rot=rot, order=order, state=state):
            Hs = ob.weyl_symbol_of_word(H, NF_HBAR_ORDER, order)
            h_s, _log, _rem = ob.birkhoff_semiclassical(Hs, rot, order, NF_HBAR_ORDER, order)
            _require_linear_part(h_s, rot, "semiclassical")
            require("h_q" in state, "quantum route result missing")
            related = ob.relate_normal_forms(state["h_q"], NF_HBAR_ORDER)
            gap = _nf_gap(
                related,
                h_s,
                lambda e: e[2] <= NF_HBAR_ORDER and 2 * (sum(e[0]) + e[1] + e[2]) <= order,
            )
            require(gap <= NF_ROUTE_TOL, f"quantum vs semiclassical gap {gap:.3e}")
            state["h_s"] = h_s
            return {"h_s": h_s}

        def classical(H=H, rot=rot, order=order, state=state):
            symbol = ob.weyl_symbol_of_word(H, 0, order)
            h_c, _log, _rem = ob.birkhoff_classical(symbol, rot, order, order)
            _require_linear_part(h_c, rot, "classical")
            require("h_s" in state, "semiclassical route result missing")
            gap = _nf_gap(h_c, state["h_s"].hbar_truncated(0))
            require(gap <= NF_ROUTE_TOL, f"classical vs hbar^0 slice gap {gap:.3e}")
            return {"h_c": h_c}

        ops += [
            Op(f"{tag}.quantum", quantum),
            Op(f"{tag}.semiclassical", semiclassical),
            Op(f"{tag}.classical", classical),
        ]
    return ops


# -- oracle-window -----------------------------------------------------------------
#
# Part one is the check-6 path at cubic coupling 0.01 on one mode: a normal
# form, a one-jet trace expansion, and per hbar a safe window of
# quasi-eigenvalues whose plateau-weighted trace is compared with
# sum_{m<=2} d_1^m hbar^m.  Part two is one two-mode solve of a confining
# quartic well on a lexicographic (not banded) basis.

ORACLE_SIZES = {
    # hbar exponents of part one; (order, hermite cut, hbar, window) of part two.
    # The window edges sit in ladder gaps wider than the seeded coupling moves
    # a level, so every seed keeps the same levels (8 at full size).
    "full": ((4, 5, 6, 7, 8), (8, 23, 0.1, (1.02, 1.225))),
    "smoke": ((4, 5), (4, 11, 0.02, (1.004, 1.021))),
}
PLATEAU = (0.04, 0.9)
ACTION_GUARD = 1.5  # action beyond the plateau the half-cut must cover
LEVEL_TOL = 1e-4  # one-mode eigenvalues vs the grade-6 normal form
TWO_MODE_TOL = 3e-4  # two-mode eigenvalues vs their normal form


def oracle_window_inputs(seed, size):
    rng = random.Random(seed)
    rot1 = ob.nonresonance_margin(THETAS[:1], 8)
    x1 = _ladder_sum(1, 8, (1.0,))
    H1 = ob.h0_word(rot1, 1.0, 8) + _power(x1, 3, 8).scaled(_jitter(rng, 0.01, 0.05))
    exponents, two_mode = ORACLE_SIZES[size]
    cap = two_mode[0]
    rot2 = ob.nonresonance_margin(THETAS[:2], cap)
    x2 = _ladder_sum(2, cap, (1.0, 1.0))
    H2 = ob.h0_word(rot2, 1.0, cap) + _power(x2, 4, cap).scaled(_jitter(rng, 0.005, 0.1))
    return {"H1": H1, "rot1": rot1, "H2": H2, "rot2": rot2,
            "exponents": exponents, "two_mode": two_mode}


def _decay_slope(hbars, errors):
    """Least-squares slope of log(error) against log(hbar)."""
    xs = [math.log(h) for h in hbars]
    ys = [math.log(e) for e in errors]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def oracle_window_ops(inp):
    H1, rot1 = inp["H1"], inp["rot1"]
    theta = rot1.theta[0]
    bump = ob.GaussianBump(1, width=0.7)
    state = {"hbars": [], "errors": []}
    exponents = inp["exponents"]

    def nf_jet():
        h, _gens, _rem = ob.birkhoff_quantum(H1, rot1, 6, 8)
        tr = ob.forward_trace_expansion(h, [bump.jet(14)], 4)
        d = [tr.d(1, m) for m in range(4)]
        require(all(math.isfinite(abs(v)) for v in d), "non-finite trace coefficient")
        state["h"], state["d"] = h, d
        return {"h": h, "d": d}

    def window(e):
        require("h" in state, "normal form and trace expansion missing")
        h, d = state["h"], state["d"]
        hbar = 2.0**-e
        E = h.energy()
        mu_max = math.ceil(PLATEAU[1] / hbar) + 2
        w = ob.BasisWindow(2 * math.ceil((PLATEAU[1] + ACTION_GUARD) / hbar) + 2, 0, hbar)
        predicted = [h.evaluate(((mu + 0.5) * hbar,), 0.0, hbar) for mu in range(mu_max + 2)]
        # edges halfway between predicted levels, so the seeded coupling
        # never puts a level on an edge
        lo, hi = E - 0.5 * theta * hbar, 0.5 * (predicted[-2] + predicted[-1])
        evs = ob.quasi_eigenvalues(H1, w, (lo, hi), drift_tol=1e-9)
        require(len(evs) == mu_max + 1, f"window holds {len(evs)} levels, expected {mu_max + 1}")
        level_gap = max(abs(a - b) for a, b in zip(evs, predicted))
        require(level_gap <= LEVEL_TOL, f"level gap {level_gap:.3e} at hbar 2^-{e}")
        # plateau-weighted trace of the windowed spectrum, each level repeated
        # over the Fourier ladder nu*hbar far enough to cover the bump
        weights = [ob.smooth_plateau((mu + 0.5) * hbar, *PLATEAU) for mu in range(len(evs))]
        y_max = max(abs(v - E) / hbar for v in evs)
        span = math.ceil(y_max) + math.ceil(14.0 / bump.width) + 2
        spectrum, all_weights = [], []
        for ev, rho in zip(evs, weights):
            if rho:
                spectrum += [ev + nu * hbar for nu in range(-span, span + 1)]
                all_weights += [rho] * (2 * span + 1)
        value = ob.numeric_trace(spectrum, E, hbar, bump, weights=all_weights, floor=1e-9)
        err = abs(value - sum(d[m] * hbar**m for m in range(3)))
        require(err <= 5.0 * hbar**2.5, f"trace error {err:.3e} at hbar 2^-{e}")
        state["hbars"].append(hbar)
        state["errors"].append(err)
        if e == exponents[-1]:
            errs = state["errors"]
            require(len(errs) == len(exponents), "an earlier window failed")
            require(all(a > b for a, b in zip(errs, errs[1:])), f"errors do not decay: {errs}")
            slope = _decay_slope(state["hbars"], errs)
            require(slope >= 2.5, f"trace error decay exponent {slope:.2f} < 2.5")
        return {"evs": evs, "trace": value}

    def two_mode():
        order, cut, hbar, (lo, hi) = inp["two_mode"]
        h2, _gens, _rem = ob.birkhoff_quantum(inp["H2"], inp["rot2"], order, order)
        evs = ob.quasi_eigenvalues(inp["H2"], ob.BasisWindow(cut, 0, hbar), (lo, hi), drift_tol=1e-9)
        predicted = sorted(
            p
            for p in (
                h2.evaluate(((a + 0.5) * hbar, (b + 0.5) * hbar), 0.0, hbar)
                for a in range(cut // 2)
                for b in range(cut // 2)
            )
            if lo <= p <= hi
        )
        require(len(evs) == len(predicted), f"{len(evs)} levels, normal form predicts {len(predicted)}")
        gap = max((abs(a - b) for a, b in zip(evs, predicted)), default=0.0)
        require(gap <= TWO_MODE_TOL, f"two-mode level gap {gap:.3e}")
        return {"h2": h2, "evs": evs}

    return (
        [Op("nf-jet", nf_jet)]
        + [Op(f"window.hbar=2^-{e}", lambda e=e: window(e)) for e in exponents]
        + [Op("two-mode", two_mode)]
    )


# -- word-algebra --------------------------------------------------------------------
#
# Many small operands, so per-call overhead (construction, key validation, the
# ad-eigenvalue cache) dominates.  Identity trials use exactly representable
# coefficients, so the identities hold exactly.

WORD_SIZES = {"full": (90, 300), "smoke": (2, 6)}  # (identity trials, solves)
SHAPE_SEED = 8642  # word and key shapes: the same on every seed
WORD_COEFFS = (-2.0, -1.5, -1.0, -0.5, 0.5, 1.0, 1.5, 2.0)
IDENTITY_TOL = 1e-12
RESIDUAL_TOL = 1e-12


def _random_poly(shapes, coeffs, dim, terms=4):
    out = ob.WordPoly.zero(dim)
    for _ in range(terms):
        mu = tuple(shapes.randint(0, 3) for _ in range(dim))
        nu = tuple(shapes.randint(0, 3) for _ in range(dim))
        m, j, k = shapes.randint(-2, 2), shapes.randint(0, 1), shapes.randint(0, 1)
        out = out + ob.WordPoly.word(dim, mu=mu, nu=nu, m=m, j=j, k=k, coeff=coeffs.choice(WORD_COEFFS))
    return out


def _graded_key(shapes, dim, grade):
    j = shapes.choice((0, 0, 1)) if grade >= 2 else 0
    k = shapes.choice((0, 0, 1)) if grade - 2 * j >= 2 else 0
    mu, nu = [0] * dim, [0] * dim
    for _ in range(grade - 2 * j - 2 * k):
        slot = shapes.randrange(2 * dim)
        if slot < dim:
            mu[slot] += 1
        else:
            nu[slot - dim] += 1
    return tuple(mu), tuple(nu), shapes.randint(-3, 3), j, k


def word_algebra_inputs(seed, size):
    shapes, coeffs = random.Random(SHAPE_SEED), random.Random(seed)
    n_trials, n_solves = WORD_SIZES[size]
    trials = []
    for t in range(n_trials):
        dim = 1 + t % 2
        trials.append(tuple(_random_poly(shapes, coeffs, dim) for _ in range(3)))
    rots = {dim: ob.nonresonance_margin(THETAS[:dim], 8) for dim in (1, 2, 3)}
    solves = []
    for s in range(n_solves):
        dim, grade = 1 + s % 3, 3 + s % 6
        G, Gq = ob.FTSeries.zero(dim), ob.WordPoly.zero(dim)
        for _ in range(6):
            mu, nu, m, j, k = _graded_key(shapes, dim, grade)
            c = complex(coeffs.uniform(-1, 1), coeffs.uniform(-1, 1))
            G = G + ob.FTSeries.monomial(dim, mu, nu, m, j, k, c)
            G = G + ob.FTSeries.monomial(dim, nu, mu, -m, j, k, c.conjugate())
            w = ob.WordPoly.word(dim, mu=mu, nu=nu, m=m, j=j, k=k, coeff=c)
            Gq = Gq + w + ob.adjoint(w)
        solves.append((G, Gq, rots[dim]))
    return {"trials": trials, "solves": solves}


def word_algebra_ops(inp):
    def identities(A, B, C):
        prod, comm, adj = ob.normal_order_product, ob.commutator_over_ihbar, ob.adjoint
        ab, bc = prod(A, B), prod(B, C)
        ab_c = comm(A, B)
        residuals = {
            "associativity": prod(ab, C) - prod(A, bc),
            "adjoint": adj(ab) - prod(adj(B), adj(A)),
            "jacobi": comm(ab_c, C) + comm(comm(B, C), A) + comm(comm(C, A), B),
            "leibniz": comm(A, bc) - (prod(ab_c, C) + prod(B, comm(A, C))),
        }
        for name, res in residuals.items():
            worst = res.max_abs_coeff()
            require(worst <= IDENTITY_TOL, f"{name} residual {worst:.3e}")
        return {"ab": ab, "commutator": ab_c}

    def solve(G, Gq, rot):
        F, G1 = ob.solve_homological_classical(G, rot)
        res_c = ob.homological_residual(F, G, G1, rot)
        require(res_c <= RESIDUAL_TOL, f"classical residual {res_c:.3e}")
        Fq, G1q = ob.solve_homological_quantum(Gq, rot)
        res_q = ob.quantum_homological_residual(Fq, Gq, G1q, rot)
        require(res_q <= RESIDUAL_TOL, f"quantum residual {res_q:.3e}")
        return {"F": F, "G1": G1, "Fq": Fq, "G1q": G1q}

    return [
        Op(f"identities.{t}", lambda abc=abc: identities(*abc))
        for t, abc in enumerate(inp["trials"])
    ] + [Op(f"solve.{s}", lambda args=args: solve(*args)) for s, args in enumerate(inp["solves"])]


WORKLOADS = {
    "nf-routes": (nf_routes_inputs, nf_routes_ops),
    "oracle-window": (oracle_window_inputs, oracle_window_ops),
    "word-algebra": (word_algebra_inputs, word_algebra_ops),
}


# -- reference tables -------------------------------------------------------------


def table(obj):
    """Flatten an op output into {entry label: complex}."""
    if isinstance(obj, ob.NormalForm):
        return {f"{list(r)}|{s}|{k}": complex(c) for (r, s, k), c in obj.items()}
    if isinstance(obj, (ob.WordPoly, ob.FTSeries)):
        return {str(key): complex(c) for key, c in obj.items()}
    if isinstance(obj, (list, tuple)):
        return {str(i): complex(v) for i, v in enumerate(obj)}
    return {"": complex(obj)}


def tables(outputs):
    """{op name: {output name: table}} as JSON-ready [re, im] pairs."""
    return {
        op: {
            name: {label: [v.real, v.imag] for label, v in table(obj).items()}
            for name, obj in out.items()
        }
        for op, out in outputs.items()
    }


def table_mismatches(got, ref, rtol):
    """Entries where two tables({...}) differ by more than rtol of the table's
    largest reference entry; missing entries count as zero."""
    bad = []
    for op in sorted(set(got) | set(ref)):
        g_op, r_op = got.get(op, {}), ref.get(op, {})
        for name in sorted(set(g_op) | set(r_op)):
            g, r = g_op.get(name, {}), r_op.get(name, {})
            scale = max([1.0] + [abs(complex(*v)) for v in r.values()])
            for label in set(g) | set(r):
                diff = abs(complex(*g.get(label, (0.0, 0.0))) - complex(*r.get(label, (0.0, 0.0))))
                if diff > rtol * scale:
                    bad.append(f"{op}/{name}/{label}: off by {diff:.3e}")
    return bad
