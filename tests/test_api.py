"""The package's public names."""

import orbitbnf

PUBLIC = [
    "BasisState",
    "BasisWindow",
    "CoverageError",
    "FTSeries",
    "GaussianBump",
    "IllConditionedError",
    "InconsistentDataError",
    "JetDepthError",
    "NonNilpotentError",
    "NormalForm",
    "OrbitBNFError",
    "OrderingError",
    "ResonanceError",
    "RotationData",
    "TestFunctionJet",
    "TraceExpansion",
    "UnsafeWindowError",
    "WordPoly",
    "adjoint",
    "apply_to_basis",
    "assemble_matrix",
    "birkhoff_classical",
    "birkhoff_quantum",
    "birkhoff_semiclassical",
    "commutator_over_ihbar",
    "diagonal_to_normal_form",
    "exp_conjugate",
    "forward_trace_expansion",
    "g_function",
    "h0_series",
    "h0_word",
    "homological_residual",
    "invert_trace_expansion",
    "lie_conjugate",
    "moyal_bracket",
    "moyal_product",
    "nonresonance_margin",
    "normal_form_to_word",
    "normal_order_product",
    "numeric_trace",
    "poisson_bracket",
    "psi_kernel",
    "quantum_homological_residual",
    "quasi_eigenvalues",
    "relate_normal_forms",
    "smooth_plateau",
    "solve_homological_classical",
    "solve_homological_quantum",
    "weyl_from_wick",
    "weyl_of_functional_calculus",
    "weyl_symbol_of_word",
    "wick_from_weyl",
]


def test_public_names_are_pinned_and_resolve():
    assert orbitbnf.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(orbitbnf, name)]
    assert not missing
