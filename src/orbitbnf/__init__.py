"""orbitbnf: Birkhoff normal forms and trace invariants near an elliptic
periodic orbit on T*(R^n x S^1), with classical, semiclassical, and quantum
routes cross-checked against a truncated-basis matrix oracle."""

__version__ = "0.1.0"

from .bridge import (
    relate_normal_forms,
    weyl_from_wick,
    weyl_of_functional_calculus,
    weyl_symbol_of_word,
    wick_from_weyl,
)
from .classical import (
    birkhoff_classical,
    birkhoff_semiclassical,
    h0_series,
    homological_residual,
    lie_conjugate,
    solve_homological_classical,
)
from .errors import (
    CoverageError,
    IllConditionedError,
    InconsistentDataError,
    JetDepthError,
    NonNilpotentError,
    OrbitBNFError,
    ResonanceError,
    UnsafeWindowError,
)
from .normalform import NormalForm
from .oracle import (
    BasisWindow,
    assemble_matrix,
    numeric_trace,
    quasi_eigenvalues,
    smooth_plateau,
)
from .quantum import (
    birkhoff_quantum,
    exp_conjugate,
    h0_word,
    quantum_homological_residual,
    solve_homological_quantum,
)
from .series import (
    FTSeries,
    RotationData,
    moyal_bracket,
    moyal_product,
    nonresonance_margin,
    poisson_bracket,
)
from .traces import (
    forward_trace_expansion,
    GaussianBump,
    g_function,
    invert_trace_expansion,
    psi_kernel,
    TestFunctionJet,
    TraceExpansion,
)
from .words import (
    adjoint,
    apply_to_basis,
    commutator_over_ihbar,
    diagonal_to_normal_form,
    normal_form_to_word,
    normal_order_product,
    WordPoly,
)

__all__ = [
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
