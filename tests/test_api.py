"""The package's public names and declared dependencies."""

import ast
import re
import sys
from pathlib import Path

import pytest

import orbitbnf

ROOT = Path(__file__).resolve().parent.parent

PUBLIC = [
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


def test_public_names_are_pinned_and_resolve():
    assert orbitbnf.__all__ == PUBLIC
    missing = [name for name in PUBLIC if not hasattr(orbitbnf, name)]
    assert not missing


def test_every_third_party_import_is_a_declared_dependency():
    """Imports inside functions count: a lazy import is still a requirement."""
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    imported = set()
    for path in (ROOT / "src" / "orbitbnf").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"orbitbnf"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
        for req in project["dependencies"]
    }
    assert {"numpy", "scipy"} <= third_party
    assert third_party <= declared, sorted(third_party - declared)
