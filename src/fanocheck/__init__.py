"""fanocheck: exact invariants of smooth toric Fano polytopes and
verification of the weighted Betti / Chern number identity.

The public names are imported from their submodules on first access
(PEP 562), so importing the package, or one submodule of it, loads
nothing else.
"""

from importlib import import_module

# submodule -> the public names it defines
_PUBLIC = {
    "corpus": ("CorpusEntry", "PinnedValues", "dim2_corpus", "gen_direct_sum", "gen_pn"),
    "diamond": ("HodgeDiamond", "chi_p", "defect"),
    "files": (
        "DiamondFile",
        "dumps_diamond",
        "dumps_polytope",
        "loads_diamond",
        "loads_polytope",
        "read_diamond",
        "read_polytope",
        "write_diamond",
        "write_polytope",
    ),
    "identity": (
        "IdentityReport",
        "check_betti_chern",
        "chern_side",
        "chi_weighted_sum",
        "quarter_weighted_form",
        "toric_identity_report",
        "verify_chi_identity",
        "verify_face_count_identity",
        "weighted_betti_sum",
    ),
    "invariants": (
        "IntPolynomial",
        "ToricInvariants",
        "betti_numbers",
        "chern_numbers",
        "compute_invariants",
        "poincare_polynomial",
        "second_derivative_at_one",
        "toric_invariants",
    ),
    "lattice": (
        "Cone",
        "Face",
        "FaceLattice",
        "FanoPolytope",
        "Halfspace",
        "LatticePoint",
        "edge_interior_points",
        "face_lattice",
        "facet_enumeration",
        "is_reflexive",
        "is_smooth",
        "polar_dual",
        "reflexive_dual",
    ),
    "pipeline": (
        "CheckStatus",
        "EntryReport",
        "RunReport",
        "ToricAnalysis",
        "analyze",
        "check_diamond",
        "check_polytope",
        "run_batch",
        "run_check",
    ),
}
_SOURCE = {name: module for module, names in _PUBLIC.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    # Submodule names are not in the table, so `from fanocheck import
    # pipeline` falls through to importing the submodule.
    try:
        module = _SOURCE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
