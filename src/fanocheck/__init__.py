"""fanocheck: exact invariants of smooth toric Fano polytopes and
verification of the weighted Betti / Chern number identity."""

from .corpus import CorpusEntry, PinnedValues, dim2_corpus, gen_direct_sum, gen_pn
from .diamond import HodgeDiamond, chi_p, defect
from .files import (
    DiamondFile,
    dumps_diamond,
    dumps_polytope,
    loads_diamond,
    loads_polytope,
    read_diamond,
    read_polytope,
    write_diamond,
    write_polytope,
)
from .identity import (
    IdentityReport,
    check_betti_chern,
    chern_side,
    chi_weighted_sum,
    quarter_weighted_form,
    toric_identity_report,
    verify_chi_identity,
    verify_face_count_identity,
    weighted_betti_sum,
)
from .invariants import (
    IntPolynomial,
    ToricInvariants,
    betti_numbers,
    chern_numbers,
    compute_invariants,
    poincare_polynomial,
    second_derivative_at_one,
    toric_invariants,
)
from .lattice import (
    Cone,
    Face,
    FaceLattice,
    FanoPolytope,
    Halfspace,
    LatticePoint,
    edge_interior_points,
    face_lattice,
    facet_cones,
    facet_enumeration,
    facet_incidences,
    is_reflexive,
    is_smooth,
    polar_dual,
    reflexive_dual,
)
from .pipeline import (
    CheckStatus,
    EntryReport,
    RunReport,
    ToricAnalysis,
    analyze,
    check_diamond,
    check_polytope,
    run_batch,
    run_check,
)

__version__ = "0.1.0"
