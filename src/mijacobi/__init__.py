"""Exact engine for multi-indexed Jacobi polynomials.

Builds eigenstates and seed solutions of the trigonometric double-singular
well as quasi-polynomials in eta = cos(2x), takes exact Wronskians, encodes
state tuples as pairs of Maya diagrams with divisions, reduces any tuple to a
two-family normal form with a verified shift/prefactor ledger, and checks
deformed spectra.  All arithmetic is exact over Q, with the parameters (g, h)
kept symbolic wherever feasible.

It exports the paper's objects (states, tuples, Wronskians, Maya diagrams
and ledgers, the deformed spectrum), what the CLI calls (parsing, the
verifiers, rendering, errors) and what the benchmark calls; oracles stay in
their submodules.
"""

from .algebra import (
    AffineExp,
    EtaPoly,
    ParamPoly,
    ParamRat,
    ZeroPolynomialError,
)
from .states import (
    DEFAULT_GENERIC_POINT,
    DuplicateStatesError,
    NonGenericParametersError,
    QuasiPoly,
    State,
    StateTuple,
    StateType,
    as_state_tuple,
    eigenvalue,
    is_generic,
    jacobi_poly,
    make_state,
    pairing,
    parse_state,
    require_generic,
)
from .wronskian import WronskianZeroError, wronskian
from .maya import (
    DiagramPair,
    Ledger,
    MayaDiagram,
    ProportionalityReport,
    ReductionTarget,
    canonical_form,
    dbar,
    diagrams_to_tuple,
    move_division,
    reduce_tuple,
    render_diagram,
    tuple_to_diagrams,
    verify_move_identity,
    verify_reduction,
)
from .spectral import (
    QuasiRat,
    SpectrumLabel,
    apply_hamiltonian,
    check_nonsingular,
    deformed_potential,
    extra_eigenstate,
    permitted_spectrum,
    potential,
    verify_eigenfunction,
    verify_spectrum,
)

__version__ = "0.1.0"
