"""Exact normal forms and integrability certificates for commuting
diffeomorphism germs over Q(i)."""

__version__ = "0.1.0"

from .exactnum import (
    DomainError,
    GaussianRational,
    GaussianFactorization,
    IndeterminateError,
    LogModulusVector,
    TurnSum,
    certified_round_to_integer,
    factor_gaussian,
    log_modulus,
    principal_arg_turns,
)
from .series import MultiIndex, TruncatedSeries, UsageError
from .germ import (
    CommutationError,
    Family,
    Germ,
    commutativity_defect,
    compose_germ,
    conjugate,
    family_from_json,
    family_to_json,
    invert_germ,
)
from .resonance import (
    EigenContext,
    EigenData,
    OmegaEnumeration,
    RelationLattice,
    ResonantSet,
    enumerate_omega,
    relation_lattice,
    resonant_set,
    vect_omega_rank,
)

__all__ = [name for name in dir() if not name.startswith("_")]
