"""Average exponent of elliptic-curve point groups over prime fields.

Per-prime invariant factors (d, e) with E(F_p) = Z/d x Z/e, division-degree
models for the limit constant, and a prime-sweep harness that checks the
empirical average exponent against half the constant times x.
"""

from .constants import (ConstantEstimate, DegreeModel, MissingDegree,
                        NotMultiplicative, constant_euler, constant_series,
                        degree, estimate_degrees, euler_phi, gl2_order, li,
                        load_overrides, mobius_coeff, mobius_identity_check)
from .counting import (AmbiguityExhausted, TraceResult, order_bsgs, trace,
                       trace_naive)
from .curve import (BadReduction, GlobalCurve, INFINITY, Point, ReducedCurve,
                    add, is_on_curve, neg, random_point, reduce_curve,
                    scalar_mul)
from .harness import (CacheMismatch, CheckpointRow, CorruptCache,
                      ExperimentConfig, ExperimentResult,
                      InsufficientCheckpoints, PRESETS, PrimeRecord,
                      cache_load, cache_store, error_trend, pi_E_table,
                      run_experiment)
from .modarith import (NotASquare, factorize, is_prime, legendre, sieve_primes,
                       sqrt_mod)
from .structure import (GroupStructure, NotAnnihilated, StructureUnverified,
                        exponent_sampling, group_structure,
                        has_full_two_torsion, structure_bruteforce)

__version__ = "0.1.0"
