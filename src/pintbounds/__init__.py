"""Two-level linear parallel-in-time convergence analysis.

Iteration operators and propagators for Parareal/MGRiT with F- and
FCF-relaxation, temporal approximation constants, block-Toeplitz symbol
bounds, structured pseudoinverses, tridiagonal spectra, and a
configuration-driven experiment harness validating bounds against observed
convergence at desk scale.
"""

from .operators import (SchemeSpec, SpatialOperator, Stepper, StepperPair,
                        build_spatial, build_stepper, make_pair, rk4_defect,
                        verify_pair)
from .spacetime import (GridSpec, PropagatorSet, SpaceTimeSystem,
                        apply_iteration, assemble_system, build_propagators,
                        operator_norm, schur_complement, ideal_transfer)
from .tap import (TapResult, itap_constant, min_phase_norm, stability_decay,
                  tap_constant, teap_constant)
from .toeplitz import (DiagBound, PinvSpec, SymbolFunction, TimeDepSpec,
                       build_symbol, diag_bounds, necessary_lower_bound,
                       pinv_a0, pinv_power, power_symbol, symbol_max_sv,
                       symbol_min_eig, timedep_exact_norm,
                       tridiag_perturbed_min_eig, tridiag_toeplitz_eigs)
from .tridiag import tridiag_min_eig
from .harness import (ExperimentConfig, ExperimentRecord, load_config,
                      report_emit, run_experiment, verify_suite)

__version__ = "0.1.0"
