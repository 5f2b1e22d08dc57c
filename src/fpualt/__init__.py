"""Alternating-mass FPU chains: construction, symmetry reduction,
normal-mode coupling analysis, and interaction experiments."""

__version__ = "0.1.0"

from .chain import (ChainParams, FullChainSystem, FullState, alternating_masses,
                    build_chain, embed_chain, embed_state, eval_accel_full,
                    hamiltonian, linear_spectrum_full, total_momentum)
from .reduction import (ReducedState, ReducedSystem, build_reduced,
                        eval_accel_reduced, lift_symmetric, reduced_energy,
                        symmetry_residual, uniform_tension_points)
from .spectral import (DegenerateSpectrumError, ModalBasis, ModeLabel,
                       QuasiHarmonicSystem, eigendecompose, eval_qh_rhs,
                       load_system, pair_eigenvalues, save_system,
                       to_quasi_harmonic)
from .coupling import (CycleDecomposition, InvariantCandidate,
                       PatternViolationError, ScalingFit, SquareMap,
                       check_invariance, cycle_decomposition,
                       enumerate_invariant_candidates, excitation_digraph,
                       extract_subsystem, jan_check, map_reference_state,
                       map_to_reference_frame, scaling_equivalence, square_map)
from .dynamics import (ClosedFormResponse, EquilibriumReport,
                       IntegratorConfig, ModeActionSeries, Trajectory,
                       cartoon_system, classify_equilibrium, energy_drift,
                       find_equilibria, first_order_response, integrate,
                       mode_actions)
from .refdata import REFERENCE_TABLES, load_reference, reference_for
from .scenarios import (Scenario, ScenarioError, SweepReport, analysis_report,
                        equilibria_report, parse_scenario, run_scenario,
                        sweep_odd_p, sweep_report_text)
