"""Desk-scale toolkit for light-cone geometry, causal lattice inverses,
scattering-style intertwiners and field-algebra state transport on 1+1d
cylinders.  Every structural law the package relies on is backed by an
executable residual check; see the suites module and the command line
runner for the batteries."""

from .lattice import (ScalarField, Section, SpacetimeGrid,
                      make_grid, smooth_step, weighted_inner_product)
from .geometry import (ALIGNED, REVERSED, ChainObstruction, MetricField,
                       ParacausalChain, alpha_rescale, build_chain,
                       causal_future, classify_vector, closed_causal_exists,
                       cone_inclusion, cones_intersect_future,
                       convex_combination, inverse_metric, metric_from_arcs,
                       metric_preset, musical_flat, musical_sharp,
                       paracausal_witness, preceq, sharp_interpolation,
                       squeeze_metric, tune_alpha)
from .greenhyp import (CFLError, GreenSystem, HyperbolicOperator, MarchError,
                       SymbolMismatch, UnstableMarch, axis_class,
                       build_operator, convex_operator, exactness_check,
                       green_adjoint_relation, propagator_symplectic_identity,
                       solve_cauchy, symmetrize, symplectic_form,
                       wave_operator)
from .moller import (MollerObstruction, MollerOperator, MollerStep,
                     build_inverses, build_rminus, build_rplus,
                     compose_chain, random_dictionary, restrict_to_solutions,
                     verify_adjoint_laws, verify_intertwine,
                     verify_moller_identities)
from .ccr import (AlgebraElement, FieldDictionary, MollerStarIsomorphism,
                  QuasifreeState, field, multiply, on_shell_reduce,
                  pullback_state, quasifree_npoint, star_isomorphism,
                  state_eval, vacuum_state)
from .hadamard import (PullbackKernel, SmoothnessReport, VacuumKernel,
                       bisolution_check, ccr_hypothesis_check,
                       hadamard_verdict, pullback_kernel, smoothness_proxy,
                       ultrastatic_vacuum)

__version__ = "0.1.0"
