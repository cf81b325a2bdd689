"""Desk-scale toolkit for light-cone geometry, causal lattice inverses,
scattering-style intertwiners and field-algebra state transport on 1+1d
cylinders.  Every structural law the package relies on is backed by an
executable residual check; see the suites module and the command line
runner for the batteries."""

from .lattice import SpacetimeGrid, make_grid, smooth_step
from .geometry import (ALIGNED, REVERSED, ChainObstruction, MetricField,
                       ParacausalChain, alpha_rescale, build_chain,
                       causal_future, closed_causal_exists, cone_inclusion,
                       cones_intersect_future, convex_combination,
                       metric_from_arcs, metric_preset, paracausal_witness,
                       preceq, sharp_interpolation, squeeze_metric,
                       tune_alpha)
from .greenhyp import (CFLError, GreenSystem, HyperbolicOperator, MarchError,
                       SymbolMismatch, UnstableMarch, axis_class,
                       build_operator, convex_operator, exactness_check,
                       green_adjoint_relation, propagator_symplectic_identity,
                       solve_cauchy, symmetrize, symplectic_form,
                       wave_operator)
from .moller import (MollerObstruction, MollerOperator, MollerStep,
                     build_rminus, build_rplus,
                     compose_chain, random_dictionary,
                     verify_intertwine, verify_moller_identities)
from .ccr import (AlgebraElement, FieldDictionary, MollerStarIsomorphism,
                  QuasifreeState, field, multiply,
                  pullback_state, quasifree_npoint, star_isomorphism,
                  state_eval, vacuum_state)
from .hadamard import (PullbackKernel, VacuumKernel, bisolution_check,
                       ccr_hypothesis_check, hadamard_verdict,
                       smoothness_proxy)

__version__ = "0.1.0"
