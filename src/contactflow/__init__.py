"""Characteristic-strip engine for contact Hamilton-Jacobi hypersurfaces.

A hypersurface E in the space of contact elements over a line or circle
bundle U -> M is integrated by the method of characteristics; on top of the
strip integrator sit Legendre front propagation with caustic detection,
Noether checks, gauge transformations, wave diagrams with Legendre duality,
principal-symbol asymptotics, and phase-space holonomy.
"""

from .bundle import (ConnectionData, DiagramPoint, RelativisticScenario,
                     WaveDiagram, classify_characteristic,
                     constant_field_potential, hausdorff_distance,
                     legendre_dual, lorentzian_metric, null_norm, ray_alpha,
                     relativistic_scenario, strip_in_gauge, wave_diagram)
from .charts import Chart, PolyField, ScalarField, VectorField, random_polynomial
from .errors import (ConfigError, ContactFlowError,
                     ContractViolation, CrossingError, DataQualityError,
                     DegeneracyError, EmptyDiagramError, FitQualityError,
                     InternalConsistencyError, NoLiftError)
from .fronts import (CausticEvent, FrontHistory, FrontSpec, Lift, circle_front,
                     flat_front, front_action_function, legendre_lift,
                     propagate_front)
from .noether import (SymmetryField, check_symmetry, conservation_drift,
                      conservation_series, gauge_shifted_symmetry, symmetry_residual)
from .operators import (LinearDiffOperator, PrincipalSymbol, ScalingReport,
                        eikonal_residual, equivariant_reduce, fit_quadratic_phase,
                        oscillatory_coefficients, poly_phase, schrodinger_operator,
                        symbol_scaling_check)
from .phase import PhasePoint, SectionSpec, holonomy, square_loop, to_phase
from .scenarios import Scenario, builtin
from .strips import (BatchItem, CharacteristicState, IntegratorConfig,
                     Strip, SymbolSurface, action_increment, batch_propagate,
                     propagate, sample_onshell)

__version__ = "0.1.0"

#: names of the expression layer, which imports sympy and so loads on first use
_EXPRS_NAMES = ("connection_components", "momentum_names", "scalar_field", "symbol_surface")


def __getattr__(name):
    if name in _EXPRS_NAMES:
        from . import exprs
        return getattr(exprs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
