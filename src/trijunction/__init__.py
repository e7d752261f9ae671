"""Numerical toolkit for planar triple-junction crack configurations:
Mumford-Shah energy, first/second shape variations, criticality and
strict-stability analysis, with finite-difference oracles for everything.
"""

from .errors import (TrijunctionError, GeometryError, ProjectionError,
                     ConfigError, MeshError, SolveError, AdmissibilityError)
from .curves import ParamCurve
from .diffeo import Diffeo
from .fields import VectorField, radial_bump, rk4_flow
from .config import (TripleJunctionConfig, disk_config, trilobe_config,
                     bent_arm_config, transported_config, save_config, load_config)
from .crackmesh import (CrackMesh, generate_crack_mesh, mark_admissible_subdomain,
                        DIRICHLET, NEU_OUTER)
from .fem import (CrackField, Operator, SectorConstants, solve_equilibrium,
                  solve_transported, solve_shape_derivative, solve_vphi,
                  refine_uniform, prolong,
                  assemble_boundary_load)
from .hspace import JunctionScalar, SmoothJunctionScalar, junction_basis, combine
from .variation import (VelocityPair, ms_energy, structure_function_f, f_sup_norm,
                        first_variation, second_variation, criticality_residual,
                        quadratic_form, second_variation_remainder,
                        normal_speed_scalar)
from .stability import (assemble_stability_problem, stability_verdict,
                        analyze_stability, oracle_1d, oracle_quadrature_value,
                        tubular_stability_check, necessity_probe,
                        coercivity_continuity_probe)
from .flows import (flow_from_field, build_test_field,
                    construct_connecting_family, verify_flow_estimates,
                    energy_at_map, energy_taylor_check, energy_comparison_sweep,
                    perturbation_catalog, c2_distance_on_crack)

__version__ = "0.1.0"
