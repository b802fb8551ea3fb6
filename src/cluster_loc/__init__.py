"""Exact computations in type-A cluster categories.

The arc model of the rank-n category is built as a mesh quotient of its
translation quiver, cross-checked at build time against the crossing rule
and an independent quiver-representation oracle.  On top of it: certified
triangle completions, rigid objects with their approximation theory, the
module category of the endomorphism algebra, and localized hom spaces with
zigzag evaluation.  ``cluster_loc.suites`` bundles the verification suites
behind the ``cluster-loc`` command line tool.
"""

from .arcs import Arc, crosses, enumerate_arcs, rotate
from .category import (BuildError, Category, InternalConsistencyError, Mor,
                       Obj, build_category)
from .linalg import Mat, Scalar, kernel_basis, rank, solve_right
from .localization import (LocHom, MorClassification, Zigzag, classify,
                           factor_through_s, loc_hom, s_resolution,
                           zigzag_equal, zigzag_eval)
from .modules import (Algebra, LambdaModule, ModuleHom, H_mor, H_obj,
                      end_algebra, enumerate_indec_modules,
                      lift_module_to_CT, module_hom_basis)
from .rigid import (RigidObject, in_CT, is_cluster_tilting, is_rigid,
                    perp_view, rigid_object, right_addT_approx,
                    wakamatsu_check)
from .suites import (InstanceConfig, export_dot, image_table, replay_failure,
                     run_suites)
from .triangles import (CertReport, Triangle, certify_triangle,
                        complete_triangle, cone_profile, mesh_map_into,
                        mesh_map_out_of)

__all__ = [n for n in dir() if not n.startswith("_")]
__version__ = "0.1.0"
