"""Restricted root systems, Cartan projections, exact properness criteria,
sl(2,R)-homomorphism analysis and bending certificates for sl(n,R) and
su(p,q)."""

from .algebra import (LieAlgebraSpace, SubspaceOfG, bracket, cartan_involution,
                      adjoint_operator, centralizer, generated_subalgebra, make_algebra)
from .bending import (BendingPlan, SurfaceGroupRep, bend, bending_inequalities,
                      build_plan, density_certificate, fixed_weight_zero_vector,
                      fuchsian_generators)
from .projections import lyapunov, mu
from .properness import (HSubalgebraTorus, benoist_certificate, benoist_criterion,
                         calabi_markus, in_weyl_orbit_of_subspace, sl2_action_proper)
from .report import VERSION as __version__
from .sl2 import (IsotypicData, Sl2Triple, g_even, genus_bound, is_even,
                  module_multiplicities, property_star_basis, rho1_su, rho2_su,
                  sigma, sl2_from_partition)
from .weyl import SplitTorusData, WeylElement, split_torus, torus_vector
