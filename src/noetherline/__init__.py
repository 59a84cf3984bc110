"""Exact-arithmetic models of canonical threefolds on the Noether line.

A pair of integers (d, d0) selects a P(1,1,2,5)-bundle over the projective
line; a general divisor of relative degree ten inside it is a threefold
fibred in surfaces with p_g = 2, K^2 = 1.  This package classifies the
singularities of the general member, computes its birational invariants
(which satisfy K^3 = (4 p_g - 10)/3 exactly), analyses the flips of the
handful of models whose canonical class fails to be nef, and provides the
degree-level bundle arithmetic over bases of any genus.  All computations
are exact: integers and rationals only.
"""

# Each module's public names, re-exported; then the package attribute
# `invariants` is the module again, not the function of that name.
from .bundles import *
from .invariants import *
from .linear_system import *
from .singularities import *
from .toric import *
del invariants
from . import bundles, invariants, linear_system, singularities, toric

__all__ = [
    name
    for module in (toric, linear_system, singularities, invariants, bundles)
    for name in module.__all__
]
