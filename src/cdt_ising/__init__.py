"""Ising models on random infinite Lorentzian (causal dynamical) triangulations.

The package is organized around the tree codec of cylinder triangulations:

* ``branching``: the critical Geom(1/2) process, its exact laws, and the
  spine sampler for the version conditioned to survive.
* ``triangulation``: the forest <-> triangulation bijection, degrees, dual
  graphs, exhaustive enumeration with Gibbs weights, and a text format.
* ``ising``: exact Gibbs distributions on small instances, heat-bath
  dynamics, and seeded magnetization estimates under +- boundaries.
* ``contours``: winding dual cycles, the contour series, spin inversion.
* ``percolation``: degree-dependent site percolation and locally geodesic
  path machinery.
* ``surgery``: triangle-pair insertions, collapses, path-neighborhood
  modifications, and randomized reconstruction.
* ``cli``: seeded batch experiments emitting CSV/JSON reports.
"""

from .branching import (
    FiniteTree,
    LevelForest,
    SpineForest,
    level_size_pmf,
    offspring_pmf,
    psi_n,
    sample_spine_forest,
    size_biased_pmf,
)
from .contours import (
    Contour,
    ContourSet,
    enumerate_contours,
    flip_inside,
    peierls_series,
    survivors_statistic,
)
from .ising import (
    SpinState,
    conditional_spin_prob,
    energy,
    gibbs_exact,
    glauber_sweep,
    root_plus_probability,
)
from .percolation import (
    OpenSet,
    annealed_reach_probability,
    count_salg_paths,
    exact_reach_probability,
    is_locally_geodesic,
    max_open_reach,
    open_probability,
    sample_open_set,
)
from .rng import stream
from .surgery import (
    Insertion,
    PathNeighborhood,
    apply_modification,
    collapse_horizontal_edge,
    insert_pairs,
    insertion_sites,
    path_neighborhood,
    randomized_reconstruction,
)
from .triangulation import (
    MU_CRITICAL,
    Triangulation,
    enumerate_triangulations,
    forest_to_triangulation,
    from_text,
    to_text,
    triangulation_to_forest,
)

__version__ = "0.1.0"
