"""Vectorized hot-path kernels: each solver runs one kernel.

TAXI's X-bar Ising macros evaluate every candidate move of a visiting
order in parallel; this package mirrors that algorithmically for the
software solvers.  Each solver runs one vectorized kernel, with no
option to pick another:

* :mod:`~repro.kernels.macro` — bulk-RNG macro sweeps that pad the
  chunks of a whole hierarchy level, of any shapes, into one ragged
  batch.  The sweeps run in C (:mod:`repro.kernels.compiled` builds
  ``_sweep.c`` with the system C compiler at first use), bit-identical
  to their NumPy loop, which runs under read noise or when no compiler
  is available.  The same library holds Ward clustering's exact
  nearest-neighbour chain (``_ward.c``), bit-identical to the NumPy
  chain in :mod:`repro.clustering.agglomerative`.
* :mod:`~repro.kernels.spin` — checkerboard (colour-class) Metropolis
  updates;
* :mod:`~repro.kernels.twoopt` — batched 2-opt delta blocks for
  simulated annealing on tours;
* :mod:`~repro.kernels.neighbor` — per-city vectorized neighbour-list
  2-opt/Or-opt.

The scalar loops these kernels replaced stay where the input calls for
them or a bit-exact test compares against them, and only there: the
spin kernels run the per-spin loop on dense coupling graphs (where
colouring cannot batch), simulated annealing on tours runs the
per-proposal loop without a distance matrix or above
:data:`~repro.kernels.twoopt.FAST_MATRIX_LIMIT` cities, and
:class:`~repro.kernels.neighbor.NeighborKernelParity` checks the
neighbour-list kernel against its scalar passes.  Every fallback the
code picks is bit-exact with the vectorized kernel it stands in for.
"""
