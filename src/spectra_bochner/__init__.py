"""Numerics for tensor-coefficient elliptic operators on compact manifolds.

Modules:
  geometry     charts, curvature, covariant derivatives, analytic builders
  hypersurface immersions, shape operators, Newton transformation, pinching
  boxop        the operator box(f) = sum phi_ij f_ij and its Bochner identity
  discretize   meshes/grids and piecewise-linear assembly of the weak form
  spectral     first nonzero eigenvalue; closed-form sphere spectra
  bounds       closed-form eigenvalue lower bounds and verdict reports
  harness      property-test oracles and named verification suites
  cli          `spectra-bochner` command line entry point
"""

__version__ = "0.1.0"
