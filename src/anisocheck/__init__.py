"""anisocheck: desk-scale numerical checks for anisotropic minimal hypersurfaces.

Subpackages cover direction-dependent integrands, sampled hypersurface
charts, first/second variation with finite-difference oracles, brute-force
inequality sweeps, the inverse-distance conformal deformation, warped
bubble models on rotationally symmetric 3-manifolds, and the explicit
constants table, all driven by a JSON-job CLI (``anisocheck --help``).

Importing the package loads numpy only: scipy and mpmath are imported
inside the few functions that use them (the sparse eigensolve, the 1D
Sturm solve, the extended-precision constants).
"""

__version__ = "0.1.0"
