"""Numerical toolkit for the half-Laplacian Liouville equation on the line,
its circle pullback with a point defect at -i, holomorphic disk maps built
from boundary data, and the curve-topology machinery (rotation index, words
of Blank, Seifert splitting) behind curvature-quantization checks.

Hot kernels (segment intersection by a sort-and-sweep broadphase on
x-intervals, winding counts) have one numpy implementation each; the
package reads no environment variables.
"""

__version__ = "0.1.0"

from .spectral import (  # noqa: F401
    PeriodicGrid,
    SingularField,
    SpectralRep,
    analyze,
    grid_angles,
    half_laplacian,
    hilbert,
    poisson_extend,
    singular_half_laplacian,
)
from .line import (  # noqa: F401
    CurvatureData,
    LineField,
    asymptotic_slope,
    pull_back,
    stereo_inverse,
    stereo_project,
    transfer_equation,
)
from .disk import (  # noqa: F401
    BoundaryTrace,
    DiskMap,
    analytic_completion,
    boundary_curvature,
    boundary_polyline,
    build_phi,
    conformal_distance,
    curvature_mass,
    mobius_recenter,
)
from .curves import (  # noqa: F401
    PolyCurve,
    jitter,
    rotation_index,
    self_intersections,
)
from .arrangement import Arrangement, build_arrangement  # noqa: F401
from .blank import (  # noqa: F401
    BlankWord,
    blank_word,
    contract,
    extendability_check,
    seifert_decompose,
)
from .quant import (  # noqa: F401
    Bubble,
    bubble,
    classify_case,
    concentration_scan,
    detect_blowup,
    lambda_audit,
    pinching_probe,
    verify_solution,
)
