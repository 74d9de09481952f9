"""gapeig: discrete eigenvalues of perturbed periodic Schrodinger operators.

Computes spectra of H = -Laplacian + V_per + W where V_per is periodic and W
is a localized perturbation.  Three discretizations are provided: a truncated
domain P1 finite element method (which pollutes spectral gaps with spurious
eigenvalues), a planewave supercell method (pollution-free), and a projector
augmented finite element method (pollution-free), together with diagnostics
that detect and classify spurious modes.

Importing the package loads no module but errors: import the ones you use
(from gapeig import bloch).  Every module needs numpy alone at import.
The P1 pencils of fem1d and augment are solved by LAPACK routines that
gapeig.lapack loads on first use from scipy's compiled LAPACK wrappers,
scipy.linalg._flapack, without importing any scipy package.
"""

from gapeig.errors import (
    BasisTooLarge,
    ConfigError,
    GapeigError,
    InvalidMatrix,
    MeshOffsetError,
    NoGap,
    NotConverged,
    PencilNotDefinite,
    QGridAsymmetric,
    ResolutionError,
    WindowTooSmall,
)

__version__ = "0.1.0"

__all__ = [
    "model",
    "eigcore",
    "bloch",
    "supercell",
    "fem1d",
    "augment",
    "GapeigError",
    "InvalidMatrix",
    "PencilNotDefinite",
    "ResolutionError",
    "BasisTooLarge",
    "NoGap",
    "NotConverged",
    "MeshOffsetError",
    "QGridAsymmetric",
    "WindowTooSmall",
    "ConfigError",
    "__version__",
]
