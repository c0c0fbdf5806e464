"""modskein: exact modified skein algebras of surfaces for ribbon Hopf algebras.

The engine evaluates colored ribbon graphs in the thickened disk, resolves
coend-colored (red) strands into module-colored (blue) ones, and computes the
skein algebra of a punctured surface as the invariant subalgebra of a tensor
power of the coend, all in exact cyclotomic arithmetic.
"""

__version__ = "0.1.0"

from .cyclo import CycField, CycNum, ExactMatrix

__all__ = [
    "__version__",
    "CycField",
    "CycNum",
    "ExactMatrix",
    "HopfBundle",
    "Rep",
    "validate_bundle",
    "Diagram",
    "evaluate",
    "slf_basis",
    "qchar",
    "red_to_blue",
    "skalg",
    "char_map",
]

from .hopf import HopfBundle, Rep, validate_bundle
from .rt import Diagram, evaluate
from .coend import slf_basis, qchar, red_to_blue
from .surface import skalg, char_map
