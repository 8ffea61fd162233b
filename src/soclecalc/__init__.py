"""Exact-arithmetic socle intersection numbers on moduli of curves.

Everything is computed over arbitrary-precision rationals; the package
doubles as a mechanical verifier for the identities connecting the
closed product formula, ramification-cycle integrals, necklace graph
sums and quasimodular forms.
"""

from .drcycle import *
from .elliptic import *
from .exact import *
from .modfit import *
from .qseries import *
from .report import *
from .socle import *

__version__ = "0.1.0"
