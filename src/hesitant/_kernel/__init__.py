"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled extension is the hand-written C module `_ckernel.c`, built by
`setup.py` when a C compiler is present; it exports exactly the public names
of `_pykernel`, its pure-Python twin.

Both kernels take int numerators over a common denominator. `active` is the
module of the law engine's randomized trials: `laws.algebra.grid_algebra`
binds it as `kern`, and the compiled law predicates call its functions
directly. Set HESITANT_PURE=1 to force the pure implementation. Every exact
path (HFE and HFS algebra, relations, ranking, and law evaluation through
`laws.algebra.EXACT`) uses the `pure` module: the lcm of arbitrary degrees'
denominators can outgrow a C integer.
"""

import os

from . import _pykernel as pure

compiled = None
if os.environ.get("HESITANT_PURE") != "1":
    try:
        from . import _ckernel as compiled  # type: ignore[no-redef]
    except ImportError:
        compiled = None

active = compiled if compiled is not None else pure

IMPLEMENTATION = active.IMPLEMENTATION
