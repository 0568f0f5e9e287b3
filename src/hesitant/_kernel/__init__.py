"""Kernel selection: compiled extension if available, pure Python otherwise.

`active` is the module the law engine uses for its integer-grid hot loop.
Set HESITANT_PURE=1 to force the pure implementation. The exact public API
(HFE and HFS algebra, relations, ranking) always uses the `pure` module
directly: its degrees are Python-int numerators over a common denominator,
which for non-decimal degrees can outgrow a C integer. The Fraction-scalar
`laws.algebra.EXACT` algebra uses `pure` too.
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
