"""Kernel selection. The contract both kernels keep is stated once, in the
module docstring of `_pykernel`.

`compiled` is the hand-written C module `_ckernel.c`, built by `setup.py`
when a C compiler is present, or None; `pure` is `_pykernel`. `active` is
the compiled kernel if it imports and the pure one otherwise; set
HESITANT_PURE=1 to force the pure one. It is the kernel of the law engine's
randomized trials: `laws.algebra.grid_algebra` binds it as `kern`, and the
compiled law predicates call its functions directly.

`exact` is the kernel of every exact path: the HFE and HFS algebra,
relations, expressions, ranking, and law evaluation through
`laws.algebra.EXACT`. It is always `pure`, because those paths put degrees
on the lcm of arbitrary denominators, which can outgrow int64.
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
exact = pure

IMPLEMENTATION = active.IMPLEMENTATION
