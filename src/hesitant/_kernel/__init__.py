"""Kernel selection: compiled extension if available, pure Python otherwise.

The compiled extension is the hand-written C module `_ckernel.c`, built by
`setup.py` when a C compiler is present. It defines the relation codes and
the three entries the law engine calls: `u_rel`, `term` and `draw_plan`.
`_pykernel`, its pure-Python twin, adds the exact algebra's `u_union`,
`u_inter` and `u_compl`.

Both kernels take int numerators over a common denominator. `draw_plan`
takes its seven bounds (grid, then the universe size, cardinality and family
size ranges) only in the draw domain of the paper's non-empty objects: a
grid den >= 1 and 1 <= lo <= hi for each range, as `GeneratorConfig`
enforces. Both kernels raise ValueError for bounds outside it, at every
count, OverflowError for one outside int64 and TypeError for one that is not
an int. `active` is the module of the law engine's randomized trials:
`laws.algebra.grid_algebra` binds it as `kern`, and the compiled law
predicates call its functions directly. Set HESITANT_PURE=1 to force the
pure implementation. Every exact path (HFE and HFS algebra, relations,
ranking, and law evaluation through `laws.algebra.EXACT`) uses the `pure`
module: the lcm of arbitrary degrees' denominators can outgrow a C integer.
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
