"""The committed `_ckernel.c` must be generated from the committed `.pyx`.

Without Cython, `setup.py` compiles `_ckernel.c` directly, so an edit to
`_ckernel.pyx` that is not followed by regenerating the C file would ship a
stale kernel. After editing the `.pyx`, regenerate the C file
(`cython -3 src/hesitant/_kernel/_ckernel.pyx`) and update the digest here.
"""

import hashlib
from pathlib import Path

KERNEL = Path(__file__).resolve().parent.parent / "src" / "hesitant" / "_kernel"

PYX_SHA256 = "4fd46f49338e4273486cf3e8fc2a554df117b3259c9e137e1d91c8147db306b8"


def test_ckernel_c_generated_from_current_pyx():
    digest = hashlib.sha256((KERNEL / "_ckernel.pyx").read_bytes()).hexdigest()
    assert digest == PYX_SHA256, (
        "_ckernel.pyx changed: regenerate _ckernel.c with Cython, then update PYX_SHA256"
    )
