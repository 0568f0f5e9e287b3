"""Build script: compiles the optional integer-kernel extension.

The package is fully functional without the extension (a pure-Python kernel is
selected at import time); building it just makes the law suite much faster.
The extension is the hand-written C module `_ckernel.c`, which needs only a C
compiler and the Python headers. It is optional: when it does not compile (no
C compiler, say), the build warns and the package keeps the pure kernel.
Set HESITANT_PURE=1 to skip compilation entirely.
"""

import os

from setuptools import Extension, setup

ext_modules = []
if os.environ.get("HESITANT_PURE") != "1":
    ext_modules = [
        Extension(
            "hesitant._kernel._ckernel",
            sources=["src/hesitant/_kernel/_ckernel.c"],
            optional=True,
        )
    ]

setup(ext_modules=ext_modules)
