"""Build script: compiles the optional integer-kernel extension.

The package is fully functional without the extension (a pure-Python kernel is
selected at import time); building it just makes the law suite much faster.
With Cython installed the extension is compiled from `_ckernel.pyx`. Without
it, the committed `_ckernel.c` is compiled instead (`tests/test_build.py` ties
it to the `.pyx` it was generated from), as an optional extension: when it
does not compile (no C compiler, say), the build warns and the package keeps
the pure kernel.
Set HESITANT_PURE=1 to skip compilation entirely.
"""

import os

from setuptools import Extension, setup

KERNEL = "src/hesitant/_kernel/_ckernel"

ext_modules = []
if os.environ.get("HESITANT_PURE") != "1":
    try:
        from Cython.Build import cythonize
    except ImportError:
        ext_modules = [Extension("hesitant._kernel._ckernel", sources=[KERNEL + ".c"], optional=True)]
    else:
        ext_modules = cythonize(
            [Extension("hesitant._kernel._ckernel", sources=[KERNEL + ".pyx"])],
            compiler_directives={"language_level": "3"},
        )

setup(ext_modules=ext_modules)
