"""The hand-written `_ckernel.c` must build warning-free.

The `ckernel_build` fixture (see `conftest.py`) compiles it with
`gcc -O2 -Wall -Werror` into a temporary directory. This is the warning gate:
CI builds the kernel it tests through `setup.py`, whose flags do not fail on
a warning. It skips where gcc or `Python.h` is missing.
"""


def test_ckernel_c_builds_without_warnings(ckernel_build):
    proc, path = ckernel_build
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert path.is_file()
