import importlib.util
import itertools
import shutil
import subprocess
import sysconfig
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from hesitant import HFE, HFS, Universe

settings.register_profile(
    "default",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


# degree strategies on the 0.01 grid (exact Fractions)
grid_degrees = st.integers(min_value=0, max_value=100).map(lambda k: Fraction(k, 100))


# membership lists as a document carries them: plain decimal strings (the
# forms save_document writes), or anything else JSON can hold
plain_degree_texts = st.one_of(
    st.sampled_from(["0", "1", "0.5", "1.0", "1.000000000", "0.000000001"]),
    st.text("0123456789", min_size=1, max_size=9).map(lambda digits: "0." + digits),
    st.integers(1, 9).map(lambda zeros: "1." + "0" * zeros),
)
degree_texts = st.one_of(
    plain_degree_texts,
    st.sampled_from([" 0.5", "0.5 ", "\t1\n", "00.5", "01", "0.1234567890", "1.0000000000", "1.000000001",
                     "\u0663", "", ".5", "5.", "0.", "2", "+0.5", "0,5", "0.5,0.3", "0.5\x000.3", "1,0"]),
    st.text("01.,5 \x00\u0663", max_size=12),
    st.integers(-2, 2), st.booleans(), st.none(), st.floats(0, 1),
)
degree_lists = st.one_of(
    st.lists(plain_degree_texts, min_size=1, max_size=6),
    st.lists(degree_texts, min_size=1, max_size=6),
)


@st.composite
def hfes(draw, max_size=6, degrees=grid_degrees):
    values = draw(st.lists(degrees, min_size=1, max_size=max_size))
    return HFE(values)


@st.composite
def hfs_pairs(draw, universe_sizes=(1, 3), max_card=5):
    size = draw(st.integers(*universe_sizes))
    uni = Universe([f"x{i}" for i in range(1, size + 1)])
    make = lambda: {e: draw(hfes(max_size=max_card)) for e in uni}  # noqa: E731
    return HFS(uni, make()), HFS(uni, make())


def all_small_hfes(denominator=2, max_card=3):
    """Every canonical HFE with degrees on {0, 1/d, ..., 1} and cardinality
    <= max_card. For d=2, card<=3 this is 19 elements."""
    values = [Fraction(k, denominator) for k in range(denominator + 1)]
    out = []
    for k in range(1, max_card + 1):
        for combo in itertools.combinations_with_replacement(values, k):
            out.append(HFE(combo))
    return out


@pytest.fixture(scope="session")
def small_hfes():
    return all_small_hfes()


KERNEL_C = Path(__file__).resolve().parent.parent / "src" / "hesitant" / "_kernel" / "_ckernel.c"


@pytest.fixture(scope="session")
def ckernel_build(tmp_path_factory):
    """`_ckernel.c` compiled with `gcc -O2 -Wall -Werror` into a temporary
    directory: (the finished gcc process, the path of the module).

    The module is never written under `src/`, where it would become the
    active kernel. Skips where gcc or `Python.h` is missing."""
    include = sysconfig.get_paths()
    if shutil.which("gcc") is None or not Path(include["include"], "Python.h").is_file():
        pytest.skip("gcc or Python.h not available")
    out = tmp_path_factory.mktemp("ckernel") / ("_ckernel" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = ["gcc", "-O2", "-Wall", "-Werror", "-shared", "-fPIC"]
    cmd += ["-I" + include["include"], "-I" + include["platinclude"], str(KERNEL_C), "-o", str(out)]
    return subprocess.run(cmd, capture_output=True, text=True), out


@pytest.fixture(scope="session")
def compiled(request):
    """The compiled kernel: the built extension when it imports, otherwise
    the `ckernel_build` of `_ckernel.c`, imported without registering it in
    `sys.modules` (the package's `active` kernel stays what it was)."""
    from hesitant._kernel import compiled as installed

    if installed is not None:
        return installed
    proc, path = request.getfixturevalue("ckernel_build")
    if proc.returncode != 0:
        pytest.fail("_ckernel.c does not build:\n" + proc.stderr)
    spec = importlib.util.spec_from_file_location("hesitant._kernel._ckernel", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
