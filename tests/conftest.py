import os
import random
import subprocess
import sys

import pytest

import heq
from heq.psl2 import MAT_A, MAT_B, ProjMat2
from heq.equations import HContext

# Fixed seed for the randomized property suites; override with HEQ_SEED.
SEED = int(os.environ.get("HEQ_SEED", "20250810"))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


def run_python(code: str, *flags: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports this same heq."""
    src = os.path.dirname(os.path.dirname(heq.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *flags, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=60)


def random_matrix(rng: random.Random, max_len: int = 12) -> ProjMat2:
    """Random element of PSL2(Z) as a product of generator letters."""
    m = ProjMat2(1, 0, 0, 1)
    for _ in range(rng.randrange(max_len + 1)):
        m = m * rng.choice([MAT_A, MAT_B, MAT_B * MAT_B])
    return m


@pytest.fixture
def h1() -> ProjMat2:
    return ProjMat2(2, -1, -1, 1)


@pytest.fixture
def h2() -> ProjMat2:
    return ProjMat2(2, -5, 1, -2)


@pytest.fixture
def ctx_43(h1, h2) -> HContext:
    """Inputs of the first worked example: g = [[5,3],[3,2]]."""
    return HContext.from_matrices([h1, h2], ProjMat2(5, 3, 3, 2))


@pytest.fixture
def ctx_44(h1, h2) -> HContext:
    """Inputs of the second worked example: g = [[1,0],[-2,1]]."""
    return HContext.from_matrices([h1, h2], ProjMat2(1, 0, -2, 1))
