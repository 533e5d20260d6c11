import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from admpoisson.search import adm_catalog_indices, decode_mul


@pytest.fixture(scope="session")
def catalog_gf5():
    """Encodings of every dim-2 GF(5) admissible-Poisson multiplication."""
    return list(adm_catalog_indices(2, 5))


@pytest.fixture(scope="session")
def catalog_muls(catalog_gf5):
    return [decode_mul(idx, 2, 5) for idx in catalog_gf5]
