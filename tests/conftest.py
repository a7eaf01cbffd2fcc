import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from margsyn.dataset import Dataset, Schema
from margsyn.marginals import compute_marginal

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture
def two_binary_rows():
    """Rows {(0,0),(0,1),(1,1),(1,1)} over one binary feature plus label."""
    schema = Schema(("a", "label"), (2, 2))
    return Dataset(schema, np.array([[0, 0], [0, 1], [1, 1], [1, 1]]))


@pytest.fixture
def three_binary_schema():
    return Schema(("a", "b", "c", "label"), (2, 2, 2, 2))


def random_dataset(schema: Schema, n: int, seed: int) -> Dataset:
    rng = np.random.default_rng(seed)
    codes = np.column_stack([rng.integers(0, s, size=n) for s in schema.sizes])
    return Dataset(schema, codes)


def dense_marginal_matrix(schema: Schema, queries) -> np.ndarray:
    """A as a dense matrix: column c is the marginal vector of the one-row dataset in cell c."""
    sizes = schema.sizes
    cells = np.stack(np.unravel_index(np.arange(int(np.prod(sizes))), sizes), axis=1)
    return np.column_stack([
        np.concatenate([compute_marginal(Dataset(schema, row[None, :]), q).counts for q in queries])
        for row in cells])
