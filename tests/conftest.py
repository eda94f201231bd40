import pytest

from oracles import arrays_to_traceset
from wifimob.experiments import prepare_experiment_data
from wifimob.synthgen import WorldSpec, generate_world, simulate_sensor_arrays

# the world every population-scale check runs against
DEFAULT_WORLD_SEED = 7


@pytest.fixture(scope="session")
def default_world():
    spec = WorldSpec(seed=DEFAULT_WORLD_SEED)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    return spec, gt, arrays


@pytest.fixture(scope="session")
def default_data(default_world):
    _, _, arrays = default_world
    return prepare_experiment_data(arrays)


@pytest.fixture(scope="session")
def small_world():
    spec = WorldSpec(seed=4, n_users=4, n_days=4)
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    return spec, gt, arrays, arrays_to_traceset(arrays)


@pytest.fixture(scope="session")
def long_world():
    spec = WorldSpec(
        seed=11,
        n_users=12,
        n_days=200,
        wifi_scan_period_s=60.0,
        routine_change_day=90,
    )
    gt = generate_world(spec)
    arrays = simulate_sensor_arrays(gt, spec)
    return spec, gt, arrays
