"""WiFi access-point geolocation and mobility reconstruction toolkit."""

from .trace_model import (
    BssidId,
    GeoPoint,
    SensorArrays,
    TimestampMs,
    UserId,
    ingest_arrays,
    normalize_bssid,
)
from .pairing import PairedEvents, PairingConfig, pair_arrays
from .ap_locator import (
    ApClass,
    ApDatabase,
    ApRecord,
    LocatorConfig,
    TimeInterval,
    build_database,
    dbscan,
    haversine_m,
)
from .reconstructor import BinnedTimeline, build_timeline
from .coverage_metrics import CoverageSeries, entropy_bits, time_coverage
from .experiments import (
    ExperimentConfig,
    ExperimentResult,
    InitialPeriod,
    RandomFraction,
    Scenario,
    TopRouters,
    prepare_experiment_data,
    run_experiment,
    stability_decline,
)
from .synthgen import (
    GroundTruth,
    WorldSpec,
    generate_world,
    simulate_sensor_arrays,
)

__version__ = "0.1.0"
