"""WiFi access-point geolocation and mobility reconstruction toolkit."""

from .trace_model import (
    ApSighting,
    BssidId,
    GeoPoint,
    GpsFix,
    SensorArrays,
    TimestampMs,
    TraceSet,
    UserId,
    WifiScan,
    ingest_arrays,
    ingest_traces,
    ingest_traces_verbose,
    normalize_bssid,
    write_traces,
)
from .pairing import (
    PairedEvents,
    PairedObservation,
    PairingConfig,
    pair_arrays,
    pair_observations,
)
from .ap_locator import (
    ApClass,
    ApDatabase,
    ApRecord,
    LocatorConfig,
    TimeInterval,
    build_database,
    classify_ap,
    dbscan,
    geometric_median,
    haversine_m,
    validate_against_named_ssids,
)
from .reconstructor import BinnedTimeline, PositionEstimate, build_timeline, resolve_scan
from .coverage_metrics import (
    CoverageSeries,
    daily_population_mean,
    entropy_bits,
    time_coverage,
)
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
    mobile_ssid_names,
    simulate_sensor_arrays,
)

__version__ = "0.1.0"
