"""Seed-reproducible simulator for multi-partitioned wireless sensor networks
with CNP sink placement and SiMoCo sink mobility."""

from .core import (
    NetworkField,
    Position,
    SensorNode,
    centroid,
    generate_network,
    one_hop_neighbors,
)
from .engine import (
    Deliveries,
    Delivery,
    RoundRecord,
    ScenarioConfig,
    SimulationTrace,
    deploy,
    run_scenario,
    trace_lines,
)
from .metrics import (
    MatrixRow,
    MetricsReport,
    compute_report,
    emit_csv,
    mean_over_seeds,
    run_experiment_matrix,
)
from .mobility import (
    CoverageBufferEntry,
    SojournTour,
    build_coverage_buffer,
    generate_tour,
    next_sojourn_point,
    tour_export_lines,
)
from .partitioning import Partition, quadrant_index, quadrant_partition
from .placement import SinkPlacement, cnp_initial_sink_position, cnp_iterates
from .routing import (
    ConnectivityGraph,
    DeliveryRecord,
    RadioEnergyModel,
    Route,
    build_graph,
    deliver_packet,
    min_hop_route,
    rx_energy,
    sink_distance_field,
    tx_energy,
)
