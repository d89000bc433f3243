"""Recall-controlled conformal prediction sets for network source detection.

Given snapshots of an epidemic spreading over a graph, build a node set that
contains at least a (1 - beta) fraction of the true sources with probability
at least 1 - alpha, for any plug-in per-node probability estimator.
"""

from sourceset.util import VERSION as __version__
from sourceset.graph import (
    Graph,
    GraphFormatError,
    SpectralRadiusError,
    build_graph,
    barabasi_albert_graph,
    complete_graph,
    erdos_renyi_graph,
    graph_from_spec,
    load_edge_list,
    save_edge_list,
    spectral_radius,
)
from sourceset.diffusion import (
    INFECTED,
    RECOVERED,
    SUSCEPTIBLE,
    GenerativeConfig,
    LabeledSample,
    SirParams,
    SnapshotMatrix,
    Trajectory,
    load_dataset,
    observe,
    sample_dataset,
    save_dataset,
    simulate,
)
from sourceset.estimators import (
    PROB_FLOOR,
    build_estimator,
    estimate_heuristic,
    estimate_monte_carlo,
    estimate_oracle,
    load_prob_vectors,
    save_prob_vectors,
)
from sourceset.conformal import (
    SCORE_KINDS,
    ConformalModel,
    NominalLevels,
    PredictionSet,
    SetMetrics,
    bruteforce_prediction_set,
    calibrate,
    crc_calibrate,
    crc_predict,
    evaluate_set,
    finite_sample_quantile,
    load_model,
    predict,
    required_hits,
    run_equivalence_checks,
    save_model,
    set_score,
    shrink_set,
    singleton_scores,
    upward_closure,
)
from sourceset.experiment import (
    CellStats,
    ExperimentConfig,
    TrialReport,
    run_experiment,
    sweep,
    write_reports,
)

__all__ = [name for name in dir() if not name.startswith("_")]
