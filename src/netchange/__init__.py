"""Vertex-level change detection in dynamic weighted networks.

The library embeds each snapshot of a dynamic network through a
regularized, degree-normalized spectral decomposition, aligns the recent
embeddings into a window profile with generalized Procrustes analysis, and
scores every vertex by its aligned displacement.  A block-model simulator,
two activity-vector baselines, and a statistical evaluation harness
support controlled experiments.
"""

__version__ = "0.1.0"

from .baselines import (
    act_scores,
    activity,
    actm_scores,
)
from .dcsbm import (
    DcsbmModel,
    ScenarioSpec,
    catalog,
    generate_sequence,
    psi,
    sample_snapshot,
    sample_theta,
    scenario,
)
from .embedding import (
    Embedding,
    embed,
    random_sign_flip,
    spectral_norm,
)
from .errors import (
    DegenerateShape,
    EmptyGraph,
    EmptyPartition,
    FormatError,
    InvalidProbability,
    InvalidWeight,
    NetchangeError,
    NotConverged,
    NotSymmetric,
)
from .evaluation import (
    ExperimentResult,
    estimate_phi,
    log_odds,
    run_experiment,
    score_sequence,
    sign_test,
)
from .graph import (
    SnapshotMatrix,
    representation_matrix,
)
from .pipeline import (
    CdpConfig,
    ScoreSeries,
    ScoreVector,
    cdp_scores,
    normalize_and_detect,
    sweep,
)
from .procrustes import (
    AlignmentResult,
    change_scores,
    gpa_align,
    optimal_rotation,
    pre_shape,
    profile_embedding,
)
