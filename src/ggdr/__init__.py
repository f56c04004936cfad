"""Discriminative dimensionality reduction for subspace-valued data.

Data points are linear subspaces (points on a Grassmann manifold); the
package learns an orthonormal map W that sends them to a lower-dimensional
Grassmannian where same-class subspaces sit closer together and
different-class subspaces farther apart, as judged by any of five classical
subspace measures. Training minimizes a signed neighbor-graph objective by
conjugate gradient directly on the manifold of orthonormal maps, with the
mapped points re-orthonormalized (QR) inside every evaluation.
"""

from .affinity import AffinityGraph, build_affinity, default_kw
from .errors import (
    DataFormatError,
    DegenerateClass,
    DimensionMismatch,
    EmptyTrainingSet,
    GgdrError,
    InvalidK,
    InvalidShape,
    NotSquare,
    NumericalError,
    NumericalHealthWarning,
    RankDeficient,
    SingularR,
    ValidationError,
)
from .manifold import (
    GrassmannPoint,
    MappingMatrix,
    TangentVector,
    geodesic_distance,
    geodesic_step,
    orthonormalize,
    parallel_transport,
    principal_angles,
    project_tangent,
    random_point,
)
from .metrics import (
    MeasureKind,
    PairGradient,
    btril,
    health_counters,
    measure,
    measure_grad,
    qr_pullback,
    reset_health_counters,
)
from .objective import (
    Problem,
    cost,
    cost_and_grad,
    euclidean_grad,
    reduce_point,
)
from .optimizer import (
    BetaRule,
    OptimOptions,
    OptimTrace,
    TraceRecord,
    minimize,
)
from .pipeline import (
    GradCheckReport,
    LabeledDataset,
    SynthParams,
    build_subspace,
    demo_analog_params,
    evaluate,
    fit,
    gradient_check,
    nn_classify,
    pairwise_dissimilarity,
    synth_dataset,
)

__version__ = "0.1.0"
