"""Face recognition via eigenface projection fused with a
Delaunay-triangulation area descriptor.
"""

from .dataset_io import (
    DatasetFormatError,
    DatasetManifest,
    ImageVector,
    ManifestEntry,
    load_image,
    load_landmarks,
    load_manifest,
    save_image,
    save_manifest,
    split_dataset,
)
from .eigenface import (
    EigenModel,
    ZeroVarianceError,
    fit_eigenmodel,
    project,
)
from .evalharness import (
    AccuracyRow,
    AccuracyTable,
    ExperimentConfig,
    accuracy,
    emit_report,
    run_experiment,
    run_table,
    train_gallery,
)
from .geometry import Triangulation, delaunay
from .recognizer import (
    Gallery,
    GalleryFormatError,
    MatchReport,
    TrainingRecord,
    build_gallery,
    load_gallery,
    recognize,
    save_gallery,
)

__version__ = "0.1.0"
