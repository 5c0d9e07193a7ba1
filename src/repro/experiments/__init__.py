"""Experiment harness: model zoo, experiment DAG, and table renderers.

Every training table of the paper comes from one path, the resumable
DAG in :mod:`repro.experiments.dag`: declare an :class:`ExperimentSpec`,
call :func:`run_experiment`, and read the :class:`ExperimentResult`
accessor for the table (``comparison()``, ``ablation()``, ``sweep()``,
``lambda_sweep()``, ``robustness()``, ``cases()``).  The modules here
hold what those sections build and render:

* :mod:`repro.experiments.runner` — the model zoo (15 models with tuned
  configs) and the Table II renderer;
* :mod:`repro.experiments.ablation` — the LogiRec++ variants (Table III);
* :mod:`repro.experiments.sweeps` — the hyperparameter grid (Table IV,
  Fig. 6);
* :mod:`repro.experiments.figures` — user-behaviour statistics (Fig. 5)
  and embedding visualizations / separation scores (Fig. 7-8);
* :mod:`repro.experiments.cases` — tag-based user profiles with CON/GR/
  alpha (Table V);
* :mod:`repro.experiments.robustness` — taxonomy corruption.
"""

from repro.experiments.dag import (
    CacheStats,
    ExperimentError,
    ExperimentGraph,
    ExperimentResult,
    ExperimentSpec,
    ResultStore,
    SpecError,
    clean_experiment,
    compile_spec,
    experiment_status,
    load_experiment,
    run_experiment,
)
from repro.experiments.runner import (
    MODEL_ZOO,
    build_model,
    format_comparison_table,
)
from repro.experiments.ablation import ABLATIONS
from repro.experiments.figures import (
    user_tag_type_distribution,
    tag_types_vs_origin_distance,
    embedding_projection,
    tag_separation_scores,
)
from repro.experiments.cases import case_rows
from repro.experiments.robustness import (
    corrupt_taxonomy,
    format_robustness_table,
)

__all__ = [
    "CacheStats",
    "ExperimentError",
    "ExperimentGraph",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultStore",
    "SpecError",
    "clean_experiment",
    "compile_spec",
    "experiment_status",
    "load_experiment",
    "run_experiment",
    "case_rows",
    "MODEL_ZOO",
    "build_model",
    "format_comparison_table",
    "ABLATIONS",
    "user_tag_type_distribution",
    "tag_types_vs_origin_distance",
    "embedding_projection",
    "tag_separation_scores",
    "corrupt_taxonomy",
    "format_robustness_table",
]
