"""Hypothesis strategies for property-based tests.

Re-exports commonly used strategies for convenience:
    from tests.strategies import exclusion_relations, STANDARD_SETTINGS
"""

from tests.strategies.settings import (DETERMINISM_SETTINGS,
                                       STANDARD_SETTINGS)
from tests.strategies.streams import occurrence_streams, weight_streams
from tests.strategies.taxonomy import exclusion_relations, taxonomies

__all__ = [
    "DETERMINISM_SETTINGS",
    "STANDARD_SETTINGS",
    "exclusion_relations",
    "occurrence_streams",
    "taxonomies",
    "weight_streams",
]
