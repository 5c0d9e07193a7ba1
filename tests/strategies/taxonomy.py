"""Tag forests and the logical relations extracted from them."""

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from repro.taxonomy import LogicalRelations, Taxonomy, extract_relations


@st.composite
def taxonomies(draw, max_tags: int = 12) -> Taxonomy:
    """A tag forest: each tag's parent is an earlier tag or none (-1)."""
    n_tags = draw(st.integers(1, max_tags))
    parents = [draw(st.integers(-1, t - 1)) for t in range(n_tags)]
    return Taxonomy(parents)


@st.composite
def exclusion_relations(draw, max_tags: int = 12) -> LogicalRelations:
    """A taxonomy's relations, whose sibling exclusion pairs carry levels.

    Sometimes the levels are dropped, which Eq. 12's weighting treats as
    every pair sitting at level ``eta``.
    """
    taxonomy = draw(taxonomies(max_tags))
    relations = extract_relations(
        taxonomy, sp.csr_matrix((0, taxonomy.n_tags)))
    if draw(st.booleans()):
        relations.exclusion_levels = np.zeros(0, dtype=np.int64)
    return relations
