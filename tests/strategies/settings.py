"""Shared hypothesis settings profiles."""

from hypothesis import HealthCheck, settings

# Numeric kernels over generated arrays: no per-example deadline (a
# cold numpy import or a slow CI box must not fail a property), and the
# example budget of the repo's other property tests.
STANDARD_SETTINGS = settings(max_examples=100, deadline=None,
                             suppress_health_check=[HealthCheck.too_slow])

# Determinism contracts (same inputs -> same bytes): an example builds
# whole artifacts such as a generated dataset, twice over, so the budget
# is small; pin the configurations that matter as @example.
DETERMINISM_SETTINGS = settings(max_examples=5, deadline=None,
                                suppress_health_check=[
                                    HealthCheck.too_slow])
