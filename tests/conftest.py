"""Shared pytest set-up: a deterministic, bounded hypothesis profile.

Property tests draw the same examples on every run (``derandomize``), keep
no example database, and run a fixed number of examples, so the suite's
outcome and duration do not depend on earlier runs or on the host.
"""

from hypothesis import settings

settings.register_profile("fracheat", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("fracheat")
