"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=ci`` derandomizes every property (the examples follow
from the test alone, so a CI failure reproduces locally under the same
setting) and drops the per-example deadline, which shared runners miss.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
