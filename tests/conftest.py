"""Hypothesis profiles: ``HYPOTHESIS_PROFILE=ci`` makes the property tests
reproducible (derandomised examples, no deadline); local runs keep the
default random search."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
