"""Hypothesis settings profiles.

`HYPOTHESIS_PROFILE=ci` draws the same examples on every run, so a test
that fails in CI fails again on the next run; without it, each run draws
fresh examples."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
