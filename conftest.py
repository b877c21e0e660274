"""Hypothesis profiles for the whole suite. CI selects `ci` with
HYPOTHESIS_PROFILE=ci: its examples are derandomized, so a property that
fails there fails the same way on any host, and a failure prints the blob
that replays it."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if "HYPOTHESIS_PROFILE" in os.environ:
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])
