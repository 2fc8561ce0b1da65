"""Test-session setup shared by tests/ and benchmarks/.

HYPOTHESIS_PROFILE=ci loads the "ci" hypothesis profile: examples are
derived from each test rather than drawn at random, so a run is
reproducible, and a failure prints the blob that replays it.  Without the
variable hypothesis keeps its defaults.  A test's own @settings still
override the profile.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
if os.environ.get("HYPOTHESIS_PROFILE") == "ci":
    settings.load_profile("ci")
