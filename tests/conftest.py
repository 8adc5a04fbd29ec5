"""Hypothesis profiles, chosen by the HYPOTHESIS_PROFILE environment variable
(default `default`):

* `default`: hypothesis's own example count, which the test suite runs.
* `slow`: ten times as many examples and no deadline, for long runs, e.g.
  `HYPOTHESIS_PROFILE=slow python -m pytest tests/test_protocol.py`.

A test with its own `@settings(max_examples=...)` keeps that count under
either profile; the protocol state machine scales with the profile.
"""

import os

from hypothesis import settings

settings.register_profile("default", max_examples=100)
settings.register_profile("slow", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
