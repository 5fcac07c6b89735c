"""Hypothesis profiles for the suite.

`ci` draws the same examples on every run and sets no per-example
deadline, so a failure seen in CI replays locally with
`pytest --hypothesis-profile ci`.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
