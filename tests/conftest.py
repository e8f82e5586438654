"""Hypothesis settings shared by the whole suite.

The per-example deadline is a timing bound, not a correctness check: on a
loaded machine a single example of a big-integer test can take longer than
Hypothesis's default 200 ms and fail the run.  Every strategy, example count
and assertion is set by the tests themselves."""

from hypothesis import settings

settings.register_profile("solnorm", deadline=None)
settings.load_profile("solnorm")
