"""Hypothesis settings and a certificate-path check shared by the whole suite.

The per-example deadline is a timing bound, not a correctness check: on a
loaded machine a single example of a big-integer test can take longer than
Hypothesis's default 200 ms and fail the run.  Every strategy, example count
and assertion is set by the tests themselves."""

import pytest
from hypothesis import settings

from helpers import check_pieces
from solnorm.curve_complex import TreePath

settings.register_profile("solnorm", deadline=None)
settings.load_profile("solnorm")


@pytest.fixture(autouse=True)
def checked_tree_paths(monkeypatch):
    """Every TreePath a test lists, directly or through geodesic or the
    oracle, is first checked to hold as many vertices as it claims: a
    record whose stored pieces add up to more (up to 10**30 on a mis-cut
    run) then fails at once instead of exhausting memory."""
    plain = TreePath.__iter__

    def checked(path):
        check_pieces(path)
        return plain(path)

    monkeypatch.setattr(TreePath, "__iter__", checked)
