import pytest

from coopbeam import baseline, outage


@pytest.fixture
def no_draws(monkeypatch):
    """Fail the test if any block kernel runs."""
    def draw(*args):
        raise AssertionError("a block was drawn")
    monkeypatch.setattr(outage, "block_gains", draw)
    monkeypatch.setattr(baseline, "block_capacities", draw)
