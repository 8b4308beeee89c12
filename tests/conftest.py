"""Fixtures that several test modules share."""

from types import SimpleNamespace

import pytest

import rtune.benchmark
import rtune.cli
import rtune.metrics


class _CountingModel:
    """`model`, with the row count of each forward_batch call appended to
    `rows`."""

    def __init__(self, model, rows):
        self.model, self.rows = model, rows

    def forward_batch(self, inputs):
        self.rows.append(len(inputs))
        return self.model.forward_batch(inputs)


@pytest.fixture
def score_spy(monkeypatch):
    """A spy on rtune.metrics.score, in every module that binds it. Each
    call appends (model, key(windows), the set's row count, the row count of
    each forward_batch call it made) to `calls`; `key` defaults to `id`, and
    a test may set another, so that `calls` holds no window set."""
    spy = SimpleNamespace(calls=[], key=id)
    score = rtune.metrics.score

    def spying(model, windows):
        rows = []
        spy.calls.append((model, spy.key(windows), len(windows), rows))
        return score(_CountingModel(model, rows), windows)

    for module in (rtune.metrics, rtune.benchmark, rtune.cli):
        monkeypatch.setattr(module, "score", spying)
    return spy
