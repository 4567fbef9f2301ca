"""Fixtures shared by every test module."""

import pytest

from msolv.models import clear_run_memos


@pytest.fixture(autouse=True)
def _empty_run_memos():
    # a run memo keeps the latest corpus profile and probe prefix; emptying
    # it before each test means no test passes on a value that another
    # test built, perhaps under a monkeypatch
    clear_run_memos()
    yield
