"""Fixtures shared across the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name)`` routes ``owner.name`` through a
    counter for the rest of the test and returns the call log."""

    def count(owner, name: str) -> list:
        calls = []
        real = getattr(owner, name)

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)
        return calls

    return count
