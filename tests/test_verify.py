"""Scheduling guards of the verification runner."""

import os

from dicksonmui.verify import WORKERS_ENV, _worker_count


def test_worker_count_is_clamped_to_cpu_count(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    cores = os.cpu_count() or 1
    assert _worker_count(None) == 1
    assert _worker_count(0) == 1
    assert _worker_count(1) == 1
    assert _worker_count(10**6) == cores


def test_worker_count_from_environment(monkeypatch):
    cores = os.cpu_count() or 1
    monkeypatch.setenv(WORKERS_ENV, "1000000")
    assert _worker_count(None) == cores
    monkeypatch.setenv(WORKERS_ENV, "-3")
    assert _worker_count(None) == 1
    monkeypatch.setenv(WORKERS_ENV, " ")
    assert _worker_count(None) == 1
    # an explicit count wins over the environment
    monkeypatch.setenv(WORKERS_ENV, "1000000")
    assert _worker_count(1) == 1
