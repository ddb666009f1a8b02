import json
import os
from pathlib import Path

import pytest

from mostar.enumeration import bicyclic_task, survey, tricyclic_task
from mostar.families import FamilyRegistry

REPO = Path(__file__).resolve().parents[1]
WORKERS = min(8, os.cpu_count() or 1)


@pytest.fixture(scope="session")
def _tri_data():
    """One enumeration pass per tricyclic size, shared by the whole run."""
    import time

    surveys = {}
    timings = {}
    for m in range(7, 13):
        task = tricyclic_task(m)
        t0 = time.perf_counter()
        surveys[m] = survey([task], workers=WORKERS)[task]
        timings[m] = time.perf_counter() - t0
    return surveys, timings


@pytest.fixture(scope="session")
def tri_surveys(_tri_data):
    return _tri_data[0]


@pytest.fixture(scope="session")
def tri_timings(_tri_data):
    return _tri_data[1]


@pytest.fixture(scope="session")
def bi_surveys():
    tasks = {m: bicyclic_task(m) for m in range(5, 11)}
    done = survey(tasks.values(), workers=WORKERS)
    return {m: done[task] for m, task in tasks.items()}


@pytest.fixture(scope="session")
def registry():
    path = REPO / "families.json"
    assert path.exists(), "committed registry missing; run `mostar atlas`"
    return FamilyRegistry.load(path)


@pytest.fixture(scope="session")
def atlas_report():
    path = REPO / "atlas_report.json"
    assert path.exists(), "committed atlas report missing; run `mostar atlas`"
    return json.loads(path.read_text())
