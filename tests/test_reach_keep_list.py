"""The reach audit's keep list, checked without running the system.

``tools/reach.py`` runs the whole system under a profile hook, which
takes minutes; CI runs it nightly.  What it checks of the keep list
``tools/reach.txt`` alone is cheap, so it is held here on every push:
every listed key exists, every reason is in the closed set, and every
``pending:`` title names an open ROADMAP item — an entry left behind by
an item marked done fails here, not only at night.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 11), reason="reach keys need co_qualname (3.11+)")

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location(
        "reach", ROOT / "tools" / "reach.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def keep(reach):
    errors = []
    keep = reach.read_keep(errors)
    return keep, errors


def test_every_listed_key_exists(reach, keep):
    keep, _ = keep
    assert sorted(keep.keys() - reach.all_keys()) == []


def test_every_reason_is_in_the_closed_set(reach, keep):
    keep, _ = keep
    assert {key: reason for key, reason in keep.items()
            if reason not in reach.REASONS
            and not reason.startswith("pending: ")} == {}


def test_every_pending_title_is_an_open_roadmap_item(reach, keep):
    keep, errors = keep
    titles = reach.open_items(reach.ROADMAP.read_text(encoding="utf-8"))
    assert {key: reason for key, reason in keep.items()
            if reason.startswith("pending: ")
            and reason[len("pending: "):] not in titles} == {}
    assert errors == []
