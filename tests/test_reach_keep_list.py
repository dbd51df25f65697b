"""The reach audit's keep list, checked without running the system.

``tools/reach.py`` runs the whole system under a profile hook, which
takes minutes; CI runs it nightly.  What it checks of the keep list
``tools/reach.txt`` alone is cheap, so it is held here on every push:
every listed key exists — a function, an op, or a knob that names a
defaulted parameter or ``*Config`` field in the source — every reason
is in the closed set, and every ``pending:`` title names an open
ROADMAP item — an entry left behind by an item marked done fails here,
not only at night.  The export audit is static, so it runs here whole:
every name in a package's ``__all__`` has a user outside the package,
and no other module declares an ``__all__``.
"""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

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


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="function keys need co_qualname (3.11+)")
def test_every_listed_key_exists(reach, keep):
    keep, _ = keep
    assert sorted(keep.keys() - reach.all_keys() - reach.all_knobs().keys()) \
        == []


def test_every_knob_key_names_a_defaulted_parameter_or_config_field(
        reach, keep):
    """Read with ``ast`` alone: a knob entry whose parameter lost its
    default, or whose function or field is gone, fails here."""
    keep, _ = keep
    knobs = reach.all_knobs()
    listed = {key for key in keep if key.endswith(")")}
    assert listed, "the keep list holds no knob"
    assert sorted(listed - knobs.keys()) == []


def test_knob_keys_are_module_or_class_level(reach):
    """Closures and lambdas are not knobs; a ``*Config`` field is keyed
    by its class, a parameter by its function's qualname."""
    knobs = reach.all_knobs()
    assert not [k for k in knobs if "<" in k]
    assert knobs["swin/model.py::SurrogateConfig(depths)"] \
        == "swin/model.py::SurrogateConfig"
    assert knobs["serve/server.py::ForecastServer.__init__(max_wait)"] \
        == "serve/server.py::ForecastServer.__init__"
    assert "nn/attention.py::MultiHeadSelfAttention.__init__(dim)" \
        not in knobs                    # no default: not a knob


def test_every_reason_is_in_the_closed_set(reach, keep):
    keep, _ = keep
    assert reach.REASONS == ("oracle", "double", "fault", "abstract",
                             "input")
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


def test_every_pending_group_names_one_planned_caller(reach):
    """A ``pending:`` entry waits on a named caller — a planned workload
    or an item's decision — given once per group by the comment right
    above it; an entry nothing is planned to reach is deleted instead."""
    caller, orphans = None, []
    for line in reach.KEEP.read_text(encoding="utf-8").splitlines():
        if line.startswith("# caller: "):
            caller = line[len("# caller: "):]
        elif not line.strip() or line.startswith("# --"):
            caller = None
        elif "pending: " in line and not line.startswith("#"):
            if caller is None:
                orphans.append(line.split()[0])
    assert orphans == []


def test_every_export_has_a_user_outside_its_package(reach):
    """The static half of the audit: a name in a package's ``__all__``
    that nothing outside the package imports or reaches by attribute
    leaves ``__all__``; tests import it from its module."""
    exports = reach.all_exports()
    assert exports["repro.serve"] and "repro" in exports
    assert {package: names
            for package, names in reach.unused_exports().items()
            if names} == {}


def test_a_user_is_an_import_or_an_attribute_through_the_package(reach):
    """Relative imports resolve against the importing package, and an
    attribute chain through an import alias counts as a use."""
    refs = reach._references(reach.PKG / "swin" / "blocks.py")
    assert "repro.nn.init" in refs and "repro.swin.patch.PatchMerging4d" \
        in refs
    refs = reach._references(reach.ROOT / "benchmarks" / "e2e"
                             / "workloads.py")
    assert "repro.serve.cache.ForecastCache" in refs       # cache_mod.…
    assert "repro.hpc.fabric.pack_frame" in refs           # fabric.…


def test_only_a_package_init_declares_all(reach):
    """The package ``__all__`` is the one place a public name is
    declared: no other module under ``src/repro`` defines one."""
    declaring = []
    for path in sorted(reach.PKG.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            targets = getattr(node, "targets", [getattr(node, "target",
                                                        None)])
            if any(getattr(t, "id", None) == "__all__" for t in targets):
                declaring.append(path.relative_to(reach.PKG).as_posix())
    assert declaring == []
