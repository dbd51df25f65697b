#!/usr/bin/env python
"""Reach audit: every ``src/repro`` function the system runs and every
knob it sets, or a reason.

Runs the system — the seven end-to-end workloads at ``--seconds 1``
untraced and traced, every script in ``examples/``, the paper benches
(from a fresh copy of ``benchmarks/``, so they build their own
environment) and CI's ``plan_profile`` / ``tape_profile`` /
``bits_digest`` — with a ``sys.setprofile`` / ``threading.setprofile``
hook in every interpreter.  The hook is a ``sitecustomize`` module put
first on ``PYTHONPATH``, so the children the process and host tiers
spawn carry it too.  ``tape_profile``'s exit status is not read: under
a profiler its own phase-sum check fails, and CI runs it unprofiled.

A function is keyed ``path::co_qualname`` (path relative to
``src/repro``, no line number, so an edit does not churn the keys);
comprehensions and class bodies are not functions.  The op names
:func:`repro.tensor.tensor.apply` receives are keyed ``op::name``,
because the ``_unary`` / ``_binary`` factories give many kernels one
qualname; every registered kernel is checked by its op key.

A *knob* is a defaulted parameter of a function defined at module or
class level (``path::qualname(param)``; closures and lambdas are out)
or a defaulted field of a ``*Config`` dataclass (``path::Class(field)``),
both read from the source with ``ast``.  A call *sets* a knob when it
binds a value that is not the default object and, for a ``None``,
``bool``, ``int``, ``float``, ``str``, ``bytes`` or ``tuple`` default,
also differs from it by type or by ``==``.  The hook watches each knob
of a function it has seen called until a call sets it.  The knobs
counted are those of the functions the system reaches, plus every
``*Config`` field.

An *export* is a name in a package ``__init__.py``'s ``__all__`` (the
root's names the subpackages), read with ``ast``; no other module
declares one.  It is *used* when a file outside its package — in
``examples/``, ``benchmarks/`` (the e2e harness included), ``tools/``
or another ``src/repro`` package — imports it from the package or one
of its modules, absolutely or relatively, or reaches it by attribute
through them.  Exports take no keep reason: a name nothing outside uses
leaves ``__all__``, and tests import it from its module.  This half is
static; ``tests/test_reach_keep_list.py`` runs it on every push.

Each function or op the system does not reach, and each counted knob
it never sets, must stand in the keep list ``tools/reach.txt``
(``key  reason``, ``#`` comments) with one reason from a closed set:

* ``oracle`` — a test holds a fast path to it;
* ``double`` — a test substitutes it for a real dependency;
* ``fault`` — it handles a failure a call can return, or outside input;
* ``abstract`` — a base method that subclasses override;
* ``input`` — a knob that is a seed, a path or an address;
* ``pending: <title>`` — an open ROADMAP item decides it.  The title is
  an item heading's text up to its first colon (``- **6. Overlap or
  stay serial: ...**`` → ``Overlap or stay serial``); an item whose
  status line reads done decides nothing.

::

    python tools/reach.py        # ~5 min on two CPUs

Exits 1 when an unreached key or a never-set knob is missing from the
keep list, when the keep list names a key that does not exist, a
reached key or a set knob (a ``fault`` one a run happened to hit is
only noted), or a reason outside the set, when an export has no user
outside its package, or when a system run fails.  CI's nightly job
runs it (3.11 or later: the keys need ``co_qualname``).
"""

from __future__ import annotations

import ast
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PKG = SRC / "repro"
KEEP = ROOT / "tools" / "reach.txt"
ROADMAP = ROOT / "ROADMAP.md"
REASONS = ("oracle", "double", "fault", "abstract", "input")
NOT_FUNCTIONS = {"<module>", "<listcomp>", "<setcomp>", "<dictcomp>",
                 "<genexpr>"}
CO_OPTIMIZED = 0x1          # set on function code, not on class bodies
PARALLEL = 2                # system runs at a time

#: the ``sitecustomize`` every hooked interpreter imports at start-up.
#: It appends each first-seen key to its own log with one ``write``, so
#: a child that is terminated loses nothing it already ran.  A function
#: or ``*Config`` ``__init__`` with knobs is watched until each has been
#: seen set; a set knob is logged by its knob key.
HOOK = '''\
import gc, os, sys, threading, types

_ROOT = {root!r}
_APPLY = "tensor/tensor.py::apply"
_KNOBS = {knobs!r}
_LITERALS = (type(None), bool, int, float, str, bytes, tuple)
_fd = os.open(os.path.join({out!r}, "%d.keys" % os.getpid()),
              os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
_seen = {{}}
_watch = {{}}
_ops = set()
_apply = [None]


def _log(key):
    os.write(_fd, (key + "\\n").encode())


def _function(frame, code):
    """The function that owns ``code``: looked up by its qualname, else
    found by the garbage collector."""
    obj = frame.f_globals
    try:
        for part in code.co_qualname.split("."):
            obj = obj[part] if isinstance(obj, dict) else vars(obj)[part]
    except (KeyError, TypeError):
        obj = None
    todo = [obj]
    while todo:
        obj = todo.pop()
        if getattr(obj, "__code__", None) is code:
            return obj
        todo += [getattr(obj, a) for a in
                 ("__func__", "__wrapped__", "fget", "fset")
                 if getattr(obj, a, None) is not None]
    for obj in gc.get_referrers(code):
        if isinstance(obj, types.FunctionType) and obj.__code__ is code:
            return obj
    return None


def _config_key(frame, code):
    """``path::Class`` when ``code`` is the generated ``__init__`` of a
    ``*Config`` dataclass, else None."""
    if code.co_name != "__init__" or "self" not in frame.f_locals:
        return None
    for cls in type(frame.f_locals["self"]).__mro__:
        if getattr(vars(cls).get("__init__"), "__code__", None) is code:
            path = getattr(sys.modules.get(cls.__module__), "__file__", "")
            if cls.__name__.endswith("Config") and path.startswith(_ROOT):
                return (path[len(_ROOT):].replace(os.sep, "/") + "::"
                        + cls.__qualname__)
    return None


def _knobs(frame, code, key):
    """``{{parameter: (knob key, default object)}}`` still to be seen set."""
    fn = _function(frame, code)
    if fn is None:
        return {{}}
    names = code.co_varnames[:code.co_argcount]
    defaults = fn.__defaults__ or ()
    bound = dict(zip(names[len(names) - len(defaults):], defaults))
    bound.update(fn.__kwdefaults__ or {{}})
    return {{name: (key + "(" + name + ")", bound[name])
            for name in _KNOBS[key] if name in bound}}


def _is_set(value, default):
    if value is default:
        return False
    if type(value) is type(default) and isinstance(default, _LITERALS):
        try:
            return not bool(value == default)
        except Exception:
            return True
    return True


def _check(frame, i, watch):
    local = frame.f_locals
    for name, (knob, default) in list(watch.items()):
        if name in local and _is_set(local[name], default) \\
                and watch.pop(name, None) is not None:
            _log(knob)
    if not watch:
        _watch.pop(i, None)


def _hook(frame, event, arg):
    if event != "call":
        return
    code = frame.f_code
    i = id(code)
    if i in _seen:
        if i == _apply[0]:
            name = frame.f_locals.get("name")
            if name not in _ops:
                _ops.add(name)
                _log("op::" + name)
        watch = _watch.get(i)
        if watch:
            _check(frame, i, watch)
        return
    _seen[i] = code         # held, so the id is never reused
    path = code.co_filename
    if path.startswith(_ROOT):
        key = path[len(_ROOT):].replace(os.sep, "/") + "::" \\
            + code.co_qualname
        _log(key)
    elif path == "<string>":
        key = _config_key(frame, code)
    else:
        return
    if key in _KNOBS:
        _watch[i] = _knobs(frame, code, key)
    if key == _APPLY:
        _apply[0] = i
    _hook(frame, event, arg)


threading.setprofile(_hook)
sys.setprofile(_hook)
'''


def system_runs(tmp: Path):
    """``(label, argv, cwd, checked)`` of every run that is the system."""
    py = sys.executable
    e2e = str(ROOT / "benchmarks" / "e2e" / "run.py")
    runs = [(f"e2e --trace {t}",
             [py, e2e, "--seed", "0", "--seconds", "1", "--trace", str(t)],
             ROOT, True) for t in (0, 1)]
    for script in sorted((ROOT / "examples").glob("*.py")):
        if not script.name.startswith("_"):
            cwd = tmp / "examples" / script.stem
            cwd.mkdir(parents=True)
            runs.append((f"examples/{script.name}", [py, str(script)],
                         cwd, True))
    benches = tmp / "benchmarks"
    benches.mkdir()
    for bench in (ROOT / "benchmarks").glob("*.py"):
        shutil.copy(bench, benches)
    runs.append(("paper benches",
                 [py, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
                 + sorted(p.name for p in benches.glob("bench_*.py")),
                 benches, True))
    tools = ROOT / "tools"
    runs += [
        ("plan_profile serving", [py, str(tools / "plan_profile.py"),
                                  "--config", "serving", "--batch", "8",
                                  "--repeats", "3"], ROOT, True),
        ("plan_profile estuary", [py, str(tools / "plan_profile.py"),
                                  "--config", "estuary", "--batch", "1",
                                  "--repeats", "1"], ROOT, True),
        ("tape_profile", [py, str(tools / "tape_profile.py"),
                          "--batch", "4"], ROOT, False),
        ("bits_digest", [py, str(tools / "bits_digest.py")], ROOT, True),
    ]
    return runs


def run_system(tmp: Path, out: Path) -> list:
    """Run every system run under the hook; the labels of failed runs."""
    hook = tmp / "hook"
    hook.mkdir()
    owners = {}
    for knob, owner in all_knobs().items():
        owners.setdefault(owner, []).append(knob[knob.index("(") + 1:-1])
    (hook / "sitecustomize.py").write_text(HOOK.format(
        root=str(PKG) + os.sep, out=str(out), knobs=owners))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(hook), str(SRC)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    pending = list(enumerate(system_runs(tmp)))
    running, failed = [], []
    while pending or running:
        while pending and len(running) < PARALLEL:
            n, (label, argv, cwd, checked) = pending.pop(0)
            log = open(tmp / f"run{n}.log", "w+")
            print(f"  run  {label}", flush=True)
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                    stderr=subprocess.STDOUT)
            running.append((label, proc, log, checked, time.perf_counter()))
        time.sleep(0.2)
        for item in list(running):
            label, proc, log, checked, t0 = item
            if proc.poll() is None:
                continue
            running.remove(item)
            print(f"  done {label} ({time.perf_counter() - t0:.0f} s, "
                  f"exit {proc.returncode})", flush=True)
            if checked and proc.returncode != 0:
                log.seek(0)
                print("".join(log.readlines()[-30:]), file=sys.stderr)
                failed.append(label)
            log.close()
    return failed


def reached_keys(out: Path) -> set:
    keys = set()
    for log in out.glob("*.keys"):
        keys.update(line for line in log.read_text().splitlines() if line)
    return keys


def all_keys() -> set:
    """Every function under ``src/repro`` and every registered op."""
    keys = set()
    for path in sorted(PKG.rglob("*.py")):
        rel = path.relative_to(PKG).as_posix()
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts
                         if hasattr(c, "co_qualname"))
            if code.co_flags & CO_OPTIMIZED \
                    and code.co_name not in NOT_FUNCTIONS:
                keys.add(f"{rel}::{code.co_qualname}")
    sys.path.insert(0, str(SRC))
    from repro.tensor import plan
    plan._ensure_kernels_registered()
    keys.update(f"op::{name}" for name in plan.KERNELS)
    return keys


def all_knobs() -> dict:
    """``{knob key: owner key}`` of every defaulted parameter of a
    function defined at module or class level under ``src/repro``
    (``path::qualname(param)``, owner ``path::qualname``) and every
    defaulted field of a ``*Config`` dataclass (``path::Class(field)``,
    owner ``path::Class``), read with ``ast``."""
    knobs = {}

    def visit(body, rel, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = f"{rel}::{prefix}{node.name}"
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs,
                                            args.kw_defaults) if d]
                knobs.update((f"{owner}({a.arg})", owner) for a in named)
            elif isinstance(node, ast.ClassDef):
                if node.name.endswith("Config") and any(
                        "dataclass" in ast.unparse(d)
                        for d in node.decorator_list):
                    owner = f"{rel}::{prefix}{node.name}"
                    knobs.update(
                        (f"{owner}({f.target.id})", owner) for f in node.body
                        if isinstance(f, ast.AnnAssign) and f.value)
                visit(node.body, rel, f"{prefix}{node.name}.")
            else:
                visit([n for n in ast.iter_child_nodes(node)
                       if isinstance(n, ast.stmt)], rel, prefix)

    for path in sorted(PKG.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree.body, path.relative_to(PKG).as_posix(), "")
    return knobs


def _module_name(path: Path) -> str:
    """``repro.serve.cache`` of ``src/repro/serve/cache.py``; a package
    ``__init__.py`` is its package."""
    parts = path.relative_to(SRC).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def all_exports() -> dict:
    """``{package: [names]}``: the ``__all__`` of each package
    ``__init__.py`` (the root's names the subpackages), read with
    ``ast``."""
    exports = {}
    for init in [PKG / "__init__.py"] + sorted(PKG.glob("*/__init__.py")):
        for node in ast.parse(init.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                    getattr(t, "id", None) == "__all__"
                    for t in node.targets):
                exports[_module_name(init)] = list(
                    ast.literal_eval(node.value))
    return exports


def _references(path: Path) -> set:
    """Dotted names one file imports or reaches by attribute access,
    with relative imports and import aliases resolved."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    package = ""
    if path.is_relative_to(SRC):
        package = _module_name(path if path.name == "__init__.py"
                               else path.parent / "__init__.py")
    alias, refs, chains = {}, set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            chains.append(node)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) + 1 - node.level]
                module = ".".join(base + ([module] if module else []))
            for a in node.names:
                refs.add(f"{module}.{a.name}")
                alias[a.asname or a.name] = f"{module}.{a.name}"
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.asname:
                    alias[a.asname] = a.name
                else:
                    root = a.name.split(".")[0]
                    alias[root] = root
    for node in chains:
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in alias:
            refs.add(".".join([alias[node.id]] + chain[::-1]))
    return refs


def unused_exports() -> dict:
    """``{package: [names]}`` of the exports nothing outside their
    package imports from the package or one of its modules, or reaches
    by attribute through them.  The users scanned are ``examples/``,
    ``benchmarks/`` (the e2e harness included), ``tools/`` and the other
    packages of ``src/repro``."""
    exports = all_exports()
    modules = {_module_name(p) for p in PKG.rglob("*.py")}
    files = [p for d in ("examples", "benchmarks", "tools")
             for p in sorted((ROOT / d).rglob("*.py"))]
    files += sorted(PKG.rglob("*.py"))
    used = {package: set() for package in exports}
    for path in files:
        own = _module_name(path) if path.is_relative_to(SRC) else ""
        for ref in _references(path):
            for package in used:
                if not ref.startswith(package + ".") or own == package \
                        or own.startswith(package + "."):
                    continue
                rest = ref[len(package) + 1:].split(".")
                used[package].add(rest[0])
                if len(rest) > 1 and f"{package}.{rest[0]}" in modules:
                    used[package].add(rest[1])
    return {package: [n for n in names if n not in used[package]]
            for package, names in exports.items()}


def open_items(roadmap: str) -> set:
    """Titles of the numbered ROADMAP items not marked done."""
    heads = list(re.finditer(r"^- \*\*\d+\. (?:\(new\) )?(.+?)\*\*",
                             roadmap, re.M | re.S))
    titles = set()
    for head, nxt in zip(heads, heads[1:] + [None]):
        end = nxt.start() if nxt else len(roadmap)
        section = roadmap.find("\n## ", head.end(), end)
        body = roadmap[head.end():end if section < 0 else section]
        if re.search(r"\*\*Status \([^)]*\): done\.", body):
            continue
        heading = " ".join(head[1].split())
        titles.add(heading.split(":", 1)[0].rstrip("."))
    return titles


def read_keep(errors: list) -> dict:
    """``{key: reason}`` from ``tools/reach.txt``; bad lines go to
    ``errors``."""
    titles = open_items(ROADMAP.read_text(encoding="utf-8"))
    keep = {}
    for n, line in enumerate(KEEP.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, reason = line.partition(" ")
        reason = reason.strip()
        title = re.fullmatch(r"pending: (.+)", reason)
        if reason not in REASONS and not (title and title[1] in titles):
            errors.append(f"reach.txt:{n}: {key}: reason {reason!r} is "
                          f"none of {', '.join(REASONS)}, 'pending: "
                          f"<open ROADMAP item title>'")
        if key in keep:
            errors.append(f"reach.txt:{n}: {key} listed twice")
        keep[key] = reason
    return keep


def main() -> int:
    if sys.version_info < (3, 11):
        print("reach.py needs Python 3.11 or later (co_qualname)",
              file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="reach_") as tmp:
        tmp = Path(tmp)
        out = tmp / "keys"
        out.mkdir()
        failed = run_system(tmp, out)
        reached = reached_keys(out)
    errors = [f"system run failed: {label}" for label in failed]
    keys = all_keys()
    knobs = all_knobs()
    keep = read_keep(errors)
    # a function's knobs count once the system runs it; a Config's always
    watched = {k for k, owner in knobs.items()
               if owner in reached or owner not in keys}
    unreached = (keys - reached) | (watched - reached)
    errors += [f"unreached and not in reach.txt: {k}"
               for k in sorted(unreached - keep.keys())]
    errors += [f"in reach.txt but no such function, op or knob: {k}"
               for k in sorted(keep.keys() - keys - knobs.keys())]
    # a fault path may be hit by a run that happens to shed or time out
    stale = sorted(keep.keys() & reached)
    errors += [f"in reach.txt but the system reaches or sets it: {k}"
               for k in stale if keep[k] != "fault"]
    ops = {k for k in keys if k.startswith("op::")}
    for kind, group in (("functions", keys - ops), ("ops", ops)):
        print(f"{kind:<9} {len(group)}: reached {len(group & reached)}, "
              f"kept {len(group - reached)}")
    print(f"{'knobs':<9} {len(watched)}: set {len(watched & reached)}, "
          f"kept {len(watched - reached)}")
    exports = sum(len(names) for names in all_exports().values())
    unused = [f"{package}.{name}"
              for package, names in unused_exports().items()
              for name in names]
    errors += [f"exported but nothing outside its package uses it: {e}"
               for e in unused]
    print(f"{'exports':<9} {exports}: used {exports - len(unused)}")
    print(f"{time.perf_counter() - t0:.0f} s")
    for k in stale:
        if keep[k] == "fault":
            print(f"note: fault path reached this time: {k}")
    for e in errors:
        print(e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
