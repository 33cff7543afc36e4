"""Public-API snapshot check for CI.

    PYTHONPATH=src python tools/check_api.py [--snapshot tools/api_snapshot.json]
                                             [--update]

Imports every public ``repro`` module, collects its public surface —
``__all__`` when declared, otherwise every public top-level name defined
in (or deliberately re-exported into) the module, plus the public
methods of every ``repro``-defined class, inherited ones included (over
the ``repro``-defined classes of its MRO, so overriding a method or
moving it between a base and a subclass leaves the surface alone) — and
diffs it against the checked-in snapshot:

* a name present in the snapshot but missing from the import is a
  **removal** — an API break someone's code downstream will hit — and
  fails the check;
* a new name is an **addition** — fine, but the snapshot must be
  refreshed (``--update``) so the next accidental removal is caught.

Deprecation shims are part of the surface too (none are live right
now): deleting a shim before its deprecation cycle ends is exactly the
removal this gate exists to catch — removing one *at* end of cycle, or
retiring a name outright, is a deliberate snapshot refresh
(``--update``) recorded in CHANGES.md.
Needs the runtime dependency (numpy) since it imports the package for
real — what users' ``import`` statements see is the surface that
matters, not what the AST suggests.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import pkgutil
import sys
import warnings
from pathlib import Path

DEFAULT_SNAPSHOT = str(Path(__file__).resolve().parent / "api_snapshot.json")


def public_modules() -> list:
    """Every importable ``repro`` module with no ``_private`` path part."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if any(part.startswith("_") for part in info.name.split(".")):
            continue
        names.append(info.name)
    return sorted(names)


def module_surface(module) -> list:
    """Sorted public names of one module, classes expanded one level."""
    if hasattr(module, "__all__"):
        names = sorted(set(module.__all__))
    else:
        names = []
        for name, obj in sorted(vars(module).items()):
            if name.startswith("_") or inspect.ismodule(obj):
                continue
            owner = getattr(obj, "__module__", None)
            # defined in repro (or re-exported between repro modules), or
            # a public module-level constant (owner-less data)
            if owner is None or owner.startswith("repro"):
                names.append(name)
    surface = []
    for name in names:
        surface.append(name)
        obj = getattr(module, name, None)
        if inspect.isclass(obj) and obj.__module__.startswith("repro"):
            surface.extend(f"{name}.{attr}" for attr in class_surface(obj))
    return surface


def class_surface(cls) -> list:
    """Sorted public methods and properties of a class, each as the
    nearest ``repro``-defined class of its MRO defines it."""
    members: dict = {}
    for klass in cls.__mro__:
        if klass.__module__.startswith("repro"):
            for attr, member in vars(klass).items():
                members.setdefault(attr, member)
    return sorted(
        attr
        for attr, member in members.items()
        if not attr.startswith("_")
        and (callable(member) or isinstance(member, (classmethod, staticmethod, property)))
    )


def collect() -> dict:
    surface = {}
    with warnings.catch_warnings():
        # importing the surface must not trip the -W error deprecation
        # leg, and module __getattr__ shims warn on touch by design
        warnings.simplefilter("ignore", DeprecationWarning)
        for name in public_modules():
            module = importlib.import_module(name)
            surface[name] = module_surface(module)
    return surface


def diff(snapshot: dict, current: dict) -> tuple:
    """Returns ``(removals, additions)`` as ``module: name`` strings."""
    removals: list = []
    additions: list = []
    for module, names in sorted(snapshot.items()):
        cur = current.get(module)
        if cur is None:
            removals.extend(f"{module}: {n}" for n in names)
            removals.append(f"{module}: (entire module)")
            continue
        cur_set = set(cur)
        removals.extend(f"{module}: {n}" for n in names if n not in cur_set)
    for module, names in sorted(current.items()):
        base = set(snapshot.get(module, []))
        additions.extend(f"{module}: {n}" for n in names if n not in base)
    return removals, additions


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--snapshot", default=DEFAULT_SNAPSHOT)
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the snapshot from the current surface instead of checking",
    )
    args = parser.parse_args(argv[1:])

    current = collect()
    if args.update:
        with open(args.snapshot, "w") as fh:
            json.dump(current, fh, indent=2, sort_keys=True)
            fh.write("\n")
        total = sum(len(v) for v in current.values())
        print(f"check_api: snapshot updated ({len(current)} modules, {total} names)")
        return 0

    with open(args.snapshot) as fh:
        snapshot = json.load(fh)
    removals, additions = diff(snapshot, current)
    for msg in additions:
        print(f"added: {msg}")
    if additions:
        print(
            "new public surface — refresh the snapshot "
            "(PYTHONPATH=src python tools/check_api.py --update) so future "
            "removals of these names are caught"
        )
    for msg in removals:
        print(f"REMOVED: {msg}", file=sys.stderr)
    if removals:
        print(
            "public API surface shrank — an intentional removal (e.g. a shim "
            "finishing its deprecation cycle) is recorded with --update",
            file=sys.stderr,
        )
    print(
        f"check_api: {len(snapshot)} snapshotted modules, "
        f"{len(removals)} removals, {len(additions)} additions"
    )
    return 1 if (removals or additions) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
