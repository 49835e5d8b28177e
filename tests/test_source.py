"""Source checks: the package states its invariants as explicit errors."""

import ast
import importlib
from pathlib import Path

import covnum

SOURCES = sorted(Path(covnum.__file__).parent.glob("*.py"))


def test_package_has_no_asserts():
    """Checks must survive ``python -O``: no ``assert`` statement and no
    ``AssertionError``, only CovnumError subclasses."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or \
                    isinstance(node, ast.Name) and node.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 10
    assert found == []


def test_package_imports_only_at_module_level():
    """Every module names its dependencies at the top: no import inside a
    function or method body."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{inner.lineno}" for inner in ast.walk(node)
                          if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert len(SOURCES) > 10
    assert found == []


def test_no_function_calls_itself():
    """Deep inputs must not hit Python's recursion limit: no function calls
    itself by name, so searches keep their own stacks."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found += [f"{path.name}:{call.lineno}" for call in ast.walk(node)
                          if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                          and call.func.id == node.name]
    assert len(SOURCES) > 10
    assert found == []


def test_frozen_dataclasses_stay_frozen():
    """No ``object.__setattr__`` writes past a frozen dataclass."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr == "__setattr__" \
                    and isinstance(node.value, ast.Name) and node.value.id == "object":
                found.append(f"{path.name}:{node.lineno}")
    assert len(SOURCES) > 10
    assert found == []


def _perfbench_patch_targets() -> list[tuple[str, str]]:
    """The (module, name) pairs that traced benchmark passes replace through
    ``instrument(rec, <module>, "<name>", ...)`` in perfbench/workloads.py."""
    workloads = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    return [(node.args[1].id, node.args[2].value)
            for node in ast.walk(ast.parse(workloads.read_text(), str(workloads)))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "instrument"]


def test_perfbench_patch_targets_exist():
    """Traced benchmark passes replace ``covnum.<module>.<name>``; each name
    must still be there, or a refactor breaks ``perfbench/run.py --trace 1``."""
    targets = _perfbench_patch_targets()
    assert len(targets) > 5
    missing = [f"{module}.{name}" for module, name in targets
               if not hasattr(importlib.import_module(f"covnum.{module}"), name)]
    assert missing == []


def test_modules_use_every_name_they_import():
    """Every name a module imports at module level is read in that module,
    except the names traced benchmark passes patch there. ``__init__``
    imports to export, and ``annotations`` is a compiler switch."""
    patched = set(_perfbench_patch_targets())
    unused = []
    for path in SOURCES:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name != "annotations" and name not in used \
                            and (path.stem, name) not in patched:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert len(SOURCES) > 10
    assert unused == []


def test_index_maps_go_through_take():
    """One map kernel: every index map is applied by ``perms.take``, which
    reads the entries at C speed. No ``map(<x>.__getitem__, ...)`` call, and
    ``itemgetter`` is imported and used only in perms.py for ``take``."""
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), str(path))
        allowed = set()
        if path.name == "perms.py":
            allowed = {id(node) for top in tree.body
                       if isinstance(top, ast.FunctionDef) and top.name == "take"
                       or isinstance(top, ast.ImportFrom) and top.module == "operator"
                       for node in ast.walk(top)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "map" and node.args \
                    and isinstance(node.args[0], ast.Attribute) \
                    and node.args[0].attr == "__getitem__":
                found.append(f"{path.name}:{node.lineno} map(__getitem__)")
            named = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else \
                node.name if isinstance(node, ast.alias) else None
            if named == "itemgetter" and id(node) not in allowed:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} itemgetter")
    assert len(SOURCES) > 10
    assert found == []


def test_only_groups_reads_the_enumeration_tree():
    """One owner for element ids: only groups.py reads the Schreier tree of
    an enumeration (``_parent``, ``_letter``), as an attribute or by name,
    and no module names the retired ``_Algebra`` or ``algebra``."""
    tree, retired = {"_parent", "_letter"}, {"_Algebra", "algebra"}
    found = []
    owner_reads = 0
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            named = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else \
                node.name if isinstance(node, (ast.alias, ast.FunctionDef, ast.ClassDef)) \
                else node.value if isinstance(node, ast.Constant) else None
            if named in tree and path.name == "groups.py":
                owner_reads += 1
            elif named in tree or named in retired:
                found.append(f"{path.name}:{getattr(node, 'lineno', '?')} {named}")
    assert owner_reads > 0
    assert found == []


def test_stabilizer_chain_works_on_image_tuples():
    """The stabilizer chain keeps permutations out of its hot path: its
    level, sift and Schreier-Sims call no ``.inverse()`` or
    ``.is_identity()`` and name no ``Permutation``; and the conjugation
    maps are read off the generator columns, not off an inverse table or
    the element permutations."""
    path = Path(covnum.__file__).parent / "groups.py"
    defs = {node.name: node for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    found = []
    for name in ("_ChainLevel", "_sift", "_schreier_sims"):
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("inverse", "is_identity"):
                found.append(f"{name}:{node.lineno} .{node.func.attr}()")
            if isinstance(node, ast.Name) and node.id == "Permutation":
                found.append(f"{name}:{node.lineno} Permutation")
    for node in ast.walk(defs["conjugation_maps"]):
        if isinstance(node, ast.Attribute) and node.attr in ("inv", "elems"):
            found.append(f"conjugation_maps:{node.lineno} .{node.attr}")
    assert found == []


def test_ingested_lists_are_checked_in_subgroups():
    """One module decides what an ingested maximal list rests on:
    ``IngestInvalid`` is named only where it is defined, exported and
    raised, so no front end adds a check of its own."""
    named = {path.name for path in SOURCES if "IngestInvalid" in path.read_text()}
    assert named == {"errors.py", "__init__.py", "subgroups.py"}


def test_cli_stages_run_in_one_place():
    """One run path for every group command: in cli.py only the ``_Run``
    class builds and solves instances, reads maximal lists and reads the
    clock, so no command times, loads or solves on its own."""
    path = Path(covnum.__file__).parent / "cli.py"
    tree = ast.parse(path.read_text(), str(path))
    owned = {"build_instance", "solve", "maximal_classes_computed", "maximal_classes_from_file",
             "library.maximals", "time.monotonic"}
    inside = {id(node) for top in tree.body
              if isinstance(top, ast.ClassDef) and top.name == "_Run" for node in ast.walk(top)}
    found, owner_reads = [], 0
    for node in ast.walk(tree):
        named = node.id if isinstance(node, ast.Name) else \
            f"{node.value.id}.{node.attr}" if isinstance(node, ast.Attribute) \
            and isinstance(node.value, ast.Name) else None
        if named in owned and id(node) in inside:
            owner_reads += 1
        elif named in owned:
            found.append(f"cli.py:{node.lineno} {named}")
    assert found == []
    assert owner_reads >= len(owned)
