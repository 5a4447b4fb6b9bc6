"""Import hygiene: what start-up loads, and no import or private name left
unused in src/."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import ghostsim as gs
from conftest import TINY_HBT

SRC = Path(gs.__file__).resolve().parent

# Runs `ghostsim run` on each scenario with run_scenario wrapped by a probe
# that records which of WATCHED are loaded at the call; a spatial run stops
# there, an hbt run goes on and is probed again after it.
PROBE = """\
import json, sys
import ghostsim.cli as cli
WATCHED = ("scipy.signal", "scipy.signal._sigtools", "scipy.stats")
def loaded():
    return [m for m in WATCHED if m in sys.modules]
seen = {"start": loaded()}
run = cli.run_scenario
def probe(cfg, workers=1):
    seen[cfg.kind] = loaded()
    if cfg.kind != "hbt":
        raise SystemExit(0)
    out = run(cfg, workers)
    seen["after hbt"] = loaded()
    return out
cli.run_scenario = probe
for path in sys.argv[1:]:
    try:
        cli.main(["run", path])
    except SystemExit:
        pass
print(json.dumps(seen))
"""


def _child(tmp_path, script, *args):
    """Last stdout line of a fresh interpreter running script, as JSON; this
    process has scipy.signal already, via test_fresnel."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    res = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                         capture_output=True, text=True, env=env, cwd=tmp_path,
                         check=True)
    return json.loads(res.stdout.splitlines()[-1])


def _scenarios(tmp_path, spatial_text):
    spatial, hbt = tmp_path / "tiny.scenario", tmp_path / "hbt.scenario"
    spatial.write_text(spatial_text, encoding="utf-8")
    hbt.write_text(TINY_HBT, encoding="utf-8")
    return spatial, hbt


def test_startup_leaves_the_filter_kernel_to_hbt_runs(tmp_path, tiny_scenario_text):
    seen = _child(tmp_path, PROBE, *_scenarios(tmp_path, tiny_scenario_text))
    # an hbt run loads scipy's compiled filter, never the scipy.signal package
    assert seen == {"start": [], "focused_image": [],
                    "hbt": ["scipy.signal._sigtools"],
                    "after hbt": ["scipy.signal._sigtools"]}


# Records the scipy modules loaded after import, at the run call and after
# the run, of a spatial scenario by both routes and of an hbt scenario.
SCIPY_PROBE = """\
import json, sys
import ghostsim.cli as cli
def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
seen = {"start": scipy_modules()}
run = cli.run_scenario
def probe(cfg, workers=1):
    seen[cfg.kind] = scipy_modules()
    out = run(cfg, workers)
    seen[cfg.kind + " run"] = scipy_modules()
    return out
cli.run_scenario = probe
seen["exit"] = cli.main(["run", sys.argv[1], "--method", "both"])
seen["hbt exit"] = cli.main(["run", sys.argv[2]])
print(json.dumps(seen))
"""


def test_spatial_runs_load_no_scipy(tmp_path, tiny_scenario_text):
    seen = _child(tmp_path, SCIPY_PROBE, *_scenarios(
        tmp_path, tiny_scenario_text.replace("n_realizations = 384",
                                             "n_realizations = 16")))
    hbt_modules = [seen.pop("hbt"), seen.pop("hbt run")]
    assert seen == {"start": [], "focused_image": [], "focused_image run": [],
                    "exit": 0, "hbt exit": 0}
    for modules in hbt_modules:
        assert "scipy.signal._sigtools" in modules
        assert "scipy.signal" not in modules


# Loads the kernel first, then scipy.signal, and filters one trace block
# through both.
LOAD_ORDER_PROBE = """\
import json, sys
import numpy as np
from ghostsim import coincidence
kernel = coincidence._linear_filter()
module = sys.modules.get("scipy.signal._sigtools")
before = "scipy.signal" in sys.modules
from scipy.signal import _sigtools, lfilter
z = np.random.default_rng(5).standard_normal(2 * coincidence._BLOCK)
rho = np.exp(-0.05)
s = np.sqrt(1.0 - rho * rho)
zi = np.array([0.3, -0.2])
out, zf = kernel(np.array([s]), np.array([1.0, 0.0, -rho]), z, -1, zi)
ref, ref_zf = lfilter([s], [1.0, 0.0, -rho], z, zi=zi)
print(json.dumps({"signal before": before,
                  "one module": _sigtools is module
                                and module._linear_filter is kernel,
                  "loaded once": coincidence._linear_filter() is kernel,
                  "same bits": out.tobytes() == ref.tobytes()
                               and zf.tobytes() == ref_zf.tobytes()}))
"""


def test_kernel_then_scipy_signal_share_one_module(tmp_path):
    assert _child(tmp_path, LOAD_ORDER_PROBE) == {
        "signal before": False, "one module": True, "loaded once": True,
        "same bits": True}


# A library run, with no CLI to load the kernel in set-up: four workers make
# the first calls into it concurrently.
CONCURRENT_PROBE = """\
import json, sys
import ghostsim as gs
cfg = gs.parse_scenario(open(sys.argv[1]).read())
before = "scipy.signal._sigtools" in sys.modules
runs = [gs.run_scenario(cfg, workers=w)[0][0] for w in (4, 1)]
print(json.dumps({"kernel before": before,
                  "signal after": "scipy.signal" in sys.modules,
                  "histograms": [[h.counts.tolist(), h.total_starts,
                                  h.total_stops] for h in runs]}))
"""


def test_first_kernel_use_from_four_workers(tmp_path):
    hbt = tmp_path / "hbt.scenario"
    hbt.write_text(TINY_HBT, encoding="utf-8")
    seen = _child(tmp_path, CONCURRENT_PROBE, hbt)
    four, one = seen.pop("histograms")
    assert seen == {"kernel before": False, "signal after": False}
    assert four == one and sum(one[0]) > 0


def _module_names(node, local=frozenset()):
    """Names read in node that are not bound locally by an enclosing
    function (a parameter ``field`` does not use an imported ``field``)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
        local = local | {p.arg for p in params if p is not None} | {
            n.id for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    if isinstance(node, ast.Name) and node.id not in local:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _module_names(child, local)


def _unused_imports(path: Path) -> list:
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = set(_module_names(tree))
    # names re-exported through __all__ count as used
    used |= {c.value for n in ast.walk(tree) if isinstance(n, ast.Assign)
             and any(isinstance(t, ast.Name) and t.id == "__all__" for t in n.targets)
             for c in ast.walk(n.value) if isinstance(c, ast.Constant)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in used and "# noqa" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.name}:{alias.lineno} {name}")
    return unused


def test_no_unused_imports_in_src():
    assert [u for p in sorted(SRC.glob("*.py")) for u in _unused_imports(p)] == []


# state that outlives a call without its caller holding it
HIDDEN_CACHES = {("threading", "local"), ("functools", "lru_cache"),
                 ("functools", "cache")}


def _hidden_caches(path: Path) -> list:
    """Uses of HIDDEN_CACHES, as `from module import name` or module.name."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            pairs = [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            pairs = [(node.value.id, node.attr)]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {m}.{n}" for m, n in pairs
                  if (m, n) in HIDDEN_CACHES]
    return found


def test_no_hidden_caches_in_src():
    assert [c for p in sorted(SRC.glob("*.py")) for c in _hidden_caches(p)] == []


def _scipy_signal_imports(path: Path) -> list:
    """Imports of the scipy.signal package or of anything in it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        else:
            continue
        if any(n == "scipy.signal" or n.startswith("scipy.signal.") for n in names):
            found.append(f"{path.name}:{node.lineno}")
    return found


def test_no_scipy_signal_imports_in_src():
    # an hbt run loads only the compiled filter, through coincidence
    assert [i for p in sorted(SRC.glob("*.py")) for i in _scipy_signal_imports(p)] == []


def _private_definitions(tree):
    """(statement, name) for each module-level function, class or constant
    whose name is private (one leading underscore, not a dunder)."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [stmt.name]
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                yield stmt, name


def _references(stmt) -> set:
    """Names a statement reads: bare names, attributes and imported names."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def test_no_unreferenced_private_names_in_src():
    # a private name is matched by name in any other module-level statement
    # of any src/ file; its own definition does not count
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(SRC.glob("*.py"))}
    refs = [(stmt, _references(stmt)) for tree in trees.values()
            for stmt in tree.body]
    dead = [f"{fname}:{stmt.lineno} {name}" for fname, tree in trees.items()
            for stmt, name in _private_definitions(tree)
            if not any(name in names for other, names in refs if other is not stmt)]
    assert dead == []
