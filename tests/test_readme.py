"""The README's code examples run as documented, and its list of names is
the package's public surface."""

import importlib
import json
import re
import shutil
import types
from pathlib import Path

import membrane_eig as me

from conftest import build_stretch_scene

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


MODULES = [
    importlib.import_module(f"membrane_eig.{name}")
    for name in (
        "checks", "oracles", "scene", "mesh", "fem", "models", "invariants", "svd"
    )
]


def _section(title):
    return re.search(rf"^## {title}\n(.*?)^## ", README, flags=re.M | re.S).group(1)


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, flags=re.M | re.S)


def test_quickstart_block_runs():
    quickstart = _blocks("python")[0]
    assert "sheet_eigensystem(mu=1.0, svd=svd32(f))" in quickstart
    namespace = {}
    exec(compile(quickstart, "README.md", "exec"), namespace)
    assert namespace["dense"].shape == (6, 6)


def test_solve_scene_block_runs(tmp_path, monkeypatch):
    block = _blocks("python")[1]
    assert 'solve_scene("scene.json")' in block
    shutil.move(build_stretch_scene(tmp_path), tmp_path / "scene.json")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["report"].termination == "converged"
    assert (tmp_path / "out" / "report.json").is_file()


def test_json_scene_example_loads(tmp_path):
    (example,) = _blocks("json")
    spec = json.loads(example)
    rest, tris = me.grid_mesh(4, 4)
    me.save_obj(tmp_path / spec["mesh"], rest, tris)
    (tmp_path / "scene.json").write_text(example, encoding="utf-8")
    problem, x0, config, output_dir = me.load_scene(tmp_path / "scene.json")
    assert problem.n_vertices == len(rest)
    assert list(problem.pin_vertices) == [0]
    assert list(problem.gravity) == spec["gravity"]
    assert (config.tol, config.max_iters) == (spec["tol"], spec["max_iters"])
    assert output_dir == (tmp_path / spec["output_dir"]).resolve()


def test_package_all_is_the_module_lists():
    names = ["__version__"] + [n for m in MODULES for n in m.__all__]
    assert me.__all__ == names
    assert len(set(names)) == len(names) == 41
    assert all(getattr(me, n) is getattr(m, n) for m in MODULES for n in m.__all__)


def test_readme_box_names_exactly_the_package_all():
    named = set(re.findall(r"`(\w+)`", _section("What is in the box")))
    assert set(me.__all__) <= named
    # Any other public name of a module that the section names is missing
    # from that module's __all__.
    public = {
        n for m in MODULES for n, v in vars(m).items()
        if not n.startswith("_") and not isinstance(v, types.ModuleType)
    }
    assert named & public <= set(me.__all__)
