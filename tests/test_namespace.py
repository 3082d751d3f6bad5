import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import symguide
from symguide import adjoint, estimator, models

MODULES = ["schedule", "models", "estimator", "adjoint", "guidance", "harness"]


@pytest.mark.parametrize("name", MODULES)
def test_each_public_name_is_declared_once(name):
    module = importlib.import_module(f"symguide.{name}")
    others = {n for m in MODULES if m != name for n in importlib.import_module(f"symguide.{m}").__all__}
    for public in module.__all__:
        obj = getattr(module, public)
        assert obj.__module__ == module.__name__, public
        assert public not in others, public
        assert getattr(symguide, public) is obj, public


def test_package_exports_exactly_the_module_lists():
    names = [n for m in MODULES for n in importlib.import_module(f"symguide.{m}").__all__]
    assert symguide.__all__ == ["__version__", *names]


def test_adjoint_still_resolves_estimator_names():
    # perfbench reads these two through the adjoint module.
    assert adjoint.ButcherTableau is estimator.ButcherTableau
    assert adjoint.estimate_clean_rk is estimator.estimate_clean_rk


ROOT = Path(__file__).resolve().parent.parent


def _referenced_names(path: Path) -> set[str]:
    """Names a file's code uses: names, attributes, imports and string constants, not comments."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value.rsplit(".", 1)[-1])
    return names


def test_each_public_function_has_a_user_outside_its_module():
    # A user is another package module, a perfbench file (its traced names are strings)
    # or the acceptance suite; a public function with none is a second spelling of a value.
    package = ROOT / "src" / "symguide"
    users = [*package.glob("*.py"), *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]
    referenced = {path: _referenced_names(path) for path in users}
    unused = []
    for name in MODULES:
        module = importlib.import_module(f"symguide.{name}")
        outside = [names for path, names in referenced.items() if path != package / f"{name}.py"]
        for public in module.__all__:
            if inspect.isfunction(getattr(module, public)) and not any(public in names for names in outside):
                unused.append(f"{name}.{public}")
    assert unused == []


def test_stage_points_are_read_through_one_accessor():
    # The estimator's forward walk writes stage points and CheckpointTrajectory.stage
    # reads them, so storing fewer of them, or recomputing them, changes one module.
    package = ROOT / "src" / "symguide"
    users = [*package.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]
    assert [path.name for path in users if "stage_states" in _referenced_names(path)] == ["estimator.py"]


def test_counts_are_converted_by_one_rule():
    # A count or step index goes through schedule._count, which rejects what int() would
    # truncate: no int(...) elsewhere in these modules takes a parameter or a loop variable.
    package = ROOT / "src" / "symguide"
    defined = [
        (path.stem, node.name)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in ("_count", "_real")
    ]
    assert sorted(defined) == [("schedule", "_count"), ("schedule", "_real")]
    truncating = []
    for name in ("schedule", "models", "estimator", "adjoint", "guidance"):
        for func in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.Lambda)) or getattr(func, "name", "") == "_count":
                continue
            bound = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
            for loop in ast.walk(func):
                if isinstance(loop, (ast.For, ast.comprehension)):
                    bound |= {n.id for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
            for call in ast.walk(func):
                if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "int":
                    used = {n.id for arg in call.args for n in ast.walk(arg) if isinstance(n, ast.Name)}
                    if used & bound:
                        truncating.append(f"{name}.py:{call.lineno}")
    assert truncating == []
    # _count is also the one test of an integer's type: numbers.Integral appears in it alone,
    # and no module keeps a _seed of its own.
    def integral(node):
        return sum(
            getattr(n, "attr", None) == "Integral" or getattr(n, "id", None) == "Integral"
            or isinstance(n, ast.alias) and n.name == "Integral"
            for n in ast.walk(node)
        )

    referenced = {}
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert "_seed" not in {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}, path.name
        if integral(tree):
            referenced[path.stem] = integral(tree)
    count = next(
        node for node in ast.walk(ast.parse((package / "schedule.py").read_text()))
        if isinstance(node, ast.FunctionDef) and node.name == "_count"
    )
    assert referenced == {"schedule": integral(count)}


def test_sigma_is_checked_by_one_rule():
    # Every model method that takes sigma hands it to schedule._real, the rule of every real
    # parameter: models.py neither converts sigma with float() nor branches on its type.
    tree = ast.parse((ROOT / "src" / "symguide" / "models.py").read_text())
    own = [
        ast.unparse(call) for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("float", "isinstance")
        and call.args and isinstance(call.args[0], ast.Name) and call.args[0].id == "sigma"
    ]
    assert own == []
    checked = {
        ast.unparse(call) for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_real"
        and call.args and isinstance(call.args[0], ast.Name) and call.args[0].id == "sigma"
    }
    assert checked == {"_real(sigma, 'sigma')"}


def test_state_vectors_are_checked_by_one_rule():
    # A state-sized input goes through schedule._vector, so widening states to (B, d) changes
    # one function: no other function compares a .shape with a (..dim,) tuple.  Trajectory
    # widths, tableau fields and layer shapes are not state vectors and keep their own checks.
    assert not hasattr(models.ScoreModel, "_check_vec")
    package = ROOT / "src" / "symguide"
    checks = []
    for path in package.glob("*.py"):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            assert func.name != "_check_vec", path.name
            for cmp in ast.walk(func):
                if not isinstance(cmp, ast.Compare):
                    continue
                sides = [cmp.left, *cmp.comparators]
                shape = any("shape" in {getattr(n, "attr", None) for n in ast.walk(side)} for side in sides)
                dim_tuple = any(
                    isinstance(side, ast.Tuple) and len(side.elts) == 1
                    and "dim" in {getattr(n, "attr", getattr(n, "id", None)) for n in ast.walk(side)}
                    for side in sides
                )
                if shape and dim_tuple:
                    checks.append((path.stem, func.name))
    assert sorted(set(checks)) == [("schedule", "_vector")]


def test_one_method_reads_and_writes_the_gmm_memo():
    # GmmModel.__init__ creates the memo, also for a copy, which __reduce__ rebuilds through it;
    # only _responsibilities reads it, so its key lives in one place.  The schedule's grid memo
    # is likewise created in NoiseSchedule.__init__ and read only by make_sub_schedule.  Both
    # write through schedule._memo_insert, the one bound, eviction and lock of a memo.
    package = ROOT / "src" / "symguide"
    uses = []
    for path in [*package.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]:
        tree = ast.parse(path.read_text())
        scopes = {}
        for top in tree.body:
            if isinstance(top, (ast.ClassDef, ast.FunctionDef)):
                scopes.update({id(n): top.name for n in ast.walk(top)})
            if isinstance(top, ast.ClassDef):
                for func in top.body:
                    if isinstance(func, ast.FunctionDef):
                        scopes.update({id(n): f"{top.name}.{func.name}" for n in ast.walk(func)})
        for node in ast.walk(tree):
            name = {ast.Attribute: "attr", ast.Name: "id", ast.Constant: "value"}.get(type(node))
            if getattr(node, name or "", None) in ("_memo", "_sub_grids", "_memo_insert", "_MEMO_LOCK"):
                ctx = type(getattr(node, "ctx", None)).__name__
                uses.append((path.name, scopes.get(id(node), "<module>"), getattr(node, name), ctx))
    assert sorted(set(uses)) == [
        ("models.py", "GmmModel.__init__", "_memo", "Store"),
        ("models.py", "GmmModel._responsibilities", "_memo", "Load"),
        ("models.py", "GmmModel._responsibilities", "_memo_insert", "Load"),
        ("schedule.py", "<module>", "_MEMO_LOCK", "Store"),
        ("schedule.py", "NoiseSchedule", "_sub_grids", "Store"),
        ("schedule.py", "NoiseSchedule.__init__", "_sub_grids", "NoneType"),
        ("schedule.py", "_memo_insert", "_MEMO_LOCK", "Load"),
        ("schedule.py", "make_sub_schedule", "_memo_insert", "Load"),
        ("schedule.py", "make_sub_schedule", "_sub_grids", "Load"),
    ]


def test_each_model_family_has_one_jacobian_transpose_route():
    # vjp is the taped reverse pass, written once in ScoreModel, so the symplectic adjoint and the
    # stored-activation oracle share their bits.  GmmModel overrides it only to read its memo
    # instead of a tape, and both its routes apply the one contraction _jtv.
    # There is no forward mode: conservation_probe reads its Jacobians through vjp as well.
    assert sorted(models.ScoreModel.__abstractmethods__) == ["eps", "eps_with_tape", "vjp_from_tape"]
    assert not any(hasattr(cls, "jvp") for cls in (models.GmmModel, models.MlpModel, models.AffineModel))
    assert models.MlpModel.vjp is models.AffineModel.vjp is models.ScoreModel.vjp
    tree = ast.parse((ROOT / "src" / "symguide" / "models.py").read_text())
    methods = {
        (cls.name, func.name): func
        for cls in tree.body if isinstance(cls, ast.ClassDef)
        for func in cls.body if isinstance(func, ast.FunctionDef)
    }
    assert sorted(key for key in methods if key[1] == "vjp") == [("GmmModel", "vjp"), ("ScoreModel", "vjp")]
    for name in ("vjp", "vjp_from_tape"):
        body = list(ast.walk(methods["GmmModel", name]))
        assert any(isinstance(n, ast.Attribute) and n.attr == "_jtv" for n in body), name
        assert not any(isinstance(n, ast.MatMult) for n in body), name
    assert "cov" not in _referenced_names(ROOT / "src" / "symguide" / "models.py")


def test_elementwise_finiteness_stays_off_the_hot_path():
    # Every state and costate guard goes through estimator._check_finite, whose dot-product
    # screen runs np.isfinite only on an inf or NaN sum; _finite_norm sizes the message of a
    # guard that has already failed, and conservation_probe may use it to find the failing
    # index of a pairing it already knows is not finite.
    package = ROOT / "src" / "symguide"
    uses = []
    for name in ("estimator", "adjoint"):
        tree = ast.parse((package / f"{name}.py").read_text())
        scopes = {}
        for func in [node for node in tree.body if isinstance(node, ast.FunctionDef)]:
            scopes.update({id(n): func.name for n in ast.walk(func)})
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.isfinite":
                uses.append((f"{name}.py", scopes.get(id(node), "<other>")))
    assert sorted(set(uses)) == [
        ("adjoint.py", "conservation_probe"), ("estimator.py", "_check_finite"), ("estimator.py", "_finite_norm")
    ]
    probe = inspect.getsource(adjoint.conservation_probe)
    assert probe.count("isfinite") == 1 and "argmin(np.isfinite(pairing))" in probe
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        raised = {id(n) for node in ast.walk(tree) if isinstance(node, ast.Raise) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_finite_norm":
                assert id(node) in raised, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("make", [
    lambda: models.MlpModel.random([3, 8, 3], seed=1),
    lambda: models.AffineModel(np.diag([0.5, -1.0, 2.0]), np.ones(3)),
])
def test_mlp_and_affine_models_keep_no_state_between_calls(make):
    # A memo of MLP activations would hold the tapes the symplectic adjoint avoids storing.
    model = make()
    before = {k: (v, list(v) if isinstance(v, list) else None) for k, v in vars(model).items()}
    x_bar, v = np.array([0.3, -0.2, 1.1]), np.array([1.0, 2.0, -0.5])
    for _ in range(2):
        model.eps(x_bar, 0.7)
        model.vjp(x_bar, 0.7, v)
        model.vjp_from_tape(model.eps_with_tape(x_bar, 0.7)[1], v)
    assert vars(model).keys() == before.keys()
    for key, (value, items) in before.items():
        assert vars(model)[key] is value, key
        if items is not None:
            assert len(value) == len(items) and all(a is b for a, b in zip(value, items)), key


def test_model_arrays_are_frozen_by_one_rule():
    # schedule._frozen copies, checks finite, aligns and freezes every array an object keeps, in
    # the whole package.  setflags runs elsewhere only in the three per-call records that freeze
    # what was just computed, where a copy would run on every guided step.  No constructor
    # checks finiteness itself; NoiseSchedule.__init__ checks only its derived sigmas for overflow.
    package = ROOT / "src" / "symguide"
    defined, setflags, isfinite = [], set(), set()
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        scopes = {}
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                scopes.update({id(n): node.name for n in ast.walk(node)})
            elif isinstance(node, ast.ClassDef):
                for func in [f for f in node.body if isinstance(f, ast.FunctionDef)]:
                    scopes.update({id(n): f"{node.name}.{func.name}" for n in ast.walk(func)})
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "_frozen":
                defined.append(path.stem)
            scope = (path.stem, scopes.get(id(node), "<module>"))
            if isinstance(node, ast.Attribute) and node.attr == "setflags":
                setflags.add(scope)
            if isinstance(node, ast.Attribute) and node.attr == "isfinite" and scope[1].endswith("init__"):
                isfinite.add(scope)
    assert defined == ["schedule"]
    assert sorted(setflags) == [
        ("estimator", "CheckpointTrajectory.__post_init__"),
        ("guidance", "SampleRecord.__post_init__"),
        ("models", "GmmModel._mixture"),
        ("schedule", "_frozen"),
    ]
    assert sorted(isfinite) == [("schedule", "NoiseSchedule.__init__")]


def test_products_go_through_ndarray_dot():
    # Every matrix and vector product in the package is ndarray.dot, which makes the BLAS call
    # `@` makes with less dispatch: no `@` or `@=` anywhere under src/symguide.
    package = ROOT / "src" / "symguide"
    matmuls = [
        f"{path.name}:{node.lineno}"
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult)
    ]
    assert matmuls == []


def test_sub_step_grids_are_read_in_place():
    # The estimator's grid rule: the read-only make_sub_schedule array is the one form of the grid,
    # so no sigma grid in estimator.py or adjoint.py (a sig or sigma name, or a trajectory's .sigma)
    # is subscripted or passed to tolist(), and the loops that step along one read it with .item.
    package = ROOT / "src" / "symguide"

    def grid(node):
        return getattr(node, "id", None) in ("sig", "sigma") or getattr(node, "attr", None) == "sigma"

    copies, readers = [], set()
    for name in ("estimator", "adjoint"):
        for func in ast.walk(ast.parse((package / f"{name}.py").read_text())):
            if not isinstance(func, ast.FunctionDef):
                continue
            for node in ast.walk(func):
                if isinstance(node, ast.Subscript) and grid(node.value):
                    copies.append(f"{name}.py:{node.lineno}")
                elif isinstance(node, ast.Attribute) and grid(node.value):
                    if node.attr == "tolist":
                        copies.append(f"{name}.py:{node.lineno}")
                    elif node.attr == "item":
                        readers.add((name, func.name))
    assert copies == []
    assert sorted(readers) == [
        ("adjoint", "_check_traj"), ("adjoint", "_costate_sweep"), ("adjoint", "_taped_backprop"),
        ("adjoint", "vanilla_adjoint_grad"), ("estimator", "_walk"), ("estimator", "stage"),
    ]
