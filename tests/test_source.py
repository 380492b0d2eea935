"""Guards over the package source itself."""

import ast
import dataclasses
import re
from pathlib import Path

import pytest

import secure_isac
from secure_isac import channel, config, engine, followers, link, scenario

SRC = Path(secure_isac.__file__).resolve().parent


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check written as one vanishes;
    # package checks raise named errors (InvariantError) instead
    files = sorted(SRC.glob("*.py"))
    assert len(files) >= 10
    found = [f"{path.name}:{node.lineno}" for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_name_and_method_is_used_in_the_package():
    # a helper or a method that only tests call belongs in the tests; the
    # references inside a definition's own body (recursion) do not count, and
    # dunder methods are called by Python itself
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    defined, named = [], []
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, DEFINITIONS):
                defined.append((module, top.name, top))
            if isinstance(top, ast.ClassDef):
                defined += [(module, f"{top.name}.{item.name}", item) for item in top.body
                            if isinstance(item, DEFINITIONS)
                            and not re.fullmatch("__.*__", item.name)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    named.append((node.id, node))
                elif isinstance(node, ast.Attribute):
                    named.append((node.attr, node))
                elif isinstance(node, ast.alias):
                    named.append((node.name, node))
    unused = []
    for module, name, definition in defined:
        own = {id(node) for node in ast.walk(definition)}
        short = name.rpartition(".")[2]
        if not any(n == short and id(where) not in own for n, where in named):
            unused.append(f"{module}:{name}")
    assert unused == []


# Every parameter default the package keeps, as module.function.parameter.
# None of them copies a config value: config.py's fields are the only home of
# those, so a library caller who omits one cannot run a different model from
# the simulator.
KEPT_DEFAULTS = {
    "cli.main.argv",
    "config.knob.gt", "config.knob.ge", "config.knob.le", "config.knob.choices",
}


def test_parameter_defaults_are_only_the_kept_ones():
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                positional = args.posonlyargs + args.args
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                found |= {f"{path.stem}.{node.name}.{a.arg}" for a in defaulted}
    assert found == KEPT_DEFAULTS


@pytest.mark.parametrize("cls", [followers.FeasibilitySpec, link.SlotContext,
                                 channel.PathLossModel])
def test_model_inputs_declare_no_field_default(cls):
    # the power box, budget, leakage cap and grid, the eavesdropper noise
    # floor and node coupling, and the shadowing spread come from the caller
    defaulted = [f.name for f in dataclasses.fields(cls)
                 if f.default is not dataclasses.MISSING
                 or f.default_factory is not dataclasses.MISSING]
    assert defaulted == []


def test_every_state_and_config_field_is_read_in_the_package():
    # a field that no code reads is dead state or a dead knob; an attribute
    # load of its name anywhere in the package counts as a read (by name, not
    # by type). A config field must be read outside config.py, whose parsing,
    # validation and serialization touch every field.
    readers = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                readers.setdefault(node.attr, set()).add(path.name)
    sections = [type(getattr(config.ScenarioConfig(), f.name))
                for f in dataclasses.fields(config.ScenarioConfig)]
    unread = [f"{cls.__name__}.{f.name}"
              for cls in (scenario.Scenario, scenario.World, engine.SlotState)
              for f in dataclasses.fields(cls) if f.name not in readers]
    unread += [f"{cls.__name__}.{f.name}"
               for cls in [config.ScenarioConfig] + sections
               for f in dataclasses.fields(cls)
               if not readers.get(f.name, set()) - {"config.py"}]
    assert len(sections) >= 10
    assert unread == []


SEEDERS = {"default_rng", "SeedSequence", "Generator", "BitGenerator", "PCG64",
           "PCG64DXSM", "MT19937", "Philox", "SFC64", "RandomState"}


def test_only_substream_builds_generators():
    # every draw comes from a keyed channel.substream or channel.substream_normals,
    # so no other code seeds, builds or wraps a generator or a bit generator,
    # and only substream_normals sets a bit generator's state
    calls, state_sets = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        homes = {id(node): top.name for top in tree.body
                 if isinstance(top, DEFINITIONS) for node in ast.walk(top)}
        calls += [(path.name, homes.get(id(node)), node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Call)
                  and getattr(node.func, "id", getattr(node.func, "attr", None)) in SEEDERS]
        state_sets += [(path.name, homes.get(id(node))) for node in ast.walk(tree)
                       if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                       and node.attr == "state"]
    assert {(module, home) for module, home, _ in calls} == {
        ("channel.py", "substream"), ("channel.py", "substream_normals")}
    assert set(state_sets) == {("channel.py", "substream_normals")}


def _einsums(node):
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr == "einsum"]


def _called(tree):
    return {call.func.id for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)}


def _inlined(trees, homes, formulas):
    """Einsum calls outside the home functions whose formula is one of
    `formulas`, as module:line."""
    inside = {id(call) for home in homes for call in _einsums(home)}
    return [f"{module}:{call.lineno}" for module, tree in trees.items()
            for call in _einsums(tree) if id(call) not in inside
            and isinstance(call.args[0], ast.Constant) and call.args[0].value in formulas]


def test_served_coupling_and_an_residual_each_have_one_home():
    # the served set's coupling |h_u^H b_v|^2 and the AN residual
    # ||(I - QQ^H) h||^2 are each computed by one link.py function; the
    # scenario's cache and the slot context call it and inline no einsum of it
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    homes = {top.name: top for top in trees["link.py"].body
             if isinstance(top, ast.FunctionDef)
             and top.name in ("served_coupling", "an_residual")}
    formulas = {call.args[0].value for home in homes.values() for call in _einsums(home)}
    assert len(homes) == 2 and len(formulas) == 4
    assert _inlined(trees, homes.values(), formulas) == []
    assert set(homes) <= _called(trees["scenario.py"])
    assert "an_residual" in _called(trees["engine.py"])


def test_delivered_watts_have_one_home():
    # the watts profiles deliver through a gain table are contracted only by
    # link._delivered, so that a row scores alike in every block: the
    # evaluator calls it, and no module inlines its contraction or takes a
    # BLAS product of a table
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(SRC.glob("*.py"))}
    (home,) = [top for top in trees["link.py"].body
               if isinstance(top, ast.FunctionDef) and top.name == "_delivered"]
    formulas = {call.args[0].value for call in _einsums(home)}
    assert formulas == {"...k,kx->...x"}
    assert _inlined(trees, [home], formulas) == []
    (context,) = [top for top in trees["link.py"].body
                  if isinstance(top, ast.ClassDef) and top.name == "SlotContext"]
    for method in ("leakage_at_served", "eve_rate_max"):
        (body,) = [item for item in context.body if getattr(item, "name", None) == method]
        assert "_delivered" in _called(body), method
    tables = {"jam_to_eve", "jam_to_thn", "jam_to_hn"}
    products = [f"{module}:{node.lineno}" for module, tree in trees.items()
                for node in ast.walk(tree)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and any(isinstance(side, ast.Attribute) and side.attr in tables
                        for side in (node.left, node.right))]
    assert products == []


BLAS_PRODUCTS = {"dot", "vdot", "matmul"}


def test_blas_products_only_in_the_precoder():
    # a BLAS product's rounding may follow the thread count and the shape of
    # the batch it runs in, so outside link.build_precoder every contraction
    # is an einsum or an elementwise reduction: no @, np.dot, np.vdot, .dot
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        homes = {id(node): top.name for top in tree.body
                 if isinstance(top, DEFINITIONS) for node in ast.walk(top)}
        found += [(path.name, homes.get(id(node))) for node in ast.walk(tree)
                  if (isinstance(node, (ast.BinOp, ast.AugAssign))
                      and isinstance(node.op, ast.MatMult))
                  or (isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS)]
    assert set(found) == {("link.py", "build_precoder")}
