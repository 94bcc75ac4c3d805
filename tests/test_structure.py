"""Structure guards for one dispatch point per concept: the statistic table
stays private to ``statistics``, and the only branches on the model class are
the shifted route's two equicorrelated requirements in ``divergences`` (every
other route asks the model for its block count, exchangeable blocks and block
sums).  The only branches on the prior class are the shifted route (in
``ingster_suslina_chisq``, ``risk_lower_bound`` and the CLI) and the point
mass closed form; every other route asks the prior for its support law, and
no prior's sign rule is compared outside the prior classes.  Each kind's
constants (alpha at its thresholds) are resolved by the kind table alone,
and ``procedures`` names a kind only where it plans one.  ``rates`` decides
every equicorrelated, grouped and rank-one regime: those plans compare no
square root, omega(v) or pattern support of their own, and ``procedures``
imports nothing from ``geometry`` and no private name from ``rates``.  The
risk panel's prior and ``risk.certificate_prior`` compare no square root or
omega(v) of their own, and the acceptance module's ``_certificate_prior``
only delegates to ``risk.certificate_prior``: it neither branches nor names a
prior class.  ``divergences._log_sum_exp`` is the only log-sum-exp.  No
module imports a name it does not use, and every defaulted parameter of a
``src`` function, and every defaulted dataclass or ``NamedTuple`` field, is
passed by some call, other than those an interface's signature fixes.  The
runtime needs numpy only: no module imports scipy, eagerly or on first use.
The acceptance module, which the benchmark loads as its grid table, imports
neither scipy nor pytest when it is loaded, and building every grid cell's
alternatives and certificate prior does not load ``numpy.ma``."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corrdetect"
MODEL_ISINSTANCE = re.compile(r"isinstance\(\s*[\w.]+\s*,\s*\(?\s*(Equicorrelated|Grouped|RankOne)\b")
MAX_MODEL_ISINSTANCE = 2
PRIORS = {"PointMass", "UniformSparse", "SingleGroupSparse", "GroupSupported", "ShiftedSparse"}
MAX_PRIOR_ISINSTANCE = 4
# a private of ``statistics`` named through the module or imported from it
PRIVATE_REACH_IN = re.compile(r"\bstats\._|statistics import[ (]*_")


def _sources():
    return sorted(SRC.glob("*.py"))


def test_sources_are_found():
    assert {"statistics.py", "procedures.py"} <= {path.name for path in _sources()}


def test_no_private_statistics_reach_ins():
    offenders = [f"{path.name}:{number}" for path in _sources() if path.name != "statistics.py"
                 for number, line in enumerate(path.read_text().splitlines(), 1)
                 if PRIVATE_REACH_IN.search(line)]
    assert offenders == []


def test_model_isinstance_checks_stay_few():
    counts = {path.name: len(MODEL_ISINSTANCE.findall(path.read_text())) for path in _sources()}
    assert counts["statistics.py"] == 0
    assert sum(counts.values()) <= MAX_MODEL_ISINSTANCE, counts


def _names(node) -> set:
    """The class names an ``isinstance`` second argument refers to."""
    if isinstance(node, ast.Tuple):
        return set().union(*(_names(elt) for elt in node.elts))
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return {node.id} if isinstance(node, ast.Name) else set()


def _prior_isinstance_checks(tree) -> int:
    return sum(1 for node in ast.walk(tree)
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "isinstance" and len(node.args) == 2
               and _names(node.args[1]) & PRIORS)


def test_prior_isinstance_checks_stay_few():
    counts = {path.name: _prior_isinstance_checks(ast.parse(path.read_text()))
              for path in _sources()}
    assert sum(counts.values()) <= MAX_PRIOR_ISINSTANCE, counts


def test_prior_guard_sees_every_form():
    forms = ["isinstance(prior, PointMass)", "isinstance(p, divergences.GroupSupported)",
             "isinstance(x, (int, ShiftedSparse))",
             "def f(a):\n    return isinstance(a, UniformSparse)"]
    for form in forms:
        assert _prior_isinstance_checks(ast.parse(form)) == 1, form
    assert _prior_isinstance_checks(ast.parse("isinstance(alt, SignalSpec)")) == 0


def _inside(tree, wanted) -> set:
    """ids of the nodes inside the function or class definitions ``wanted``
    picks, and of the definitions themselves."""
    return {id(node) for scope in ast.walk(tree)
            if isinstance(scope, (ast.FunctionDef, ast.ClassDef)) and wanted(scope)
            for node in ast.walk(scope)}


def _reads_signs(node) -> bool:
    """``<prior>.signs`` or ``getattr(<prior>, "signs", ...)``; the CLI's flag
    namespace ``args`` is not a prior."""
    if isinstance(node, ast.Attribute):
        return node.attr == "signs" and not (isinstance(node.value, ast.Name)
                                             and node.value.id == "args")
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "getattr" and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant) and node.args[1].value == "signs")


def test_sign_rules_are_compared_only_inside_the_priors():
    offenders = []
    for path in _sources():
        tree = ast.parse(path.read_text())
        inside = _inside(tree, lambda scope: scope.name in PRIORS)
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Compare) and id(node) not in inside
                      and any(_reads_signs(side) for side in [node.left, *node.comparators])]
    assert offenders == []


def _kind_literals(tree) -> list:
    """Lines of string literals naming a constituent kind outside the
    ``_plan*`` functions."""
    from corrdetect.statistics import REDUCTIONS

    plans = _inside(tree, lambda scope: scope.name.startswith("_plan"))
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in REDUCTIONS
            and id(node) not in plans]


def test_procedures_names_a_kind_only_in_its_plans():
    assert _kind_literals(ast.parse((SRC / "procedures.py").read_text())) == []


def test_kind_guard_sees_every_form():
    form = ("def _plan_x():\n    return ('a', 'noiseless')\n"
            "def _values(kind):\n    return kind == 'noiseless' or {'chisq_scan': 1}\n")
    assert _kind_literals(ast.parse(form)) == [4, 4]


def test_alpha_is_resolved_only_by_the_kind_table():
    """No memo of alpha, and no call of it in ``statistics`` or
    ``procedures`` outside ``statistics.resolved``."""
    gaussian = ast.parse((SRC / "gaussian.py").read_text())
    assert not any(isinstance(node, (ast.Name, ast.Attribute))
                   and "lru_cache" in (getattr(node, "id", None), getattr(node, "attr", None))
                   for node in ast.walk(gaussian))
    offenders = []
    for name in ("statistics.py", "procedures.py"):
        tree = ast.parse((SRC / name).read_text())
        inside = _inside(tree, lambda scope: scope.name == "resolved")
        offenders += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                      and node.func.id == "alpha" and id(node) not in inside]
    assert offenders == []


# the plans that read their branch from the rate, and the calls that would
# decide a regime boundary again
RATE_PLANS = ("_plan_equicorrelated", "_plan_grouped", "_plan_rank_one")
REGIME_CALLS = re.compile(r"^(sqrt|count_nonzero|\w*omega)$")


def _called(func) -> str:
    return func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")


def _regime_decisions(tree) -> list:
    """Lines where a rate plan calls sqrt, omega or count_nonzero, and lines
    that import from ``geometry``, eagerly or on first use."""
    plans = _inside(tree, lambda scope: scope.name in RATE_PLANS)
    calls = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Call)
             and id(node) in plans and REGIME_CALLS.match(_called(node.func))]
    imports = [node.lineno for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and ((node.module or "").split(".")[-1] == "geometry"
                    or any(alias.name == "geometry" for alias in node.names))
               or isinstance(node, ast.Import)
               and any(alias.name.split(".")[-1] == "geometry" for alias in node.names)]
    return sorted(calls + imports)


def test_rates_decide_every_planned_regime():
    assert _regime_decisions(ast.parse((SRC / "procedures.py").read_text())) == []


def test_regime_guard_sees_every_form():
    form = ("from .geometry import omega as pattern_omega\n"
            "from . import geometry\n"
            "import corrdetect.geometry\n"
            "def _plan_equicorrelated(p, s):\n"
            "    return s < math.sqrt(p) or s <= sqrt(p)\n"
            "def _plan_rank_one(p, s, v):\n"
            "    from corrdetect.geometry import omega\n"
            "    return s > pattern_omega(v) or s < np.count_nonzero(v) or geometry.omega(v)\n"
            "def _plan_grouped(p, s):\n"
            "    return s < math.sqrt(p)\n")
    assert _regime_decisions(ast.parse(form)) == [1, 2, 3, 5, 5, 7, 8, 8, 8, 10]


def _private_rates_names(tree) -> list:
    """Lines that import an underscore name from ``rates``, or read one
    through the module under any name it is imported as."""
    modules, lines = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[-1] == "rates":
                lines += [node.lineno for alias in node.names if alias.name.startswith("_")]
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "rates"}
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name.split(".")[-1] == "rates"}
    return sorted(lines + [node.lineno for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute) and node.attr.startswith("_")
                           and ast.unparse(node.value) in modules])


def test_procedures_imports_nothing_private_from_rates():
    assert _private_rates_names(ast.parse((SRC / "procedures.py").read_text())) == []


def test_private_rates_guard_sees_every_form():
    form = ("from .rates import _cell, rate_grouped\n"
            "from corrdetect.rates import (rate_for,\n"
            "                              _psi2_sq)\n"
            "from . import rates\n"
            "from .. import rates as r\n"
            "import corrdetect.rates\n"
            "from .models import _BLOCK_ELEMENTS\n"
            "def f():\n"
            "    return rates._JUMPS, r._cell, corrdetect.rates._psi2_sq, rates.rate_for\n")
    assert _private_rates_names(ast.parse(form)) == [1, 2, 9, 9, 9]


# the priors of the risk panel and the certificate, which read their regimes
# from the rate, and the calls that would decide a regime boundary again
PRIOR_RULES = ("_panel_prior", "default_alternatives", "certificate_prior")
ROOT_CALLS = re.compile(r"^(sqrt|isqrt|\w*omega)$")


def _root_comparisons(tree) -> list:
    """Lines where a comparison in the panel or certificate prior rules
    compares a sqrt, isqrt or omega call."""
    rules = _inside(tree, lambda scope: scope.name in PRIOR_RULES)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Compare) and id(node) in rules
                  and any(isinstance(sub, ast.Call) and ROOT_CALLS.match(_called(sub.func))
                          for sub in ast.walk(node)))


def test_prior_rules_compare_no_root_or_omega():
    assert _root_comparisons(ast.parse((SRC / "risk.py").read_text())) == []


def test_root_comparison_guard_sees_every_form():
    form = ("def default_alternatives(p, s):\n"
            "    return s < math.sqrt(p) or s > p - isqrt(p)\n"
            "def certificate_prior(p, s, v):\n"
            "    if s <= pattern_omega(v):\n"
            "        return min(s, math.isqrt(p))\n"
            "def other(p, s):\n"
            "    return s < math.sqrt(p)\n")
    assert _root_comparisons(ast.parse(form)) == [2, 2, 4]


def _rules_in(tree, name: str) -> list:
    """Lines inside the function ``name`` that branch (``if``, a conditional
    expression or ``match``) or name a prior class."""
    inside = _inside(tree, lambda scope: scope.name == name)
    return sorted(node.lineno for node in ast.walk(tree) if id(node) in inside
                  and (isinstance(node, (ast.If, ast.IfExp, ast.Match))
                       or isinstance(node, (ast.Name, ast.Attribute)) and _names(node) & PRIORS))


def test_acceptance_certificate_prior_only_delegates():
    tree = ast.parse((Path(__file__).resolve().parent / "test_acceptance.py").read_text())
    assert any(isinstance(node, ast.FunctionDef) and node.name == "_certificate_prior"
               for node in ast.walk(tree))
    assert _rules_in(tree, "_certificate_prior") == []


def test_delegate_guard_sees_every_form():
    form = ("def _certificate_prior(p, s):\n"
            "    if s > p:\n"
            "        return 1\n"
            "    x = 1 if s else 2\n"
            "    return divergences.ShiftedSparse(p, s) or GroupSupported(p)\n"
            "def other(p):\n"
            "    if p:\n"
            "        return UniformSparse(p)\n")
    assert _rules_in(ast.parse(form), "_certificate_prior") == [2, 4, 5, 5]


def _sign_matching_literals(tree, module: str) -> list:
    """Lines where the literal "match_pattern" appears in a module other than
    the CLI, outside the prior classes and ``SIGN_RULES`` of ``divergences``,
    and other than as the ``signs=`` of a call (building a prior names its
    rule; applying the rule is the prior's)."""
    if module == "cli.py":
        return []
    allowed = {id(kw.value) for node in ast.walk(tree) if isinstance(node, ast.Call)
               for kw in node.keywords if kw.arg == "signs"}
    if module == "divergences.py":
        allowed |= _inside(tree, lambda scope: scope.name in PRIORS)
        allowed |= {id(node) for assign in ast.walk(tree) if isinstance(assign, ast.Assign)
                    and any(getattr(target, "id", None) == "SIGN_RULES"
                            for target in assign.targets)
                    for node in ast.walk(assign)}
    return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
            and node.value == "match_pattern" and id(node) not in allowed]


def test_sign_matching_lives_in_the_priors():
    offenders = [f"{path.name}:{line}" for path in _sources()
                 for line in _sign_matching_literals(ast.parse(path.read_text()), path.name)]
    assert offenders == []


def test_sign_matching_guard_sees_every_form():
    form = ("def f(rule, v):\n    if rule == 'match_pattern':\n        return v\n"
            "UniformSparse(4, 2, 1.0, signs='match_pattern')\n")
    assert _sign_matching_literals(ast.parse(form), "geometry.py") == [2]
    assert _sign_matching_literals(ast.parse(form), "cli.py") == []


def _unused_imports(text: str) -> list:
    """Names a module imports and never reads, nor exports in ``__all__``;
    a name on a line marked ``# noqa: F401`` is skipped."""
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used |= {elt.value for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and any(getattr(target, "id", None) == "__all__" for target in node.targets)
             for elt in node.value.elts}
    return [f"{alias.lineno}:{bound}" for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            for bound in [alias.asname or alias.name.split(".")[0]]
            if bound not in used and "# noqa: F401" not in lines[alias.lineno - 1]]


def test_src_imports_no_unused_name():
    offenders = [f"{path.name}:{entry}" for path in _sources()
                 for entry in _unused_imports(path.read_text())]
    assert offenders == []


def test_unused_import_guard_sees_every_form():
    text = ("import os\nimport numpy as np\nfrom .a import (\n    b,\n"
            "    c,  # noqa: F401  kept for a wrapper\n    d,\n)\n"
            "from __future__ import annotations\n__all__ = ['d']\nprint(np)\n")
    assert _unused_imports(text) == ["1:os", "4:b"]


# defaulted parameters that an interface fixes: numpy's ``ISeedSequence``
# signature, and the kind table's ``parts(a, model, params)``
INTERFACE_DEFAULTS = {"streams._Seeds.generate_state(dtype)", "statistics._chisq(model)",
                      "statistics._chisq(params)"}


def _field_keywords(node) -> dict:
    """The keywords of a ``field(...)`` value, or None for another value."""
    value = node.value
    if isinstance(value, ast.Call) and _called(value.func) == "field":
        return {kw.arg: kw.value for kw in value.keywords}
    return None


def _init_field(node) -> bool:
    """A class-body ``name: annotation [= value]`` that ``__init__`` takes:
    not a ``ClassVar`` and not ``field(init=False)``."""
    if not (isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name)):
        return False
    annotation = node.annotation
    init = (_field_keywords(node) or {}).get("init")
    return (_called(getattr(annotation, "value", annotation)) != "ClassVar"
            and not (isinstance(init, ast.Constant) and init.value is False))


def _has_default(node) -> bool:
    keywords = _field_keywords(node)
    if keywords is None:
        return node.value is not None
    return "default" in keywords or "default_factory" in keywords


def _defaulted_fields(scope) -> list:
    """``_defaulted_params`` entries of a dataclass or ``NamedTuple`` class's
    defaulted fields (a value other than ``field(...)``, or a ``field`` with
    a default or a default factory): the class is called by its name, or by
    ``dataclasses.replace`` with the field by name.  Positions count the
    class's own ``__init__`` fields in order (no field is inherited in
    ``src``)."""
    decorators = [d.func if isinstance(d, ast.Call) else d for d in scope.decorator_list]
    if not ("dataclass" in map(_called, decorators)
            or "NamedTuple" in map(_called, scope.bases)):
        return []
    fields = [node for node in scope.body if _init_field(node)]
    return [(scope.name, (scope.name, "replace"), node, index, node.target.id)
            for index, node in enumerate(fields) if _has_default(node)]


def _defaulted_params(tree) -> list:
    """(name, callees, definition, positional index or None, parameter) for
    each defaulted parameter of a module-level function or method, and each
    defaulted dataclass or ``NamedTuple`` field; a method's index counts from
    its first argument after ``self``, and ``__init__`` is called by its
    class name."""
    out = []
    for scope in ast.walk(tree):
        if not isinstance(scope, (ast.Module, ast.ClassDef)):
            continue
        if isinstance(scope, ast.ClassDef):
            out += _defaulted_fields(scope)
        for node in scope.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            method = isinstance(scope, ast.ClassDef) and not any(
                _called(d) == "staticmethod" for d in node.decorator_list)
            name = (f"{scope.name}.{node.name}" if isinstance(scope, ast.ClassDef)
                    else node.name)
            callee = scope.name if node.name == "__init__" else node.name
            positional = node.args.posonlyargs + node.args.args
            first = len(positional) - len(node.args.defaults)
            out += [(name, (callee,), node, i - method, arg.arg)
                    for i, arg in enumerate(positional) if i >= first]
            out += [(name, (callee,), node, None, arg.arg)
                    for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                    if default is not None]
    return out


def _calls(tree):
    """(call, callee name, positional args, keywords); ``partial(f, ...)``
    counts as a call of ``f``, and ``replace(obj, ...)`` passes only its
    keywords."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            if _called(node.func) == "partial" and node.args:
                yield node, _called(node.args[0]), node.args[1:], node.keywords
            elif _called(node.func) == "replace":
                yield node, "replace", node.args[1:], node.keywords
            else:
                yield node, _called(node.func), node.args, node.keywords


def _passes(args, keywords, index, param) -> bool:
    """The call passes ``param`` by name, by ``**``, by position or by ``*``."""
    return (any(kw.arg in (param, None) for kw in keywords)
            or index is not None and (len(args) > index
                                      or any(isinstance(a, ast.Starred) for a in args)))


def _unpassed_defaults(defining: dict, calling: list) -> list:
    """``module.function(parameter)`` for each defaulted parameter of the
    ``defining`` trees ({module: tree}) that no call in the ``calling`` trees
    passes, calls from inside the function itself aside, and
    ``module.Class(field)`` for each such field.  Calls are matched by the
    bare name, so a namesake's call counts as a use."""
    calls = [found for tree in calling for found in _calls(tree)]
    unpassed = []
    for module, tree in defining.items():
        for name, callees, node, index, param in _defaulted_params(tree):
            own = {id(sub) for sub in ast.walk(node)}
            if not any(called in callees and id(call) not in own
                       and _passes(args, keywords, index, param)
                       for call, called, args, keywords in calls):
                unpassed.append(f"{module}.{name}({param})")
    return unpassed


def test_every_defaulted_parameter_takes_a_second_value():
    """A default that no caller overrides is a constant: no call in ``src``,
    ``tests``, ``benchmarks`` or ``demos`` passing it means it should go."""
    root = SRC.parents[1]
    defining = {path.stem: ast.parse(path.read_text()) for path in _sources()}
    calling = list(defining.values()) + [
        ast.parse(path.read_text()) for folder in ("tests", "benchmarks", "demos")
        for path in sorted((root / folder).rglob("*.py"))]
    assert set(_unpassed_defaults(defining, calling)) == INTERFACE_DEFAULTS


def test_default_guard_sees_every_form():
    form = ast.parse(
        "def f(a, b=1, *, c=2):\n    return f(a, 0, c=3)\n"
        "def g(a, b=1, c=2, d=3, *, e=4):\n    pass\n"
        "class K:\n"
        "    def __init__(self, a=1, b=2):\n        pass\n"
        "    def m(self, a=1, b=2):\n        pass\n"
        "    @staticmethod\n"
        "    def s(a=1):\n        pass\n")
    calls = ast.parse("g(0, 1)\ng(*xs, **kw)\nK(b=5)\nk.m(0)\npartial(K.s, 7)\n"
                      "h = partial(g, 0, 1, 2)\n")
    assert _unpassed_defaults({"mod": form}, [form, calls]) == [
        "mod.f(b)", "mod.f(c)", "mod.K.__init__(a)", "mod.K.m(b)"]
    assert _unpassed_defaults({"mod": form}, [form]) == [
        "mod.f(b)", "mod.f(c)", "mod.g(b)", "mod.g(c)", "mod.g(d)", "mod.g(e)",
        "mod.K.__init__(a)", "mod.K.__init__(b)", "mod.K.m(a)", "mod.K.m(b)", "mod.K.s(a)"]


def test_default_guard_sees_every_field_form():
    form = ast.parse(
        "@dataclass(frozen=True)\n"
        "class D:\n"
        "    kind: ClassVar[str] = 'd'\n"
        "    a: int\n"
        "    derived: int = field(init=False)\n"
        "    b: int = 1\n"
        "    c: list = field(default_factory=list)\n"
        "    d: int = field(default=2, repr=False)\n"
        "    e: int = 3\n"
        "    f: int = 4\n"
        "class T(NamedTuple):\n"
        "    a: int\n"
        "    b: int = 1\n"
        "    c: int = 2\n"
        "class Plain:\n"
        "    a: int = 1\n"
        "def g(d=1):\n    pass\n")
    calls = ast.parse("D(0, 1)\nD(0, c=[])\nreplace(x, d=5)\npartial(D, 0, 1, 2, 3, 4)\n"
                      "T(0, *xs)\n")
    assert _unpassed_defaults({"mod": form}, [form, calls]) == ["mod.g(d)", "mod.D(f)"]
    assert _unpassed_defaults({"mod": form}, [form]) == [
        "mod.g(d)", "mod.D(b)", "mod.D(c)", "mod.D(d)", "mod.D(e)", "mod.D(f)", "mod.T(b)",
        "mod.T(c)"]


def _is_scipy(name) -> bool:
    return isinstance(name, str) and name.split(".")[0] == "scipy"


def _imports_scipy(node) -> bool:
    """``import scipy...``, ``from scipy... import``, or
    ``__import__``/``import_module`` of a literal scipy module name."""
    if isinstance(node, ast.Import):
        return any(_is_scipy(alias.name) for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        return _is_scipy(node.module)
    if isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Constant):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name in ("__import__", "import_module") and _is_scipy(node.args[0].value)
    return False


def test_src_imports_no_scipy():
    offenders = [f"{path.name}:{node.lineno}" for path in _sources()
                 for node in ast.walk(ast.parse(path.read_text()))
                 if _imports_scipy(node)
                 or (isinstance(node, ast.Attribute) and node.attr == "logsumexp")]
    assert offenders == []


def test_import_guard_sees_every_form():
    forms = ["import scipy", "import numpy, scipy.special as sp", "from scipy import special",
             "from scipy.special import erfcx", "__import__('scipy.special')",
             "importlib.import_module('scipy')", "def f():\n    from scipy.integrate import quad"]
    for form in forms:
        assert any(_imports_scipy(node) for node in ast.walk(ast.parse(form))), form
    for form in ["import numpy", "from .scipy_free import x", "print('scipy')"]:
        assert not any(_imports_scipy(node) for node in ast.walk(ast.parse(form))), form


_RUNTIME_PROBE = """
import sys
import corrdetect.cli
from corrdetect.divergences import UniformSparse, ingster_suslina_chisq
from corrdetect.procedures import build_test, model_for
from corrdetect.rates import rate_for
from corrdetect.risk import default_alternatives, estimate_risk
from corrdetect.streams import substream

test = build_test("equicorrelated", 16, 2, 0.5, n_cal=1000, rng=substream(5, 0))
rate = rate_for("equicorrelated", 16, 2, 0.5)
alternatives = default_alternatives("equicorrelated", 16, 2, 0.5, None, None, 4.0 * rate.value)
estimate_risk(test, model_for(test), alternatives, 100, 5)
ingster_suslina_chisq(UniformSparse(16, 2, 0.4), model_for(test), method="hypergeometric_sum")
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_runtime_loads_no_scipy():
    """A calibrated test, a risk estimate and an overlap-sum divergence, run
    in a fresh process, leave no scipy module loaded (not even lazily)."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "[]"


_ACCEPTANCE_PROBE = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("corrdetect_acceptance", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(len(module.GRID))
print(sorted(name for name in sys.modules
             if name.split(".")[0] in ("scipy", "pytest", "_pytest")))
"""


def test_acceptance_table_loads_without_scipy_or_pytest():
    """Loading ``tests/test_acceptance.py`` as the benchmark does (from its
    file, with only ``src/`` on the path) gives the 20-row grid and leaves no
    scipy or pytest module loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    proc = subprocess.run([sys.executable, "-c", _ACCEPTANCE_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines() == ["20", "[]"]


_MASKED_PROBE = """
import importlib.util
import sys

spec = importlib.util.spec_from_file_location("corrdetect_acceptance", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from corrdetect.rates import rate_for
from corrdetect.risk import default_alternatives

for label, family, p, s, gamma, R, make_v, adaptive in module.GRID:
    v = make_v(p) if make_v else None
    rate = rate_for(family, p, s, gamma, R=R, v=v)
    for target in (8.0 * rate.value, rate.value / 64.0):
        default_alternatives(family, p, s, gamma, R, v, target)
    module._certificate_prior(family, p, s, gamma, R, v, rate.value / 64.0)
print("numpy.ma" in sys.modules)
"""


def test_grid_set_up_loads_no_masked_arrays():
    """Building every grid cell's alternatives and certificate prior, as the
    benchmark's set-up does, leaves ``numpy.ma`` unloaded: a universe prior
    dedupes its universe without ``np.unique``, which imports it."""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    path = Path(__file__).resolve().parent / "test_acceptance.py"
    proc = subprocess.run([sys.executable, "-c", _MASKED_PROBE, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "False"
