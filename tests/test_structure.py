"""Structure guards for one dispatch point per concept: the statistic table
stays private to ``statistics``, and the only branches on the model class are
the shifted route's two equicorrelated requirements in ``divergences`` (every
other route asks the model for its block count, exchangeable blocks and block
sums), and ``divergences._log_sum_exp`` is the only log-sum-exp.  The runtime
needs numpy only: no module imports scipy, eagerly or on first use.  The
acceptance module, which the benchmark loads as its grid table, imports
neither scipy nor pytest when it is loaded."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "corrdetect"
MODEL_ISINSTANCE = re.compile(r"isinstance\(\s*[\w.]+\s*,\s*\(?\s*(Equicorrelated|Grouped|RankOne)\b")
MAX_MODEL_ISINSTANCE = 2
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
