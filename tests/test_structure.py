"""Structure guards for one dispatch point per concept: the statistic table
stays private to ``statistics``, the only branches on the model class are the
shifted route's two equicorrelated requirements in ``divergences`` (every
other route asks the model for its block count, exchangeable blocks and block
sums), and ``divergences._log_sum_exp`` is the only log-sum-exp."""

import ast
import re
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


def test_scipy_logsumexp_is_not_imported():
    offenders = [f"{path.name}:{node.lineno}" for path in _sources()
                 for node in ast.walk(ast.parse(path.read_text()))
                 if (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy")
                     and any(alias.name == "logsumexp" for alias in node.names))
                 or (isinstance(node, ast.Attribute) and node.attr == "logsumexp")]
    assert offenders == []
