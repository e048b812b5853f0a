"""No environment switches in the library.

Every ``os.environ`` / ``os.getenv`` read under ``lucene_solr_ray/`` is a
code path no test, gate or benchmark selects: the five ``LSR_*`` escape
hatches were deleted for exactly that reason.  ``LSR_CACHE`` stays — it is
where a deployment puts its index cache, not an alternative implementation.
A new behaviour switch belongs in a function argument, where callers and
tests can see it.

Canary: the scanner must find a planted read, so a scanner that silently
matches nothing cannot pass the package check.
"""

from __future__ import annotations

import ast
import os

PACKAGE = os.path.join(os.path.dirname(os.path.dirname(__file__)), "lucene_solr_ray")
ALLOWED = {"LSR_CACHE"}


def _is_environ(node: ast.AST) -> bool:
    # os.environ / _os.environ / environ (from os import environ)
    return (isinstance(node, ast.Attribute) and node.attr == "environ") or (
        isinstance(node, ast.Name) and node.id == "environ"
    )


def _key(node: ast.AST) -> str:
    return node.value if isinstance(node, ast.Constant) else f"<dynamic {ast.dump(node)}>"


def env_reads(source: str) -> list[str]:
    """Keys of every environment read in ``source``: ``environ.get(k)``,
    ``environ[k]``, ``environ.setdefault(k)``, ``getenv(k)`` and
    ``k in environ``."""
    keys = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and node.args:
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in ("get", "setdefault", "pop") and _is_environ(f.value):
                keys.append(_key(node.args[0]))
            elif (isinstance(f, ast.Attribute) and f.attr == "getenv") or (
                isinstance(f, ast.Name) and f.id == "getenv"
            ):
                keys.append(_key(node.args[0]))
        elif isinstance(node, ast.Subscript) and _is_environ(node.value):
            keys.append(_key(node.slice))
        elif isinstance(node, ast.Compare) and any(_is_environ(c) for c in node.comparators):
            keys.append(_key(node.left))
    return keys


def test_scanner_finds_planted_reads():
    planted = (
        "import os\nimport os as _os\nfrom os import getenv\n"
        "a = os.environ.get('LSR_A', '1')\n"
        "b = _os.environ['LSR_B']\n"
        "c = os.getenv('LSR_C')\n"
        "d = getenv('LSR_D')\n"
        "e = 'LSR_E' in os.environ\n"
    )
    assert env_reads(planted) == ["LSR_A", "LSR_B", "LSR_C", "LSR_D", "LSR_E"]


def test_package_reads_no_environment_switches():
    found = {}
    for d, _, files in os.walk(PACKAGE):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(d, f)
                with open(path, encoding="utf-8") as fh:
                    for k in env_reads(fh.read()):
                        found.setdefault(k, []).append(os.path.relpath(path, PACKAGE))
    assert "LSR_CACHE" in found, "scanner lost the one allowed read"
    extra = {k: v for k, v in found.items() if k not in ALLOWED}
    assert not extra, f"environment switches in lucene_solr_ray/: {extra}"
