"""Public-API-only guard for the benchmark's own sources.

The benchmark may import from the package only the names the planned
engine merge keeps (constructors, evolve_*, observables, the output
writers, the oracle builders, cli.main and its reference constants), must
never name `quantum_step`/`classical_step`, and must read no `_private`
attribute.  Methods it may call on states (.step, .norm, .total_mass,
.extent) are public by this rule.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = "lollipop_walk"
ALLOWED = {
    PACKAGE: {
        "Coin", "CycleNode", "HalfLineNode", "LollipopTopology",
        "make_basis_state", "make_point_distribution",
        "evolve_quantum", "evolve_classical",
        "position_distribution", "summarize",
        "build_dense_unitary", "build_dense_stochastic", "compare_step",
        "unitarity_defect",
        "cli", "output",
    },
    f"{PACKAGE}.output": {
        "write_distribution_csv", "write_distribution_json", "write_summary_csv",
        "write_summary_json", "render_cycle_svg", "render_halfline_svg",
        "write_svg", "halfline_cutoff",
    },
    f"{PACKAGE}.cli": {
        "main", "BENCHMARK_TIMES", "QUANTUM_CYCLE_TOTALS", "QUANTUM_SPIKE_SITES",
        "QUANTUM_SPIKE_HEIGHTS", "CLASSICAL_CYCLE_TOTALS", "CLASSICAL_SPIKE_SITES",
        "CLASSICAL_SPIKE_HEIGHTS", "TOTAL_TOLERANCE", "SPIKE_TOLERANCE",
        "DEFECT_LIMIT", "MISMATCH_LIMIT",
    },
}
ALIASES = {"lw": PACKAGE, "cli": f"{PACKAGE}.cli", "output": f"{PACKAGE}.output"}
BANNED = {"quantum_step", "classical_step"}


def is_private(name: str) -> bool:
    return (len(name) > 1 and name.startswith("_")
            and not (name.startswith("__") and name.endswith("__")))


def violations(source: str, filename: str = "<source>") -> list[str]:
    found = []
    tree = ast.parse(source, filename)
    for node in ast.walk(tree):
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith(PACKAGE):
            allowed = ALLOWED.get(node.module, set())
            for alias in node.names:
                if alias.name not in allowed:
                    found.append(f"{where}: imports {node.module}.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(PACKAGE) and alias.name not in ALLOWED:
                    found.append(f"{where}: imports {alias.name}")
        elif isinstance(node, ast.Attribute):
            if is_private(node.attr) or node.attr in BANNED:
                found.append(f"{where}: uses attribute .{node.attr}")
            elif (isinstance(node.value, ast.Name) and node.value.id in ALIASES
                  and node.attr not in ALLOWED[ALIASES[node.value.id]]):
                found.append(f"{where}: uses {node.value.id}.{node.attr}")
        elif isinstance(node, ast.Name) and node.id in BANNED:
            found.append(f"{where}: names {node.id}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "setattr", "hasattr", "delattr")
              and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)):
            name = node.args[1].value
            if isinstance(name, str) and (is_private(name) or name in BANNED):
                found.append(f"{where}: {node.func.id}(..., {name!r})")
    return found


def check_directory(directory: Path) -> list[str]:
    """Scan every benchmark source except this file, which names the rules."""
    found = []
    for path in sorted(directory.glob("*.py")):
        if path.name != Path(__file__).name:
            found += violations(path.read_text(), path.name)
    return found
