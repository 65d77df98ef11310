"""The package's public surface and its documented example."""

import re
from pathlib import Path

import lollipop_walk

README = Path(__file__).resolve().parent.parent / "README.md"

# Growing the public surface means editing this list on purpose.
PUBLIC_NAMES = [
    "ClassicalDistribution",
    "Coin",
    "CycleNode",
    "DenseOperator",
    "HalfLineNode",
    "LollipopTopology",
    "PositionDistribution",
    "Site",
    "SummaryRecord",
    "WalkerState",
    "build_dense_stochastic",
    "build_dense_unitary",
    "compare_step",
    "evolve_classical",
    "evolve_quantum",
    "make_basis_state",
    "make_point_distribution",
    "position_distribution",
    "summarize",
    "unitarity_defect",
    "__version__",
]


def test_public_names_are_pinned():
    assert sorted(lollipop_walk.__all__) == sorted(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(lollipop_walk, name)


def test_readme_quick_example_runs(capsys):
    [block] = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [row[0] for row in rows] == ["1000", "20000"]
    for _, total, site, height in rows:
        assert 0.0 < float(height) <= float(total) <= 1.0
        assert 0 <= int(site) < 25
