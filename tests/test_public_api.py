"""The package's top-level names and the README quick tour that uses them."""

import re
from pathlib import Path

import pytest

import spin_transfer

README = Path(__file__).resolve().parents[1] / "README.md"

PUBLIC_NAMES = {
    # states and periods
    "QubitPairState", "QutritPairState", "STATE_A", "STATE_B", "STATE_C",
    "QUBIT_SOURCE_PERIOD", "QUTRIT_SOURCE_PERIOD", "QUTRIT_HALF_PERIOD",
    # pipeline
    "Operator", "evolve_reduced", "entanglement_curve", "TransferTrace",
    # negativity
    "NegativityValue", "XStateCoeffs", "negativity", "negativity_xstate",
    "schmidt_angle_from_negativity",
    # analytic transcriptions
    "closed_form_rho12_qubit", "closed_form_rho12_qutrit", "qutrit_closed_form_discrepancy",
    # search and region
    "FIG3_THETA_GRID", "InvariantPoint", "LowerBoundary", "MaximizationResult",
    "SearchBudget", "extract_lower_boundary", "fit_I1_of_theta", "frontier_line",
    "invariants", "maximize_E12_half_period", "negativity_at_half_period",
    "sample_physical_region",
    # iterated transfer
    "iterate_transfer", "IterationRecord", "MODE_MIXED", "MODE_PURE_RESET",
}


def test_all_holds_the_workflow_names():
    assert len(PUBLIC_NAMES) == 36
    assert len(spin_transfer.__all__) == len(set(spin_transfer.__all__))
    assert set(spin_transfer.__all__) == PUBLIC_NAMES | {"__version__"}


def test_every_public_name_resolves():
    missing = [name for name in spin_transfer.__all__ if not hasattr(spin_transfer, name)]
    assert missing == []


def readme_python_blocks() -> list[str]:
    return re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)


def test_readme_imports_of_the_lower_layers_resolve():
    (block,) = [b for b in readme_python_blocks() if "spin_transfer.qla import" in b]
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert not set(namespace) & set(spin_transfer.__all__)
    assert {"propagator", "initial_full_state", "evolve_and_reduce"} <= set(namespace)


def test_readme_quick_tour_prints_its_stated_values(capsys):
    block = readme_python_blocks()[0]
    assert "# 1.0" in block and "# 0.62, 0.82, 0.92, 0.96" in block
    exec(compile(block, str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert float(lines[0]) == pytest.approx(1.0, abs=1e-9)
    staircase = [line.split() for line in lines[2:]]
    assert [int(step) for step, _ in staircase] == [1, 2, 3, 4]
    values = [float(value) for _, value in staircase]
    assert values == pytest.approx([0.62, 0.82, 0.92, 0.96], abs=0.005)
