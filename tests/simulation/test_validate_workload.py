"""Unit tests for :func:`repro.simulation.validation.validate_workload`:
argument handling and the production vectorized-vs-scalar cross-check."""

import pytest

from repro.api import Workload
from repro.api.cli import main as cli_main
from repro.simulation.cone_simulator import FunctionalConeSimulator
from repro.simulation.validation import validate_workload


def small_blur():
    return Workload.from_algorithm("blur", iterations=2, frame_width=32,
                                   frame_height=24)


class TestWindowSide:
    @pytest.mark.parametrize("window_side", [0, -1])
    def test_non_positive_window_is_rejected_not_defaulted(self,
                                                           window_side):
        with pytest.raises(ValueError, match="window_side"):
            validate_workload(small_blur(), window_side=window_side)

    def test_none_selects_the_largest_window(self):
        workload = small_blur()
        result = validate_workload(workload)
        assert result.window_side == max(workload.window_sides)

    def test_cli_window_zero_is_an_error(self, capsys):
        status = cli_main(["validate", "blur", "--frame", "32x24",
                           "--iterations", "2", "--window", "0", "--quiet"])
        assert status == 2
        assert "window_side" in capsys.readouterr().err


def test_cross_check_reports_a_diverging_scalar_walk(monkeypatch):
    """If the tile-by-tile walk disagrees with the vectorized pass, the
    evidence says so and the validation fails, even though the simulated
    interior still matches the golden model exactly."""
    real_run_scalar = FunctionalConeSimulator.run_scalar

    def perturbed(self, *args, **kwargs):
        result = real_run_scalar(self, *args, **kwargs)
        for name in self.kernel.state_field_names:
            data = result[name].data.copy()
            data[0, 0, 0] += 1.0
            result.replace(name, data)
        return result

    monkeypatch.setattr(FunctionalConeSimulator, "run_scalar", perturbed)
    result = validate_workload(small_blur(), window_side=3)
    assert result.vectorized_matches_scalar is False
    assert result.max_abs_error == 0
    assert result.passed is False
