"""The exception hierarchy: one base, catchable subfamilies."""

import pytest

from repro.errors import (
    ChromaticityError,
    ModelError,
    ReproError,
    RuntimeModelError,
    ScheduleError,
    SolvabilityError,
    TaskSpecificationError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            ChromaticityError,
            ScheduleError,
            TaskSpecificationError,
            SolvabilityError,
            ModelError,
            RuntimeModelError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, ReproError)

    @pytest.mark.parametrize(
        "exception_type",
        [
            ChromaticityError,
            ScheduleError,
            TaskSpecificationError,
            ModelError,
        ],
    )
    def test_input_errors_are_value_errors(self, exception_type):
        # Misuse of the API should be catchable as plain ValueError too.
        assert issubclass(exception_type, ValueError)

    @pytest.mark.parametrize(
        "exception_type", [SolvabilityError, RuntimeModelError]
    )
    def test_state_errors_are_runtime_errors(self, exception_type):
        assert issubclass(exception_type, RuntimeError)


class TestCatchability:
    def test_library_failures_catchable_with_one_clause(self):
        from repro.topology import Simplex

        with pytest.raises(ReproError):
            Simplex([])  # chromaticity failure

        from repro.models.schedules import schedule_from_blocks

        with pytest.raises(ReproError):
            schedule_from_blocks([])  # schedule failure
