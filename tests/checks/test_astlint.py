"""Each source rule must detect its violation (and only then)."""

import textwrap

import pytest

from tests.checks.source_rules import violations


def lint(code, module="repro.experiments.fixture"):
    """The violations of a dedented snippet read as the given module."""
    return violations(textwrap.dedent(code), module)


def rule_ids(code, module="repro.experiments.fixture"):
    return {rule_id for rule_id, _, _ in lint(code, module=module)}


class TestFramework:
    def test_all_lint_rules_registered(self):
        findings = lint(
            """
            import random

            def corrupt(simplex, step):
                simplex._vertices = ()
                try:
                    step()
                except ValueError:
                    pass
                return random.random()
            """,
            module="repro.core.fixture",
        )
        assert [rule_id for rule_id, _, _ in findings] == [
            "RPR001",
            "RPR004",
            "RPR008",
        ]

    def test_clean_module_is_clean(self):
        assert rule_ids(
            """
            from repro.topology.complex import SimplicialComplex

            def build(facets):
                return SimplicialComplex(list(facets))
            """
        ) == set()


class TestRPR001InterningSafety:
    def test_mutating_foreign_facets_fires(self):
        assert rule_ids(
            """
            def corrupt(complex_, facets):
                complex_._facets = facets
            """
        ) == {"RPR001"}

    def test_augmented_assignment_fires(self):
        assert rule_ids(
            """
            def corrupt(simplex, extra):
                simplex._vertices += (extra,)
            """
        ) == {"RPR001"}

    def test_owning_module_may_assign(self):
        code = """
        class SimplicialComplex:
            def __init__(self, facets):
                self._facets = facets
        """
        assert rule_ids(code, module="repro.topology.complex") == set()
        assert rule_ids(code, module="repro.core.solvability") == {
            "RPR001"
        }

    def test_self_assignment_of_generic_name_allowed(self):
        # `_color` is generic enough that a foreign class may own one.
        assert rule_ids(
            """
            class Painter:
                def __init__(self, color):
                    self._color = color
            """
        ) == set()

    def test_non_self_generic_name_fires(self):
        assert rule_ids(
            """
            def repaint(vertex, color):
                vertex._color = color
            """
        ) == {"RPR001"}

    @pytest.mark.parametrize(
        "statement",
        [
            "v._value = 1",
            "w._items = ()",
            "c._masks = ()",
            "c._table = None",
            "c._face_masks = set()",
            "v._hash = 0",
            "w._skey = ()",
            "c._hash = None",
            "del v._skey",
        ],
    )
    def test_mask_era_slots_fire_outside_their_module(self, statement):
        # The slots the interned value objects gained with the mask
        # index, and the cached hash and sort key: one foreign write
        # corrupts every holder of the object, every memo dict that
        # holds it, or every sorted order it takes part in.
        findings = lint(
            f"def corrupt(v, w, c):\n    {statement}\n",
            module="repro.core.fixture",
        )
        assert [rule_id for rule_id, _, _ in findings] == ["RPR001"]

    @pytest.mark.parametrize(
        "module, statement",
        [
            ("repro.topology.vertex", "found._value = value"),
            ("repro.topology.views", "found._items = items"),
            ("repro.topology.complex", "other._masks = ()"),
            ("repro.topology.views", "found._hash = hash(items)"),
            ("repro.topology.complex", "other._hash = None"),
        ],
    )
    def test_mask_era_slots_may_be_set_by_their_owner(
        self, module, statement
    ):
        code = f"def build(found, other, value, items):\n    {statement}\n"
        assert rule_ids(code, module=module) == set()

    def test_face_masks_is_protected_even_on_self(self):
        assert rule_ids(
            """
            class Impostor:
                def __init__(self):
                    self._face_masks = set()
            """
        ) == {"RPR001"}


class TestRPR004ExceptionHygiene:
    def test_silent_pass_fires_in_hot_package(self):
        code = """
        def solve(problem: object) -> object:
            try:
                return problem.solve()
            except ValueError:
                pass
        """
        assert rule_ids(code, module="repro.core.solvability") == {
            "RPR004"
        }

    def test_silent_pass_tolerated_outside_hot_packages(self):
        code = """
        def best_effort(step):
            try:
                step()
            except OSError:
                pass
        """
        assert rule_ids(code, module="repro.cli") == set()


class TestRPR008PurePaths:
    def test_unseeded_random_fires_in_pure_package(self):
        assert rule_ids(
            """
            import random

            def bad(items: list) -> list:
                random.shuffle(items)
                return items
            """,
            module="repro.core.fixture",
        ) == {"RPR008"}

    def test_seeded_random_instance_is_allowed(self):
        assert (
            rule_ids(
                """
                import random

                def good(items: list, seed: int) -> list:
                    rng = random.Random(seed)
                    rng.shuffle(items)
                    return items
                """,
                module="repro.core.fixture",
            )
            == set()
        )

    @pytest.mark.parametrize(
        "code",
        [
            "import random\n\nRNG = random.Random()\n",
            "from random import Random\n\nRNG = Random()\n",
            "import random as r\n\nRNG = r.Random(version=2)\n",
        ],
        ids=["module", "from-import", "keyword-only"],
    )
    def test_random_instance_without_seed_fires(self, code):
        # An unseeded instance seeds itself from the OS.
        assert rule_ids(code, module="repro.core.fixture") == {"RPR008"}

    @pytest.mark.parametrize(
        "code",
        [
            "from random import Random\n\nRNG = Random(0)\n",
            "import random\n\nRNG = random.Random(x=7)\n",
        ],
        ids=["positional", "keyword"],
    )
    def test_random_instance_with_seed_is_allowed(self, code):
        assert rule_ids(code, module="repro.topology.fixture") == set()

    def test_wall_clock_fires_in_pure_package(self):
        assert rule_ids(
            """
            import time

            def bad() -> float:
                return time.monotonic()
            """,
            module="repro.topology.fixture",
        ) == {"RPR008"}

    def test_from_import_resolves_too(self):
        findings = lint(
            """
            from time import perf_counter as clock
            from datetime import datetime

            def bad() -> tuple:
                return clock(), datetime.now()
            """,
            module="repro.core.fixture",
        )
        assert [rule_id for rule_id, _, _ in findings] == [
            "RPR008",
            "RPR008",
        ]
        assert "time.perf_counter()" in findings[0][2]
        assert "datetime.datetime.now()" in findings[1][2]

    def test_id_keyed_sort_fires(self):
        assert rule_ids(
            """
            def bad(items: list) -> list:
                return sorted(items, key=id)
            """,
            module="repro.core.fixture",
        ) == {"RPR008"}

    def test_rule_is_silent_outside_the_pure_packages(self):
        assert (
            rule_ids(
                """
                import random
                import time

                def fine(items):
                    random.shuffle(items)
                    return sorted(items, key=id), time.time()
                """,
                module="repro.experiments.fixture",
            )
            == set()
        )
