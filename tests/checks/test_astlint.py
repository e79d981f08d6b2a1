"""Each RPR lint rule must detect its violation (and only then)."""

import textwrap

from repro.checks import lint_source
from repro.checks.astlint import LINT_RULES


def lint(code, module="repro.experiments.fixture"):
    """Lint a dedented snippet as if it were the given module."""
    return lint_source(
        textwrap.dedent(code), path="fixture.py", module=module
    )


def rule_ids(code, module="repro.experiments.fixture"):
    return {finding.rule_id for finding in lint(code, module=module)}


class TestFramework:
    def test_all_lint_rules_registered(self):
        assert sorted(LINT_RULES) == [
            "RPR001",
            "RPR002",
            "RPR003",
            "RPR004",
            "RPR005",
            "RPR008",
        ]

    def test_syntax_error_reported_not_raised(self):
        findings = lint("def broken(:\n    pass\n")
        assert [f.rule_id for f in findings] == ["RPR000"]

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


class TestRPR002FromMaximal:
    def test_pruning_constructor_on_facets_fires(self):
        assert rule_ids(
            """
            def rebuild(complex_, SimplicialComplex):
                return SimplicialComplex(complex_.facets)
            """
        ) == {"RPR002"}

    def test_facets_containing_fires(self):
        assert rule_ids(
            """
            def star(complex_, v, SimplicialComplex):
                return SimplicialComplex(complex_.facets_containing(v))
            """
        ) == {"RPR002"}

    def test_merged_families_are_fine(self):
        assert rule_ids(
            """
            def union(a, b, SimplicialComplex):
                return SimplicialComplex(list(a.facets) + list(b.facets))
            """
        ) == set()

    def test_from_maximal_is_fine(self):
        assert rule_ids(
            """
            def rebuild(complex_, SimplicialComplex):
                return SimplicialComplex.from_maximal(complex_.facets)
            """
        ) == set()


class TestRPR003CounterPlacement:
    def test_counter_in_function_fires(self):
        assert rule_ids(
            """
            from repro.telemetry import default_registry

            def hot_path():
                stats = default_registry().cache("my-cache")
                stats.hit()
            """
        ) == {"RPR003"}

    def test_module_level_counter_is_fine(self):
        assert rule_ids(
            """
            from repro.telemetry import default_registry

            _STATS = default_registry().cache("my-cache")

            def hot_path():
                _STATS.hit()
            """
        ) == set()

    def test_unrelated_counter_function_ignored(self):
        # Only a .cache() fetch on the telemetry registry fires.
        assert rule_ids(
            """
            from myproject import default_registry

            def lookup(key):
                return default_registry().cache(key)
            """
        ) == set()

    def test_functools_cache_ignored(self):
        assert rule_ids(
            """
            import functools

            def memoize(function):
                return functools.cache(function)
            """
        ) == set()

    def test_suppression_comment_honored(self):
        assert rule_ids(
            """
            from repro.telemetry import default_registry

            class Model:
                def lazy_init(self):
                    self._stats = default_registry().cache(  # norpr: RPR003
                        "per-instance"
                    )
            """
        ) == set()


class TestRPR004ExceptionHygiene:
    def test_bare_except_fires_anywhere(self):
        assert rule_ids(
            """
            def run(step):
                try:
                    step()
                except:
                    return None
            """,
            module="repro.experiments.fixture",
        ) == {"RPR004"}

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


class TestRPR005Annotations:
    def test_unannotated_public_function_fires(self):
        code = """
        def facets_of(complex_):
            return complex_.facets
        """
        findings = lint(code, module="repro.topology.fixture")
        assert {f.rule_id for f in findings} == {"RPR005"}
        assert "complex_" in findings[0].message
        assert "return" in findings[0].message

    def test_annotated_function_is_fine(self):
        assert rule_ids(
            """
            def double(value: int) -> int:
                return 2 * value
            """,
            module="repro.core.fixture",
        ) == set()

    def test_private_and_nested_functions_exempt(self):
        assert rule_ids(
            """
            def _helper(value):
                return value

            def public(value: int) -> int:
                def closure(x):
                    return x
                return closure(value)
            """,
            module="repro.models.fixture",
        ) == set()

    def test_methods_are_checked_and_self_exempt(self):
        code = """
        class Engine:
            def solve(self, problem):
                return problem
        """
        findings = lint(code, module="repro.core.fixture")
        assert {f.rule_id for f in findings} == {"RPR005"}
        assert "self" not in findings[0].message

    def test_outside_hot_packages_not_checked(self):
        assert rule_ids(
            """
            def untyped(value):
                return value
            """,
            module="repro.experiments.fixture",
        ) == set()


class TestUnusedSuppressions:
    """Stale ``# norpr:`` comments are themselves findings (RPR000)."""

    BARE = """
        def swallow(action):
            try:
                action()
            except:
                pass
    """

    def test_used_suppression_is_not_reported(self):
        code = self.BARE.replace("except:", "except:  # norpr: RPR004")
        assert rule_ids(code) == set()

    def test_stale_known_id_is_reported(self):
        findings = lint(
            """
            def fine(x):
                return x  # norpr: RPR004
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert "suppresses no finding" in findings[0].message

    def test_unknown_id_is_reported_as_undefined(self):
        findings = lint(
            """
            def fine(x):
                return x  # norpr: RPR999
            """
        )
        assert [f.rule_id for f in findings] == ["RPR000"]
        assert "no engine defines" in findings[0].message

    def test_all_wildcard_is_exempt_from_staleness(self):
        assert rule_ids(
            """
            def fine(x):
                return x  # norpr: all
            """
        ) == set()

    def test_docstring_example_is_not_a_suppression(self):
        assert rule_ids(
            '''
            def documented(x):
                """Use ``# norpr: RPR004`` to silence this."""
                return x
            '''
        ) == set()


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
        assert [f.rule_id for f in findings] == ["RPR008", "RPR008"]
        assert "time.perf_counter()" in findings[0].message
        assert "datetime.datetime.now()" in findings[1].message

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
