"""The ``repro check`` CLI subcommand: scopes and exit status."""

import textwrap

import pytest

from repro.cli import main

BROKEN_MODULE = textwrap.dedent(
    """
    import random

    def corrupt(complex_, facets):
        complex_._facets = facets

    def swallow(step):
        try:
            step()
        except ValueError:
            pass

    def shuffle(items):
        random.shuffle(items)
    """
)


def write_broken_module(root):
    """Write BROKEN_MODULE where the lint treats it as ``repro.core``.

    RPR004 and RPR008 only fire in the packages they guard (both
    include ``repro.core``), and the lint derives the module name from
    the path.
    """
    package = root / "repro" / "core"
    package.mkdir(parents=True)
    (package / "bad.py").write_text(BROKEN_MODULE)


class TestAuditScopes:
    """The live-object audit is gone: ``check`` needs ``--lint``."""

    def test_bare_check_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check"])
        assert excinfo.value.code == 2
        assert "required: --lint" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [["check", "--all"], ["check", "--all", "--lint", "src"]],
        ids=["alone", "with-lint"],
    )
    def test_all_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --all" in capsys.readouterr().err

    def test_experiment_ids_are_usage_errors(self, capsys):
        # `check` has no per-experiment scope: every id is rejected.
        for argv in (["check", "E1"], ["check", "E99"]):
            with pytest.raises(SystemExit) as excinfo:
                main(argv)
            assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestLintScope:
    def test_lint_violations_fail(self, tmp_path, capsys):
        write_broken_module(tmp_path)
        assert main(["check", "--lint", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPR001" in out
        assert "RPR004" in out
        assert "RPR008" in out
        assert "3 finding(s)" in out

    def test_clean_path_is_one_line(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("X = 1\n")
        assert main(["check", "--lint", str(clean)]) == 0
        assert capsys.readouterr().out == (
            f"repro check lint[{clean}]: 1 files linted, clean\n"
        )

    @pytest.mark.parametrize(
        "name", ["no/such/dir", "README.md"], ids=["missing", "not-python"]
    )
    def test_unlintable_path_is_one_error(self, tmp_path, capsys, name):
        path = tmp_path / name
        if name == "README.md":
            path.write_text("# not Python\n")
        assert main(["check", "--lint", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: cannot lint {str(path)!r}: not a directory or a .py "
            "file\n"
        )


class TestNoKnobs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["check", "--fail-on", "error"],
            ["check", "--format", "json"],
            ["check", "--trace", "x.json"],
        ],
        ids=["fail-on", "format", "trace"],
    )
    def test_removed_options_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
