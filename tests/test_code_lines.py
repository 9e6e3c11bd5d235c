"""The code-line count that measures the package's size."""
import importlib.util
import pathlib

SCRIPT = (pathlib.Path(__file__).resolve().parents[1]
          / "tools" / "code_lines.py")


def test_counts_only_lines_of_code(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    path = tmp_path / "module.py"
    path.write_text('"""A docstring\nover two lines."""\n'
                    "import math\n"
                    "# a comment\n"
                    "\n"
                    "x = math.pi\n"
                    "print(x)  # a trailing comment\n")
    assert mod.code_lines(path) == 3
    assert mod.main([str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["3", "total"]
