"""The line counter of `tools/src_lines.py`, which the ROADMAP's line-count
log quotes."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SYNTHETIC = '''"""A module docstring,
over two lines."""

# a comment


def double(x):
    """A function docstring."""

    y = 2 * x  # a trailing comment
    return y
'''


def test_counts_code_without_comments_docstrings_and_blank_lines(tmp_path,
                                                                 capsys):
    assert src_lines.code_lines(SYNTHETIC) == 3
    (tmp_path / "synthetic.py").write_text(SYNTHETIC)
    assert src_lines.main(["src_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == \
        ["total", "11", "3"]
