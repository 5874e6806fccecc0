import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ssckit.graphs import BlockMatrix
from ssckit.partitions import Partition
from ssckit.render import block_to_json, format_block, format_block_matrix, partition_to_text

REPO = Path(__file__).resolve().parent.parent


def test_format_block_matrix_scalar():
    bm = BlockMatrix.from_rows([[1, -1], [-1, 1]], 2, 2, 1)
    lines = format_block_matrix(bm).splitlines()
    assert lines == ["[  1 | -1 ]", "[ -1 |  1 ]"]


def test_format_block_matrix_separates_block_rows():
    bm = BlockMatrix.from_rows(
        [[1, 0, 2, 0], [0, 1, 0, 2], [3, 0, 4, 0], [0, 3, 0, 4]], 2, 2, 2
    )
    text = format_block_matrix(bm)
    assert "" in text.splitlines()  # blank rule between block rows
    assert "|" in text


def test_format_block_and_partition():
    assert format_block(((Fraction(3, 4),),)) == "3/4"
    assert format_block(((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))) == "[1 0; 0 1]"
    assert partition_to_text(Partition(((1,), (2, 3)))) == "{{1}, {2, 3}}"
    # JSON: an integer is an int, anything else "p/q", for a block or a matrix's entries
    assert block_to_json(((Fraction(2), Fraction(1, 2)), (Fraction(-3, 4), Fraction(0)))) == [
        [2, "1/2"], ["-3/4", 0]]
    bm = BlockMatrix.from_rows([[Fraction(-1, 2), 3]], 1, 2, 1)
    assert format_block_matrix(bm) == "[ -1/2 |    3 ]"
    assert block_to_json(bm.entries) == [["-1/2", 3]]


def test_module_entry_point():
    env_path = str(REPO / "src")
    result = subprocess.run(
        [sys.executable, "-m", "ssckit", "ep", "--input",
         str(REPO / "src" / "ssckit" / "fixtures" / "diamond.json"), "--format", "json"],
        capture_output=True, text=True,
        env={"PYTHONPATH": env_path, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert '"coarsest_ep"' in result.stdout
