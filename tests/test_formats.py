import ast
import math
import os

import pytest

from spinsc import formats
from spinsc.formats import write_csv

SRC = os.path.join(os.path.dirname(__file__), "..", "src", "spinsc")


def _writes_files(call):
    """Whether a call opens a file for writing or writes one in one go."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None)
    if mode is None:
        return False
    # a mode that is not a literal could be a write mode
    return not isinstance(mode, ast.Constant) or bool(set(str(mode.value)) & set("wax+"))


def test_only_formats_writes_files():
    writers = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "formats.py":
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read(), name)
            writers += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                        if isinstance(node, ast.Call) and _writes_files(node)]
    assert writers == []


@pytest.mark.parametrize("source, expected", [
    ("open(p)", False), ("open(p, 'rb')", False), ("open(p, mode='r')", False),
    ("open(p, 'w')", True), ("open(p, 'a')", True), ("open(p, mode='xb')", True),
    ("open(p, 'r+')", True), ("open(p, m)", True), ("io.open(p, 'w')", True),
    ("path.write_text(s)", True), ("fh.write(s)", False)])
def test_guard_recognises_write_calls(source, expected):
    assert _writes_files(ast.parse(source).body[0].value) is expected


def test_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ("op", "x", "n", "sizes"),
              [("and", 0.1, 3, "4x8x4"), ("mux", 1e-13, -2, "1")])
    assert path.read_bytes() == (b"op,x,n,sizes\nand,0.1,3,4x8x4\n"
                                 b"mux,1e-13,-2,1\n")


def test_csv_floats_round_trip(tmp_path):
    values = [0.1 + 0.2, 1 / 3, 5e-324, 1.7976931348623157e308, -0.0, 1e22]
    path = tmp_path / "t.csv"
    write_csv(path, ("v",), [(v,) for v in values])
    lines = path.read_text().splitlines()
    assert lines[1:] == [repr(v) for v in values]
    assert [float(s) for s in lines[1:]] == values


def test_csv_blocks_match_per_row_format(tmp_path):
    """Two full blocks and a short third give the bytes of one %s line per
    row, special floats, ints and strings included."""
    specials = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 0.1 + 0.2, 7, "x"]
    rows = [(i, specials[i % 9], -i / 3, specials[(i * 5) % 9])
            for i in range(2 * formats._CSV_BLOCK + 5)]
    path = tmp_path / "t.csv"
    write_csv(path, ("i", "a", "b", "c"), rows)
    assert path.read_text() == "i,a,b,c\n" + "".join(
        "%s,%s,%s,%s\n" % row for row in rows)


@pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), ()])
@pytest.mark.parametrize("at", [0, formats._CSV_BLOCK - 1, formats._CSV_BLOCK,
                                2 * formats._CSV_BLOCK + 2])
def test_csv_row_of_wrong_length_raises(tmp_path, bad, at):
    """A row with too few or too many fields raises, in any block, even when
    its neighbours would make up the block's field count."""
    rows = [(1.0, 2.0, 3.0)] * (2 * formats._CSV_BLOCK + 3)
    rows[at] = bad
    if at + 1 < len(rows):      # a partner that restores the total
        rows[at + 1] = (1.0,) * (6 - len(bad))
    with pytest.raises(ValueError, match=r"rows need 3 fields, got \["):
        write_csv(tmp_path / "t.csv", ("a", "b", "c"), rows)
