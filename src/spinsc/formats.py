"""The file formats of every spinsc output; the only module that writes files.

CSV: a header row, comma separators, LF line endings.  Row fields are
Python scalars written with %s, so a float appears as its round-trip
repr and a string as itself.  JSON: indent 2, ending in a newline.
"""

from itertools import chain, islice
import json

__all__ = ["write_csv", "write_json"]

_CSV_BLOCK = 1024       # rows per write_csv % and write (80 KB of 4-float lines)


def write_csv(path, header, rows):
    """Write the header names, then one line per row of len(header) fields,
    _CSV_BLOCK rows to one % and one write; a row of another length raises
    ValueError, so that no field can shift into the next line."""
    width = len(header)
    line = ",".join(["%s"] * width) + "\n"
    rows = iter(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        while block := list(islice(rows, _CSV_BLOCK)):
            if (lengths := set(map(len, block))) != {width}:
                raise ValueError(f"CSV rows need {width} fields, got {sorted(lengths)}")
            fh.write(line * len(block) % tuple(chain.from_iterable(block)))


def write_json(path, doc):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
