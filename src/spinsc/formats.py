"""The file formats of every spinsc output; the only module that writes files.

CSV: a header row, comma separators, LF line endings.  Row fields are
Python scalars written with %s, so a float appears as its round-trip
repr and a string as itself.  JSON: indent 2, ending in a newline.
"""

import json

__all__ = ["write_csv", "write_json"]


def write_csv(path, header, rows):
    """Write the header names, then one line per row of len(header) fields."""
    line = ",".join(["%s"] * len(header)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)


def write_json(path, doc):
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
