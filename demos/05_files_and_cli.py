"""
Files and the command line
==========================

Matrices and split systems travel as small text files.  Values may be
rationals like 7/2; everything is parsed exactly, no floats involved.
The same files drive the ordist command line tool, so this script ends
by invoking it on what it wrote.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import ordist
from ordist import (
    format_distance_matrix,
    format_split_system,
    generate_distance,
    parse_distance_matrix,
    parse_split_system,
)

MATRIX_TEXT = """\
4
a 0 3 7/2 4
b 3 0 2 5
c 7/2 2 0 3
d 4 5 3 0
"""

SPLITS_TEXT = """\
# one split per line, side | side, optional : weight
4
a b c d
a | b,c,d : 2
a,b | c,d
a,d | b,c : 3/2
"""

d = parse_distance_matrix(MATRIX_TEXT)
print(f"parsed {d.n}x{d.n} matrix, d(a,c) = {d.by_label('a', 'c')}")

system = parse_split_system(SPLITS_TEXT)
print(f"parsed {len(system.splits)} splits; unlisted weights default to 1")

# generate, serialize, reparse: the round trip is lossless
generated = generate_distance(system)
assert parse_distance_matrix(format_distance_matrix(generated)) == generated
assert parse_split_system(format_split_system(system)) == system
print("format/parse round trips preserve every value")

# the CLI consumes the same formats; it runs in the temporary directory,
# so it is pointed at the ordist package this script imported
env = dict(os.environ, PYTHONPATH=str(Path(ordist.__file__).resolve().parents[1]))
with tempfile.TemporaryDirectory() as tmp:
    Path(tmp, "example.dist").write_text(MATRIX_TEXT, encoding="utf-8")
    Path(tmp, "example.splits").write_text(SPLITS_TEXT, encoding="utf-8")
    for args in (
        ["order", "-i", "example.dist", "-p", "2", "-q", "1"],
        ["midpath", "-i", "example.dist"],
        ["check", "circular", "-s", "example.splits"],
    ):
        out = subprocess.run(
            [sys.executable, "-m", "ordist.cli", *args],
            capture_output=True,
            encoding="utf-8",
            cwd=tmp,
            env=env,
        )
        print(f"\n$ ordist {' '.join(args)}   (exit {out.returncode})")
        # failed checks report on stderr and exit 1
        print((out.stdout or out.stderr).rstrip())
