#!/usr/bin/env python3
"""Run a program and compare its stdout byte for byte with a golden file.

The paper-table benches (Fig. 8, Table V) print deterministic model
output, so any change to it is a fidelity change. ctest runs them through
this script against the committed goldens under bench/golden/.

Usage: check_golden_stdout.py GOLDEN -- PROGRAM [ARGS...]
Exits 0 when stdout matches, 1 with a unified diff when it does not.
Regenerate a golden on purpose with `PROGRAM > GOLDEN` and commit it
alongside the change that moved the numbers.
"""

import difflib
import subprocess
import sys


def main(argv):
    if len(argv) < 4 or argv[2] != "--":
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_path, command = argv[1], argv[3:]
    with open(golden_path, "rb") as f:
        golden = f.read()
    proc = subprocess.run(command, stdout=subprocess.PIPE)
    if proc.returncode != 0:
        print(f"{command[0]} exited with {proc.returncode}", file=sys.stderr)
        return 1
    if proc.stdout == golden:
        return 0
    diff = difflib.unified_diff(
        golden.decode(errors="replace").splitlines(keepends=True),
        proc.stdout.decode(errors="replace").splitlines(keepends=True),
        fromfile=golden_path, tofile="stdout")
    sys.stdout.writelines(diff)
    print(f"stdout of {command[0]} differs from {golden_path}",
          file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
