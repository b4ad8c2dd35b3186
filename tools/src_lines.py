#!/usr/bin/env python3
"""Count the code lines of the C++ sources under src/, per module and in total.

A code line is a line that is not blank, is not a `//` comment and does not
lie wholly inside a `/* */` comment.  A line that holds code and a comment
counts as code.  A `//` or `/*` inside a string or character literal does
not start a comment.

Usage:
    python3 tools/src_lines.py [ROOT]

ROOT defaults to the repository root (the parent of this script's
directory).  Prints one row per directory under ROOT/src (the module) and a
total row.  Uses the standard library only.
"""

import pathlib
import sys

SUFFIXES = {".h", ".hpp", ".cc", ".cpp"}


def code_lines(text):
    """Number of lines in `text` that hold code outside comments."""
    count = 0
    in_block = False
    for line in text.splitlines():
        has_code = False
        quote = None
        i = 0
        while i < len(line):
            c = line[i]
            pair = line[i:i + 2]
            if in_block:
                if pair == "*/":
                    in_block = False
                    i += 2
                    continue
            elif quote is not None:
                has_code = True
                if c == "\\":
                    i += 2
                    continue
                if c == quote:
                    quote = None
            elif pair == "//":
                break
            elif pair == "/*":
                in_block = True
                i += 2
                continue
            elif c in "\"'":
                quote = c
                has_code = True
            elif not c.isspace():
                has_code = True
            i += 1
        if has_code:
            count += 1
    return count


def main(argv):
    root = pathlib.Path(argv[1]) if len(argv) > 1 else (
        pathlib.Path(__file__).resolve().parent.parent)
    src = root / "src"
    if not src.is_dir():
        sys.exit(f"src_lines: no src/ directory under {root}")
    rows = []
    for module in sorted(p for p in src.iterdir() if p.is_dir()):
        files = sorted(p for p in module.rglob("*") if p.suffix in SUFFIXES)
        lines = sum(code_lines(p.read_text(encoding="utf-8")) for p in files)
        rows.append((module.name, len(files), lines))
    width = max([len("module")] + [len(name) for name, _, _ in rows])
    print(f"{'module':<{width}}  {'files':>5}  {'lines':>6}")
    for name, files, lines in rows:
        print(f"{name:<{width}}  {files:>5}  {lines:>6}")
    total_files = sum(files for _, files, _ in rows)
    total_lines = sum(lines for _, _, lines in rows)
    print(f"{'total':<{width}}  {total_files:>5}  {total_lines:>6}")


if __name__ == "__main__":
    main(sys.argv)
