"""Reference reader of "sts/1" files for the tests: a line at a time.

`stslab.read_system` parses the body with numpy, a step of bytes at a
time.  The reader here shares none of that code, so the tests compare the
library's outcome on a file with its own.  It splits the file into lines
at each newline and each line into fields at each run of blanks, and
holds the file to this grammar:

- every byte of the body is a digit 0-9, a blank (space, tab or \\r) or a
  newline;
- the first line is the header "sts <n>" or "pstss <n>", n in digits;
- every other line that is not blank holds three fields of digits, each
  an index below n and below 2**31.  Leading zeros are fine.

The first line that breaks a rule raises FormatError naming it, with the
first of these it breaks: three fields, then digits only, then the range.
A file in the grammar gives the system its header names, or FormatError
listing the violations of its axioms.
"""

import re
from pathlib import Path

from stslab.system import FormatError, InvalidSystemError, PartialTripleSystem, TripleSystem


def _fields(line: bytes) -> list:
    return [f for f in re.split(rb"[ \t\r]+", line) if f]


def read_reference(path):
    """The system the file at path holds, or FormatError for its first bad line."""
    header, *body = Path(path).read_bytes().split(b"\n")
    parts = _fields(header)
    if len(parts) != 2 or parts[0] not in (b"sts", b"pstss"):
        raise FormatError(path, 1, "expected header 'sts <n>' or 'pstss <n>'")
    try:
        n = int(parts[1]) if parts[1].isdigit() else -1
    except ValueError:  # more digits than int() converts
        n = -1
    if n < 0:
        raise FormatError(path, 1, f"bad point count {parts[1].decode('utf-8', 'replace')!r}")
    top = min(n, 2**31)
    rows = []
    for line_no, line in enumerate(body, start=2):
        fields = _fields(line)
        if not fields:
            continue
        if len(fields) != 3:
            raise FormatError(path, line_no, "expected three indices")
        if not all(f.isdigit() for f in fields):  # bytes: ASCII digits only
            raise FormatError(path, line_no, "non-integer index")
        row = [int(f) for f in fields]
        if max(row) >= top:
            raise FormatError(path, line_no, f"index out of range 0..{top - 1}")
        rows.append(row)
    cls = TripleSystem if parts[0] == b"sts" else PartialTripleSystem
    try:
        return cls(n, rows)
    except InvalidSystemError as e:
        raise FormatError(path, 1, str(e)) from None
