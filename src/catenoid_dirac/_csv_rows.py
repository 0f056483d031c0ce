"""CSV row text, with the standard library alone.

``cli._write_csv`` formats the rows of a table with ``csv_blocks``.  For a
table of two or more CSV_BLOCK_ROWS blocks it also runs this file as a
script in a child interpreter, ``python -I -S _csv_rows.py <ncols> <rows>
<text>``: the child reads the table from the file <rows> as raw native
float64, row after row, formats it one CSV_UNIT_ROWS unit at a time from
the last unit down, appends each unit's text to the file <text> and then
reports the unit's byte count on stdout as 8 little-endian bytes.  The
parent formats from the first unit up and stops at the first unit the
child has reported.  Both processes format whole units with the one
formatter, so the file holds the bytes that one process would write,
wherever the two meet.
"""

CSV_BLOCK_ROWS = 8192  # a table of two or more blocks is formatted in two processes
CSV_UNIT_ROWS = 2048  # rows per % call, and the unit the two processes trade


def csv_blocks(values, ncols: int):
    """Yield the "%.17g" text of a flat row-major float64 sequence (a 1-D
    ndarray, or a memoryview of format "d"), CSV_UNIT_ROWS rows per %
    call: the same bytes as np.savetxt, without its per-row Python loop."""
    step = CSV_UNIT_ROWS * ncols
    row_fmt = ",".join(["%.17g"] * ncols) + "\n"
    for start in range(0, len(values), step):
        block = values[start:start + step].tolist()
        yield (row_fmt * (len(block) // ncols)) % tuple(block)


if __name__ == "__main__":
    import sys

    ncols, step = int(sys.argv[1]), CSV_UNIT_ROWS * int(sys.argv[1])
    with open(sys.argv[2], "rb") as rows:
        values = memoryview(rows.read()).cast("d")
    with open(sys.argv[3], "wb") as text:
        for start in reversed(range(0, len(values), step)):
            unit = next(csv_blocks(values[start:start + step], ncols)).encode()
            text.write(unit)
            text.flush()  # the unit is in the file before the parent hears of it
            sys.stdout.buffer.write(len(unit).to_bytes(8, "little"))
            sys.stdout.buffer.flush()
