"""CSV row text, with the standard library alone.

``cli._write_csv`` formats the rows of a table with ``csv_blocks``.  For a
table of two or more blocks it also runs this file as a script in a child
interpreter, ``python -I -S _csv_rows.py <ncols>``, on the later rows: the
child reads them from stdin as raw native float64, row after row, and
writes their text to stdout.  Both processes use the one formatter, so the
file holds the bytes that one process would write.
"""

CSV_BLOCK_ROWS = 8192  # rows formatted per % call, and the unit a large table is split at


def csv_blocks(values, ncols: int):
    """Yield the "%.17g" text of a flat row-major float64 sequence (a 1-D
    ndarray, or a memoryview of format "d"), CSV_BLOCK_ROWS rows per %
    call: the same bytes as np.savetxt, without its per-row Python loop."""
    step = CSV_BLOCK_ROWS * ncols
    row_fmt = ",".join(["%.17g"] * ncols) + "\n"
    for start in range(0, len(values), step):
        block = values[start:start + step].tolist()
        yield (row_fmt * (len(block) // ncols)) % tuple(block)


if __name__ == "__main__":
    import sys

    # all of the text is formatted before any is written: the parent reads
    # stdout only after its own rows, and a full pipe would stall this child
    values = memoryview(sys.stdin.buffer.read()).cast("d")
    sys.stdout.buffer.write("".join(csv_blocks(values, int(sys.argv[1]))).encode())
