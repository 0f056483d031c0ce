"""Child-process entry points owned by the benchmark.

    python launcher.py probe MODULE...           import catenoid_dirac.MODULE...,
                                                 print the monotonic clock (ns)
    python launcher.py cli SPANS OP_ID -- ARGV   run the catenoid-dirac CLI;
                                                 with SPANS != "-", trace it first
                                                 and write the spans to SPANS

The package is imported before anything else (numpy included), and through
``__import__`` (``importlib.import_module`` bypasses the import-time
report), so that ``-X importtime`` attributes numpy and scipy to it.  ``src`` must
be on PYTHONPATH.
"""

import sys
import time


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "probe":
        for module in rest:
            __import__(f"catenoid_dirac.{module}")
        print(time.monotonic_ns())
        return 0
    spans, op_id, cli_argv = rest[0], int(rest[1]), rest[3:]
    __import__("catenoid_dirac.cli")
    cli = sys.modules["catenoid_dirac.cli"]
    if spans == "-":
        return cli.main(cli_argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op_id = op_id
    try:
        return cli.main(cli_argv)
    finally:
        tracer.save(spans)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
