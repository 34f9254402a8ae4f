"""Record the golden outputs: ``PYTHONPATH=src python -m tests.golden --record``."""

import argparse

from . import record

parser = argparse.ArgumentParser(prog="python -m tests.golden", description=__doc__)
parser.add_argument("--record", action="store_true", required=True,
                    help="rerun every case and overwrite its expected files")
parser.parse_args()
record()
