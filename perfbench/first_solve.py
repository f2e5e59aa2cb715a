"""Set-up probe, run in a fresh interpreter: `cubicmoment solve` on stdin.

Imports cubicmoment.cli from the checkout's src/ and runs the solve
subcommand on the request piped to it, as `cubicmoment solve` would. It
writes the CLI's JSON answer to stdout and, as the last line of stderr,
the seconds spent in the solve itself.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from cubicmoment.cli import main  # noqa: E402

if __name__ == "__main__":
    start = time.perf_counter()
    code = main(["solve", "--quiet", "-"])
    elapsed = time.perf_counter() - start
    sys.stderr.write(json.dumps({"first_solve_s": elapsed}) + "\n")
    sys.exit(code)
