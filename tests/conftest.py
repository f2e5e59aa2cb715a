import sys
from pathlib import Path

from hypothesis import settings

# the tools import their shared helpers as top-level modules, as they do when run as scripts
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

# derandomize: every run draws the same examples, whatever the machine's .hypothesis/ database holds
settings.register_profile("suite", deadline=None, max_examples=60, derandomize=True)
settings.load_profile("suite")
