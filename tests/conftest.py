import sys
from pathlib import Path

from hypothesis import settings

# the tools import their shared helpers as top-level modules, as they do when run as scripts
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")
